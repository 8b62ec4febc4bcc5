"""Top-level SVD API.

:func:`hestenes_svd` is the single entry point most users need; it
resolves the requested engine through
:mod:`repro.core.registry` and dispatches to the implementations of
the paper's algorithm:

* ``method="reference"`` — plain Hestenes one-sided Jacobi (recomputes
  norms/covariances; gold standard; models the prior design [12]).
* ``method="modified"`` — Algorithm 1 with covariance caching (the
  paper's algorithmic contribution), sequential pair order.
* ``method="blocked"`` — the same algorithm scheduled in round-parallel
  batches exactly as the FPGA issues them; fastest in NumPy.
* ``method="vectorized"`` — the *reference* recompute-from-columns
  numerics scheduled round-parallel: batched norms/covariances, batched
  rotation parameters, one gather/scatter column update per round (plus
  a ``block_rounds`` fusion knob for the sequential orderings).
* ``method="preconditioned"`` — Householder QR first, direct Jacobi on
  the n x n triangular factor (Drmač-Veselić style): row-count-
  independent sweep cost and full relative accuracy.

Engine-specific knobs travel in the validated ``engine_opts`` mapping
(``{"block_rounds": 4}``, ``{"pivot": False}``, ...).  Adding an
engine is one :func:`repro.core.registry.register_engine` call — the
serving layer and CLI resolve engines through the same registry.

For the cycle-level hardware simulation of the same computation, see
:class:`repro.hw.architecture.HestenesJacobiAccelerator`, which wraps
the blocked implementation with the timing and resource models.
"""

from __future__ import annotations

from repro.core.convergence import ConvergenceCriterion
from repro.core.registry import METHODS, resolve_engine
from repro.core.result import SVDResult
from repro.obs.health import observe_result

__all__ = ["hestenes_svd", "METHODS", "HestenesJacobiSVD"]


def _normalize_engine_opts(engine_opts) -> dict:
    """Accept a mapping or an iterable of (key, value) pairs."""
    if engine_opts is None:
        return {}
    if isinstance(engine_opts, dict):
        return dict(engine_opts)
    try:
        return dict(engine_opts)
    except (TypeError, ValueError):
        raise TypeError(
            f"engine_opts must be a mapping of option name -> value, "
            f"got {engine_opts!r}"
        ) from None


def hestenes_svd(
    a,
    *,
    method: str = "blocked",
    compute_uv: bool = True,
    max_sweeps: int = 6,
    tol: float | None = None,
    metric: str = "mean_abs",
    ordering: str = "cyclic",
    rotation_impl: str = "textbook",
    track_columns: str = "first_sweep",
    precision: str = "fp64",
    engine_opts=None,
    seed=None,
) -> SVDResult:
    """Singular value decomposition by the Hestenes-Jacobi method.

    Parameters
    ----------
    a : array_like
        Arbitrary m x n real matrix (the Hestenes method has no squareness
        restriction — the point of the paper versus two-sided Jacobi).
    method : str
        Engine name; any engine registered in
        :mod:`repro.core.registry` (built-ins: :data:`METHODS`).
    compute_uv : bool
        Compute U and Vᵀ (True) or singular values only (False — the
        hardware-faithful output).
    max_sweeps : int
        Sweep cap; the paper's hardware runs a fixed 6.
    tol : float or None
        Optional early-stopping threshold on *metric* after each sweep.
    metric : str
        Convergence metric name (:data:`repro.core.convergence.METRICS`).
    ordering : str
        Pair ordering ("cyclic", "row", "random"), validated against the
        engine's ``supported_orderings`` ("blocked" and "preconditioned"
        accept only the cyclic default).
    rotation_impl : {"textbook", "dataflow"}
        Rotation parameter formulation (Algorithm 1 vs eq. 8-10);
        forwarded to engines that support it.
    track_columns : {"always", "first_sweep", "never"}
        Column-update schedule for the modified/blocked methods.
    precision : {"fp64", "mixed", "fp32"}
        Working-precision schedule, for engines that declare it (the
        vectorized engine): "mixed" runs float32 bulk sweeps with an
        fp64 cleanup (fp64-class accuracy, ~1.5x faster at n=256),
        "fp32" stays in float32 throughout (documented ~1e-5 accuracy
        class).  Requesting a non-default precision from an engine
        without precision support raises ``ValueError`` rather than
        silently computing in fp64.
    engine_opts : mapping, optional
        Engine-specific options, validated against the engine's
        ``options_schema`` — e.g. ``{"block_rounds": 4}`` for the
        vectorized engine or ``{"pivot": False}`` for preconditioned.
        Unknown options and out-of-range values raise ``ValueError``.
    seed
        Used only by the "random" ordering.

    Returns
    -------
    SVDResult
        Singular values descending; economy-size U/Vᵀ when requested.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import hestenes_svd
    >>> a = np.array([[4.0, 1.0], [2.0, 3.0], [0.0, 5.0]])
    >>> res = hestenes_svd(a)
    >>> np.allclose(res.s, np.linalg.svd(a, compute_uv=False))
    True
    """
    spec = resolve_engine(method)
    spec.validate_ordering(ordering)
    opts = _normalize_engine_opts(engine_opts)
    # Legacy keyword folding: the historical top-level knobs flow into
    # engine_opts for engines that declare them and are ignored (as
    # they always were) elsewhere; explicit engine_opts wins.
    if "rotation_impl" in spec.options_schema:
        opts.setdefault("rotation_impl", rotation_impl)
    if "track_columns" in spec.options_schema:
        opts.setdefault("track_columns", track_columns)
    if "precision" in spec.options_schema:
        opts.setdefault("precision", precision)
    elif precision != "fp64" or opts.get("precision", "fp64") != "fp64":
        # Engines without a precision schedule always compute in fp64;
        # failing loudly beats silently ignoring an accuracy/latency
        # request (the serve layer relies on this for submit rejection).
        raise ValueError(
            f'method="{spec.name}" does not support reduced precision; '
            f'precision={precision!r} is only available on engines '
            f'declaring a "precision" engine_opt (e.g. "vectorized")'
        )
    opts = spec.validate_options(opts)
    criterion = ConvergenceCriterion(max_sweeps=max_sweeps, tol=tol, metric=metric)
    result = spec.fn(
        a,
        compute_uv=compute_uv,
        criterion=criterion,
        ordering=ordering,
        seed=seed,
        **opts,
    )
    return observe_result(result, engine=spec.name, matrix=a)


class HestenesJacobiSVD:
    """Reusable, pre-configured Hestenes-Jacobi solver.

    Stores the keyword configuration once so parameter sweeps and
    pipelines can call :meth:`decompose` repeatedly:

    >>> solver = HestenesJacobiSVD(max_sweeps=8, method="blocked")
    >>> import numpy as np
    >>> r = solver.decompose(np.eye(4))
    >>> [float(v) for v in r.s]
    [1.0, 1.0, 1.0, 1.0]
    """

    def __init__(self, **options) -> None:
        # Validate eagerly by probing the option names against the
        # function signature, so typos fail at construction time.
        valid = {
            "method",
            "compute_uv",
            "max_sweeps",
            "tol",
            "metric",
            "ordering",
            "rotation_impl",
            "track_columns",
            "precision",
            "engine_opts",
            "seed",
        }
        unknown = set(options) - valid
        if unknown:
            raise TypeError(f"unknown options: {sorted(unknown)}")
        self.options = dict(options)

    def decompose(self, a, **overrides) -> SVDResult:
        """Run the decomposition with stored options plus *overrides*."""
        merged = {**self.options, **overrides}
        return hestenes_svd(a, **merged)

    def singular_values(self, a):
        """Convenience: singular values only (hardware-faithful output)."""
        return self.decompose(a, compute_uv=False).s

    def __repr__(self) -> str:
        opts = ", ".join(f"{k}={v!r}" for k, v in sorted(self.options.items()))
        return f"HestenesJacobiSVD({opts})"
