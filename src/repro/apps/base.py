"""The unified low-rank estimator protocol.

Every rank-k surface in the repository shares one vocabulary, resolved
through :mod:`repro.core.registry` exactly like the serving layer:

* ``rank`` — the retained rank k (``n_components`` in PCA clothing);
* ``engine`` — a registered Hestenes engine name (``"blocked"``,
  ``"vectorized"``, ...) or the documented non-registry baseline
  ``"golub_reinsch"``;
* ``engine_opts`` — a mapping holding both the uniform solver options
  (``max_sweeps``, ``tol``, ``metric``, ``ordering``, ``precision``,
  ``seed``) and engine-specific knobs (``block_rounds``,
  ``switch_tol``, ``pivot``, ...), all validated eagerly at
  construction time.

:func:`make_solver` turns ``(engine, engine_opts)`` into a reusable
``solve(a, compute_uv=...) -> SVDResult`` callable; estimators and the
streaming pipeline (:mod:`repro.stream`) share it so swapping the
inner kernel — including ``precision="mixed"`` — never needs a
special case.  :class:`LowRankSVD` is the estimator protocol
(``fit`` / ``partial_fit`` / ``transform`` / ``query``) the app-layer
classes implement.
"""

from __future__ import annotations

import abc
from typing import Callable

from repro.core.registry import engine_names, resolve_engine
from repro.core.result import SVDResult
from repro.util.validation import check_positive_int

__all__ = [
    "GOLUB_REINSCH",
    "UNIFORM_SOLVER_OPTS",
    "LowRankSVD",
    "make_solver",
    "split_engine_opts",
    "low_rank_engine_names",
]

#: The non-registry baseline engine name accepted everywhere a
#: registered engine is: Golub-Reinsch bidiagonalization + QR
#: iteration (:mod:`repro.baselines.gkr_svd`).  It is direct — the
#: sweep/tolerance solver options do not apply and are rejected.
GOLUB_REINSCH = "golub_reinsch"

#: Solver-level options shared by every registered engine.  These may
#: appear in an estimator's ``engine_opts`` alongside engine-specific
#: knobs; :func:`split_engine_opts` separates the two.
UNIFORM_SOLVER_OPTS = ("max_sweeps", "tol", "metric", "ordering", "precision", "seed")


def low_rank_engine_names() -> tuple:
    """Engine names the low-rank layer accepts: the registry plus the
    Golub-Reinsch baseline."""
    return (*engine_names(), GOLUB_REINSCH)


def split_engine_opts(engine: str, engine_opts=None) -> tuple[dict, dict]:
    """Split *engine_opts* into ``(uniform, engine_specific)`` dicts.

    Both halves are validated eagerly: the engine name must resolve
    (registry or :data:`GOLUB_REINSCH`), engine-specific keys must
    appear in the engine's ``options_schema`` with admissible values,
    and a ``precision`` request is rejected up front for engines that
    do not declare one — construction-time failure, not fit-time.
    """
    if engine_opts is None:
        opts = {}
    else:
        try:
            opts = dict(engine_opts)
        except (TypeError, ValueError):
            raise TypeError(
                f"engine_opts must be a mapping of option name -> value, "
                f"got {engine_opts!r}"
            ) from None
    uniform = {k: opts.pop(k) for k in list(opts) if k in UNIFORM_SOLVER_OPTS}
    if "max_sweeps" in uniform:
        check_positive_int(uniform["max_sweeps"], name="max_sweeps")
    if engine == GOLUB_REINSCH:
        if opts:
            raise ValueError(
                f"engine {GOLUB_REINSCH!r} takes no engine-specific "
                f"options, got {sorted(opts)}"
            )
        direct_ok = {"seed", "max_sweeps"}  # accepted, unused (direct method)
        bad = set(uniform) - direct_ok
        if bad:
            raise ValueError(
                f"engine {GOLUB_REINSCH!r} is a direct method; options "
                f"{sorted(bad)} do not apply"
            )
        return uniform, {}
    spec = resolve_engine(engine)
    precision = uniform.get("precision", "fp64")
    if precision != "fp64" and "precision" not in spec.options_schema:
        raise ValueError(
            f'engine "{engine}" does not support reduced precision; '
            f"precision={precision!r} needs an engine declaring a "
            f'"precision" engine_opt (e.g. "vectorized")'
        )
    spec.validate_options(opts)
    return uniform, opts


def make_solver(
    engine: str = "blocked",
    engine_opts=None,
) -> Callable[..., SVDResult]:
    """Build a ``solve(a, compute_uv=True) -> SVDResult`` callable.

    The one place ``(engine, engine_opts)`` turns into an inner dense
    kernel, shared by the estimators in :mod:`repro.apps`, the
    streaming pipeline in :mod:`repro.stream`, and
    :func:`repro.baselines.lanczos.lanczos_svd`.  Validation happens
    here, eagerly; the returned callable is cheap to invoke per block.
    """
    uniform, specific = split_engine_opts(engine, engine_opts)
    if engine == GOLUB_REINSCH:
        from repro.baselines.gkr_svd import golub_reinsch_svd

        def solve(a, *, compute_uv: bool = True) -> SVDResult:
            return golub_reinsch_svd(a, compute_uv=compute_uv)

        solve.engine = engine  # type: ignore[attr-defined]
        return solve
    from repro.core.svd import hestenes_svd

    def solve(a, *, compute_uv: bool = True) -> SVDResult:
        return hestenes_svd(
            a,
            method=engine,
            compute_uv=compute_uv,
            engine_opts=specific or None,
            **uniform,
        )

    solve.engine = engine  # type: ignore[attr-defined]
    return solve


class LowRankSVD(abc.ABC):
    """Protocol base for rank-k estimators.

    Concrete estimators (``PCA``, ``IncrementalSVD``, ``LsiIndex``,
    :class:`repro.stream.merge.StreamSVD`) share the constructor
    vocabulary — ``rank``, ``engine``, ``engine_opts`` — and the
    verb set:

    * :meth:`fit` — consume a full dataset, return ``self``;
    * :meth:`partial_fit` — fold in an increment (streaming
      estimators; others raise ``NotImplementedError``);
    * :meth:`transform` — map data into the fitted rank-k space;
    * :meth:`query` — retrieval surface (LSI-style estimators).

    Subclasses call ``super().__init__(rank, engine=..., engine_opts=...)``
    and use ``self._solver`` (a :func:`make_solver` product) for every
    inner dense decomposition.
    """

    def __init__(self, rank: int | None, *, engine: str = "blocked", engine_opts=None) -> None:
        # ``None`` means "full rank, decided at fit time" (PCA's
        # n_components=None); streaming estimators require an int.
        self.rank = None if rank is None else check_positive_int(rank, name="rank")
        self.engine = engine
        self.engine_opts = dict(engine_opts) if engine_opts else {}
        self._solver = make_solver(engine, self.engine_opts)

    # -- protocol verbs -----------------------------------------------------

    @abc.abstractmethod
    def fit(self, data) -> "LowRankSVD":
        """Fit the estimator on a full dataset; returns ``self``."""

    def partial_fit(self, data) -> "LowRankSVD":
        """Fold an increment into the fitted state (streaming only)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental fitting"
        )

    @abc.abstractmethod
    def transform(self, data):
        """Map *data* into the fitted rank-k space."""

    def query(self, q, top_k: int = 3):
        """Retrieve the top matches for *q* (retrieval estimators only)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support querying"
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(rank={self.rank}, engine={self.engine!r})"
        )
