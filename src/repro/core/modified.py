"""The paper's modified Hestenes-Jacobi algorithm (Algorithm 1).

The key idea: maintain the column Gram ("covariance") matrix
``D = BᵀB`` explicitly and *update* it after every rotation instead of
recomputing squared norms and covariances from the columns.  A rotation
of columns (i, j) acts on D as the congruence ``D <- Jᵀ D J``, which
touches only rows/columns i and j — O(n) work versus O(m) per dot
product times three dot products, repeated every sweep, for the plain
method.  Columns themselves only need updating while left singular
vectors are wanted, which is why the FPGA reconfigures its Hestenes
preprocessor into extra update kernels after the first sweep.

Fidelity knobs mirror the hardware:

* ``rotation_impl="dataflow"`` computes cos/sin/t through the
  division-restructured equations (8)-(10) exactly as the Jacobi
  rotation component does; ``"textbook"`` uses Algorithm 1 lines 11-14.
* ``track_columns`` selects how long column updates run:
  ``"first_sweep"`` is the paper's schedule, ``"always"`` keeps B exact
  (useful for U), ``"never"`` skips them entirely (pure-Σ mode).

Singular values are ``sqrt(diag(D))`` after the final sweep (Algorithm 1
lines 28-29), computed by the rotation component's square-root operator
in hardware.
"""

from __future__ import annotations

import numpy as np

from repro.core.convergence import (
    ConvergenceCriterion,
    ConvergenceTrace,
    measure,
    run_sweeps,
)
from repro.core.hestenes import finalize_sigma
from repro.core.ordering import make_sweep
from repro.core.registry import ROTATION_IMPLS, TRACK_COLUMN_MODES
from repro.core.result import SVDResult
from repro.core.rotation import (
    RotationParams,
    apply_rotation_columns,
    apply_rotation_gram,
    dataflow_rotation,
    textbook_rotation,
)
from repro.obs import span
from repro.util.validation import as_float_matrix, check_in_choices

__all__ = [
    "modified_svd",
    "gram_matrix",
    "gram_finalize",
    "TRACK_COLUMN_MODES",
    "ROTATION_IMPLS",
]


def gram_matrix(a: np.ndarray) -> np.ndarray:
    """Full symmetric covariance matrix ``D = AᵀA`` (Algorithm 1 lines 2-4).

    The hardware computes only the upper triangle (the preprocessor's
    multiplier-arrays walk j >= i); we store the full symmetric matrix
    so congruence updates vectorize, which is numerically identical.
    """
    a = np.asarray(a, dtype=np.float64)
    return a.T @ a


def _rotation_fn(rotation_impl: str):
    check_in_choices(rotation_impl, ROTATION_IMPLS, name="rotation_impl")
    return textbook_rotation if rotation_impl == "textbook" else dataflow_rotation


def modified_svd(
    a,
    *,
    compute_uv: bool = True,
    criterion: ConvergenceCriterion | None = None,
    ordering: str = "cyclic",
    seed=None,
    rotation_impl: str = "textbook",
    track_columns: str = "first_sweep",
    pair_threshold: float = 0.0,
    polish: bool = False,
    refresh_every: int | None = None,
) -> SVDResult:
    """SVD via Algorithm 1: covariance caching + incremental updates.

    Parameters
    ----------
    a : array_like
        Input m x n matrix.
    compute_uv : bool
        When True, the rotations are accumulated into V and the left
        factor is recovered as ``U = B / sigma`` (when columns were
        tracked to the end) or ``U = (A V) / sigma`` (eq. 7) otherwise.
    criterion : ConvergenceCriterion
        Defaults to the paper's fixed 6 sweeps with no early stop.
    ordering, seed
        Pair ordering (default the paper's cyclic order of Fig. 6).
    rotation_impl : {"textbook", "dataflow"}
        Which rotation-parameter formulation to use; both are exact in
        real arithmetic and agree to rounding in float64.
    track_columns : {"always", "first_sweep", "never"}
        Sweep range over which eq. (11)-(12) column updates execute.
        The paper's hardware uses "first_sweep".
    pair_threshold : float
        Absolute skip threshold on ``|cov|`` relative to
        ``sqrt(D_ii D_jj)``; 0.0 rotates every non-orthogonal pair,
        matching the fixed-function hardware.
    polish : bool
        Append a recompute-based refinement: after the cached sweeps,
        re-orthogonalize the actual columns with the reference method
        (warm start, so typically 1-2 cheap sweeps).  The cached D
        drifts from the true Gram at the ``eps * cond(A)^2`` level — an
        inherent trade-off of Algorithm 1 that limits tiny singular
        values and U-orthogonality for ill-conditioned inputs; the
        polish restores the reference method's accuracy at roughly one
        extra Gram phase of cost.  Requires ``compute_uv=True``.
    refresh_every : int, optional
        Recompute D from the tracked columns every *refresh_every*
        sweeps (one extra preprocessor pass each time).  Scrubs both
        accumulated congruence roundoff and any soft-error corruption
        of the cached covariances (see the resilience ablation).
        Requires ``track_columns="always"``.

    Returns
    -------
    SVDResult
    """
    a = as_float_matrix(a, name="a")
    check_in_choices(track_columns, TRACK_COLUMN_MODES, name="track_columns")
    if refresh_every is not None:
        if refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {refresh_every}")
        if track_columns != "always":
            raise ValueError('refresh_every requires track_columns="always"')
    rotate = _rotation_fn(rotation_impl)
    criterion = criterion or ConvergenceCriterion(max_sweeps=6, tol=None)

    n = a.shape[1]
    d = gram_matrix(a)
    track_b = track_columns != "never"
    b = a.copy() if track_b else None
    v = np.eye(n) if compute_uv else None

    trace = ConvergenceTrace(metric=criterion.metric)
    trace.record(0, measure(d, criterion.metric))

    def sweep(index, rspan):
        update_cols = b is not None and (track_columns == "always" or index == 1)
        rotations = 0
        skipped = 0
        for round_index, round_pairs in enumerate(make_sweep(n, ordering, seed)):
            with rspan("core.round", round=round_index, pairs=len(round_pairs)):
                for i, j in round_pairs:
                    cov = d[i, j]
                    norm_i = d[i, i]
                    norm_j = d[j, j]
                    # sqrt per factor: the product would overflow for
                    # squared norms above 1e154.
                    guard = np.sqrt(max(norm_i, 0.0)) * np.sqrt(max(norm_j, 0.0))
                    if cov == 0.0 or abs(cov) <= pair_threshold * guard:
                        skipped += 1
                        continue
                    params: RotationParams = rotate(norm_i, norm_j, cov)
                    apply_rotation_gram(d, i, j, params, cov)
                    if update_cols:
                        apply_rotation_columns(b, i, j, params)
                    if v is not None:
                        apply_rotation_columns(v, i, j, params)
                    rotations += 1
        if refresh_every is not None and index % refresh_every == 0:
            d[...] = gram_matrix(b)  # the scrub: one extra preprocessor pass
        return rotations, skipped

    sweeps_done, converged = run_sweeps(
        sweep,
        lambda: measure(d, criterion.metric),
        method="modified",
        criterion=criterion,
        trace=trace,
    )
    trace.converged = converged

    if polish:
        if not compute_uv:
            raise ValueError("polish requires compute_uv=True")
        return _polish(a, v, sweeps_done, trace, criterion)

    s, u, vt = gram_finalize(d, a, b, v, track_columns=track_columns)
    return SVDResult(
        s=s,
        u=u,
        vt=vt,
        sweeps=sweeps_done,
        trace=trace,
        method="modified",
        converged=converged,
    )


def gram_finalize(
    d: np.ndarray,
    a: np.ndarray,
    b: np.ndarray | None,
    v: np.ndarray | None,
    *,
    track_columns: str,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Finalize a cached-Gram run into ``(s, u, vt)``.

    Algorithm 1 lines 28-29: singular values are ``sqrt(diag(D))``.
    With ``v=None`` only the values are returned; otherwise the left
    factor comes from the tracked columns *b* when they were updated
    every sweep (``track_columns="always"``), else from ``A V``
    (eq. 7).  Shared by the modified and blocked engines.
    """
    m, n = a.shape
    with span("core.finalize", m=m, n=n):
        diag = np.diag(d).copy()
        diag[diag < 0.0] = 0.0  # roundoff can leave tiny negatives
        if v is not None and track_columns != "always":
            b = a @ v
        return finalize_sigma(np.sqrt(diag), m, b, v)


def _polish(a, v, cached_sweeps, trace, criterion):
    """Refinement pass: reference-method sweeps on B = A V (warm start).

    Composes the accumulated rotations: ``A (V V_polish) = B_final``,
    so the returned factors carry the combined transform while the
    singular values/vectors regain the recompute method's accuracy.
    """
    from repro.core.hestenes import reference_svd

    b = a @ v
    refined = reference_svd(
        b,
        compute_uv=True,
        criterion=ConvergenceCriterion(
            max_sweeps=max(criterion.max_sweeps, 4), tol=None
        ),
    )
    # B = U S Wᵀ with W the polish rotations on B's columns:
    # A = B Vᵀ = U S (V W)ᵀ.
    vt = refined.vt @ v.T
    if refined.trace is not None:
        for s_idx, value, rot, skip in zip(
            refined.trace.sweeps,
            refined.trace.values,
            refined.trace.rotations,
            refined.trace.skipped,
        ):
            if s_idx == 0:
                continue
            trace.record(cached_sweeps + s_idx, value, rot, skip)
    trace.converged = refined.converged
    return SVDResult(
        s=refined.s,
        u=refined.u,
        vt=vt,
        sweeps=cached_sweeps + refined.sweeps,
        trace=trace,
        method="modified+polish",
        converged=refined.converged,
    )
