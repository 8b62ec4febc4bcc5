"""Grouped (hardware-scheduled) modified Hestenes-Jacobi SVD.

The FPGA processes each cyclic round as groups of up to eight
*independent* rotations (Fig. 6's dashed box): all rotation parameters
in a group are generated from the covariance state as it stood when the
group issued, then the update kernels stream the affected columns and
covariances.  Because the pairs of a round are index-disjoint, plane
rotations of one pair never touch the norms or covariance of another
pair in the same round — so computing a whole round's parameters from
the pre-round snapshot and applying them jointly is *exactly* equal to
applying them one at a time (disjoint plane rotations commute).

That equivalence is what makes this implementation both the fidelity
model of the hardware schedule and the fast vectorized NumPy path: each
round becomes a handful of fancy-indexed array operations instead of
n/2 Python-level rotations.  Property tests in
``tests/core/test_blocked.py`` pin the sequential/blocked equivalence.
"""

from __future__ import annotations

import numpy as np

from repro.core.convergence import (
    ConvergenceCriterion,
    ConvergenceTrace,
    measure,
    run_sweeps,
)
from repro.core.modified import gram_finalize, gram_matrix
from repro.core.ordering import cyclic_sweep
from repro.core.registry import ROTATION_IMPLS, TRACK_COLUMN_MODES
from repro.core.result import SVDResult
from repro.core.rotation import apply_round_columns
from repro.util.validation import as_float_matrix, check_in_choices

__all__ = ["blocked_svd", "batch_rotation_params", "apply_round_gram"]


# Large-|rho| cutoff above which the closed-form tangent switches to
# its 1/(2 rho) asymptote: rho*rho must not overflow the working dtype.
_HUGE_RHO = {"float64": 1e150, "float32": 1e15}


def batch_rotation_params(
    norm_i: np.ndarray,
    norm_j: np.ndarray,
    cov: np.ndarray,
    *,
    rotation_impl: str = "textbook",
    dtype=np.float64,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized rotation parameters for a batch of disjoint pairs.

    Returns ``(cos, sin, t, active)`` arrays; inactive entries
    (``cov == 0``) carry the identity rotation.  Matches
    :func:`repro.core.rotation.textbook_rotation` /
    :func:`repro.core.rotation.dataflow_rotation` elementwise.

    ``dtype`` selects the working precision (float64 default; float32
    for the mixed-precision fast path).  Every constant is materialized
    in that dtype so no intermediate silently promotes, and the huge-rho
    overflow guard scales with the dtype's range.
    """
    check_in_choices(rotation_impl, ROTATION_IMPLS, name="rotation_impl")
    dtype = np.dtype(dtype)
    if dtype.name not in _HUGE_RHO:
        raise ValueError(
            f"dtype must be float32 or float64, got {dtype.name!r}"
        )
    one = dtype.type(1.0)
    zero = dtype.type(0.0)
    neg_one = dtype.type(-1.0)
    norm_i = np.asarray(norm_i, dtype=dtype)
    norm_j = np.asarray(norm_j, dtype=dtype)
    cov = np.asarray(cov, dtype=dtype)
    active = cov != 0.0
    # Hardware-style sign: the IEEE sign bit, never zero.
    sgn = np.where(np.signbit(cov), neg_one, one) * np.where(
        np.signbit(norm_j - norm_i), neg_one, one
    )
    d = norm_j - norm_i
    safe_cov = np.where(active, cov, one)
    if rotation_impl == "textbook":
        with np.errstate(over="ignore", divide="ignore"):
            rho = d / (2.0 * safe_cov)
            huge = np.abs(rho) > _HUGE_RHO[dtype.name]
            safe_rho = np.where(huge, one, rho)
            t_normal = np.where(np.signbit(rho), neg_one, one) / (
                np.abs(safe_rho) + np.sqrt(1.0 + safe_rho * safe_rho)
            )
            # rho*rho would overflow; asymptotically t -> 1/(2 rho).
            t = np.where(huge, 0.5 / rho, t_normal)
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = c * t
    else:
        # Scale-invariant evaluation (see rotation.dataflow_rotation):
        # normalizing (d, cov) by their larger magnitude keeps the
        # squares from under/overflowing on denormal or huge entries.
        scale = np.maximum(np.abs(d), np.abs(safe_cov))
        scale = np.where(scale == 0.0, one, scale)
        dn = d / scale
        cn = safe_cov / scale
        abs_d = np.abs(dn)
        c2 = 2.0 * cn * cn
        four_c2 = 2.0 * c2
        r = np.sqrt(dn * dn + four_c2)
        denom = dn * dn + four_c2 + abs_d * r
        denom = np.where(denom == 0.0, one, denom)
        t = sgn * np.abs(2.0 * cn) / (abs_d + r)
        c = np.sqrt((dn * dn + c2 + abs_d * r) / denom)
        s = sgn * np.sqrt(c2 / denom)
    c = np.where(active, c, one)
    s = np.where(active, s, zero)
    t = np.where(active, t, zero)
    return c, s, t, active


def apply_round_gram(
    d: np.ndarray,
    idx_i: np.ndarray,
    idx_j: np.ndarray,
    c: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    cov: np.ndarray,
) -> None:
    """Apply a round of disjoint plane rotations to the Gram matrix.

    ``D <- Jᵀ D J`` where J is the direct product of the round's 2x2
    rotations.  Column transform, then row transform, then the closed
    forms for each pair's own 2x2 block (norm shift by ``±t cov`` and
    exact-zero covariance, Algorithm 1 lines 15-17).
    """
    ni = d[idx_i, idx_i].copy()
    nj = d[idx_j, idx_j].copy()

    cols_i = d[:, idx_i].copy()
    cols_j = d[:, idx_j].copy()
    d[:, idx_i] = cols_i * c - cols_j * s
    d[:, idx_j] = cols_i * s + cols_j * c

    rows_i = d[idx_i, :].copy()
    rows_j = d[idx_j, :].copy()
    d[idx_i, :] = c[:, None] * rows_i - s[:, None] * rows_j
    d[idx_j, :] = s[:, None] * rows_i + c[:, None] * rows_j

    delta = t * cov
    d[idx_i, idx_i] = ni - delta
    d[idx_j, idx_j] = nj + delta
    d[idx_i, idx_j] = 0.0
    d[idx_j, idx_i] = 0.0


def blocked_svd(
    a,
    *,
    compute_uv: bool = True,
    criterion: ConvergenceCriterion | None = None,
    rotation_impl: str = "textbook",
    track_columns: str = "first_sweep",
) -> SVDResult:
    """Round-parallel modified Hestenes-Jacobi SVD (cyclic ordering only).

    Numerically equivalent to :func:`repro.core.modified.modified_svd`
    with the cyclic ordering, but processes each tournament round as a
    single vectorized batch, exactly as the hardware issues it.  This is
    the implementation the accelerator simulator uses as its functional
    model and the fastest pure-NumPy path in the library.

    See :func:`repro.core.modified.modified_svd` for the meaning of the
    keyword arguments.
    """
    a = as_float_matrix(a, name="a")
    check_in_choices(track_columns, TRACK_COLUMN_MODES, name="track_columns")
    criterion = criterion or ConvergenceCriterion(max_sweeps=6, tol=None)

    n = a.shape[1]
    d = gram_matrix(a)
    track_b = track_columns != "never"
    b = a.copy() if track_b else None
    v = np.eye(n) if compute_uv else None
    rounds = cyclic_sweep(n)

    trace = ConvergenceTrace(metric=criterion.metric)
    trace.record(0, measure(d, criterion.metric))

    def sweep(index, rspan):
        update_cols = b is not None and (track_columns == "always" or index == 1)
        rotations = 0
        skipped = 0
        for round_index, round_pairs in enumerate(rounds):
            if not round_pairs:
                continue
            with rspan("core.round", round=round_index, pairs=len(round_pairs)):
                idx_i = np.fromiter((p[0] for p in round_pairs), dtype=np.intp)
                idx_j = np.fromiter((p[1] for p in round_pairs), dtype=np.intp)
                cov = d[idx_i, idx_j].copy()
                ni = d[idx_i, idx_i]
                nj = d[idx_j, idx_j]
                c, s, t, active = batch_rotation_params(
                    ni, nj, cov, rotation_impl=rotation_impl
                )
                n_active = int(np.sum(active))
                rotations += n_active
                skipped += len(round_pairs) - n_active
                if n_active == 0:
                    continue
                apply_round_gram(d, idx_i, idx_j, c, s, t, cov)
                if update_cols:
                    apply_round_columns(b, idx_i, idx_j, c, s)
                if v is not None:
                    apply_round_columns(v, idx_i, idx_j, c, s)
        return rotations, skipped

    sweeps_done, converged = run_sweeps(
        sweep,
        lambda: measure(d, criterion.metric),
        method="blocked",
        criterion=criterion,
        trace=trace,
    )
    trace.converged = converged

    s, u, vt = gram_finalize(d, a, b, v, track_columns=track_columns)
    return SVDResult(
        s=s,
        u=u,
        vt=vt,
        sweeps=sweeps_done,
        trace=trace,
        method="blocked",
        converged=converged,
    )
