"""Block one-sided Jacobi SVD — the natural scaling extension.

Where Algorithm 1 orthogonalizes *pairs of columns*, the block variant
orthogonalizes *pairs of column blocks*: for blocks (I, J) of width b,
form the 2b x 2b Gram of ``[A_I A_J]``, diagonalize it (cyclic Jacobi
eigensolver, :mod:`repro.core.symeig`), and apply the resulting
orthogonal transform to the 2b columns at once.  Each block sweep does
strictly more orthogonalization work per data pass, which is the
standard route to scaling Jacobi methods past the paper's
single-column-pair datapath (larger update kernels amortizing BRAM
bandwidth) — the kind of follow-on the paper's future-work section
implies.

Convergence comparison against the scalar method is an ablation
benchmark; correctness is tied to the same invariants as every other
engine here.
"""

from __future__ import annotations

import numpy as np

from repro.core.convergence import (
    ConvergenceCriterion,
    ConvergenceTrace,
    measure,
    run_sweeps,
)
from repro.core.hestenes import finalize_columns
from repro.core.ordering import cyclic_sweep
from repro.core.result import SVDResult
from repro.core.symeig import jacobi_eigh
from repro.util.validation import as_float_matrix, check_positive_int

__all__ = ["block_jacobi_svd"]


def _block_slices(n: int, block: int) -> list[np.ndarray]:
    """Column index arrays for contiguous blocks of width <= block."""
    return [np.arange(s, min(s + block, n)) for s in range(0, n, block)]


def block_jacobi_svd(
    a,
    *,
    block: int = 4,
    compute_uv: bool = True,
    criterion: ConvergenceCriterion | None = None,
    inner_sweeps: int = 12,
) -> SVDResult:
    """SVD by block one-sided Jacobi.

    Parameters
    ----------
    a : array_like
        Input m x n matrix.
    block : int
        Column-block width b; ``block=1`` degenerates to the scalar
        method (with an eigensolver doing each 2x2).
    compute_uv : bool
        Accumulate factors.
    criterion : ConvergenceCriterion
        Outer sweep budget; default 6 outer sweeps (each does far more
        work than a scalar sweep).
    inner_sweeps : int
        Sweep budget of the 2b x 2b eigensolver.

    Returns
    -------
    SVDResult with ``method="block_jacobi"``.
    """
    a = as_float_matrix(a, name="a")
    check_positive_int(block, name="block")
    criterion = criterion or ConvergenceCriterion(max_sweeps=6, tol=None)
    n = a.shape[1]

    b_mat = a.copy()
    v = np.eye(n) if compute_uv else None
    blocks = _block_slices(n, block)
    if len(blocks) == 1:
        pair_rounds = [[(0, 0)]]  # single block: orthogonalize it alone
    else:
        pair_rounds = cyclic_sweep(len(blocks))
    trace = ConvergenceTrace(metric=criterion.metric)
    trace.record(0, measure(b_mat.T @ b_mat, criterion.metric))

    inner_criterion = ConvergenceCriterion(max_sweeps=inner_sweeps, tol=None)

    def sweep(index, rspan):
        rotations = 0
        for rnd in pair_rounds:
            for bi, bj in rnd:
                if bi == bj:
                    cols = blocks[bi]
                else:
                    cols = np.concatenate([blocks[bi], blocks[bj]])
                sub = b_mat[:, cols]
                gram = sub.T @ sub
                # Max-based comparison: a Frobenius norm of the Gram
                # squares entries that may already be squared column
                # norms, underflowing for tiny-scale inputs.
                off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
                if off <= 1e-15 * max(float(np.max(np.abs(gram))), 1e-300):
                    continue
                _, q = jacobi_eigh(gram, criterion=inner_criterion)
                # Apply the diagonalizing transform to the block columns.
                b_mat[:, cols] = sub @ q
                if v is not None:
                    v[:, cols] = v[:, cols] @ q
                rotations += 1
        return rotations, 0

    sweeps_done, converged = run_sweeps(
        sweep,
        lambda: measure(b_mat.T @ b_mat, criterion.metric),
        method="block_jacobi",
        criterion=criterion,
        trace=trace,
    )
    trace.converged = converged

    s, u, vt = finalize_columns(b_mat, v, compute_uv=compute_uv)
    return SVDResult(
        s=s, u=u, vt=vt, sweeps=sweeps_done, trace=trace,
        method="block_jacobi", converged=converged,
    )
