"""Reference one-sided Jacobi (Hestenes) SVD.

This is the *unmodified* Hestenes-Jacobi method: for every column pair
the squared 2-norms and covariance are recomputed from the current
columns (three length-m dot products per pair, per sweep).  It serves
two roles in the reproduction:

1. the numerical gold standard the modified algorithm is tested against
   (it never squares the condition number, since rotations are applied
   directly to columns), and
2. the behavioural model of the prior FPGA design [12] the paper
   criticizes for "repeated calculations" — the ablation benchmark
   counts exactly those recomputed dot products.

The decomposition loop follows Hestenes' biorthogonalization: sweeps of
plane rotations until the columns of ``B = A V`` are pairwise
orthogonal; then ``sigma_l = ||b_l||`` and ``u_l = b_l / sigma_l``.
"""

from __future__ import annotations

import numpy as np

from repro.core.convergence import (
    ConvergenceCriterion,
    ConvergenceTrace,
    measure,
    run_sweeps,
)
from repro.core.ordering import make_sweep
from repro.core.result import SVDResult
from repro.core.rotation import apply_rotation_columns, textbook_rotation
from repro.obs import span
from repro.util.numerics import sort_svd
from repro.util.validation import as_float_matrix

__all__ = ["reference_svd", "FlopCounter", "finalize_columns", "finalize_sigma"]


class FlopCounter:
    """Tallies the dot products a non-caching Hestenes sweep recomputes.

    Each pair orthogonalization recomputes three length-m dot products
    (two squared norms + one covariance) = ``6m`` flops; the modified
    algorithm of the paper replaces them with O(1) cached reads.  The
    ablation benchmark reports both counters side by side.
    """

    def __init__(self) -> None:
        self.dot_products = 0
        self.dot_flops = 0
        self.update_flops = 0

    def add_pair(self, m: int) -> None:
        """Record the norm/covariance recomputation for one pair."""
        self.add_pairs(m, 1)

    def add_update(self, m: int) -> None:
        """Record one column-pair rotation update (eq. 11-12)."""
        self.add_updates(m, 1)

    def add_pairs(self, m: int, count: int) -> None:
        """Record *count* pairs' norm/covariance recomputations at once.

        The round-parallel engine examines a whole round of disjoint
        pairs per batched pass; charging them through this method keeps
        its totals identical to the scalar loop's pair-at-a-time tally.
        """
        self.dot_products += 3 * count
        self.dot_flops += 6 * m * count

    def add_updates(self, m: int, count: int) -> None:
        """Record *count* column-pair rotation updates at once."""
        self.update_flops += 6 * m * count

    @property
    def total_flops(self) -> int:
        return self.dot_flops + self.update_flops


def reference_svd(
    a,
    *,
    compute_uv: bool = True,
    criterion: ConvergenceCriterion | None = None,
    ordering: str = "cyclic",
    seed=None,
    pair_threshold: float = 1e-15,
    flops: FlopCounter | None = None,
) -> SVDResult:
    """One-sided Jacobi SVD with per-pair norm/covariance recomputation.

    Parameters
    ----------
    a : array_like
        Input m x n matrix (any rectangular shape).
    compute_uv : bool
        When True, return U and Vᵀ in addition to the singular values.
    criterion : ConvergenceCriterion
        Sweep cap and optional early-stopping threshold.  Default:
        ``ConvergenceCriterion(max_sweeps=30, tol=None)`` — generous,
        because the reference implementation doubles as the accuracy
        gold standard.  The loop also stops when a full sweep performs
        no rotation (every pair already orthogonal to *pair_threshold*).
    ordering : str
        Pair ordering per sweep; see :data:`repro.core.ordering.ORDERINGS`.
    seed
        Only used by the "random" ordering.
    pair_threshold : float
        Relative skip threshold: the pair (i, j) is rotated only when
        ``|cov| > pair_threshold * sqrt(norm_i * norm_j)`` (de Rijk's
        criterion).  Guarantees termination in floating point.
    flops : FlopCounter, optional
        When given, recomputation work is tallied into it.

    Returns
    -------
    SVDResult
        Economy-size decomposition, singular values descending.
    """
    a = as_float_matrix(a, name="a")
    m, n = a.shape
    criterion = criterion or ConvergenceCriterion(max_sweeps=30, tol=None)

    b = a.copy()
    v = np.eye(n) if compute_uv else None
    trace = ConvergenceTrace(metric=criterion.metric)
    trace.record(0, measure(b.T @ b, criterion.metric))

    def sweep(index, rspan):
        rotations = 0
        skipped = 0
        for round_index, round_pairs in enumerate(make_sweep(n, ordering, seed)):
            with rspan("core.round", round=round_index, pairs=len(round_pairs)):
                for i, j in round_pairs:
                    bi = b[:, i]
                    bj = b[:, j]
                    norm_i = float(bi @ bi)
                    norm_j = float(bj @ bj)
                    cov = float(bi @ bj)
                    if flops is not None:
                        flops.add_pair(m)
                    # sqrt per factor: the product ni*nj overflows for
                    # squared norms above 1e154 (columns of scale ~1e77).
                    if abs(cov) <= (
                        pair_threshold * np.sqrt(norm_i) * np.sqrt(norm_j)
                    ):
                        skipped += 1
                        continue
                    params = textbook_rotation(norm_i, norm_j, cov)
                    apply_rotation_columns(b, i, j, params)
                    if v is not None:
                        apply_rotation_columns(v, i, j, params)
                    if flops is not None:
                        flops.add_update(m)
                    rotations += 1
        return rotations, skipped

    sweeps_done, converged = run_sweeps(
        sweep,
        lambda: measure(b.T @ b, criterion.metric),
        method="reference",
        criterion=criterion,
        trace=trace,
    )
    trace.converged = converged

    s, u, vt = finalize_columns(b, v, compute_uv=compute_uv)

    return SVDResult(
        s=s,
        u=u,
        vt=vt,
        sweeps=sweeps_done,
        trace=trace,
        method="reference",
        converged=converged,
    )


def finalize_columns(
    b: np.ndarray, v: np.ndarray | None, *, compute_uv: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Extract ``(s, u, vt)`` from orthogonalized columns ``B = A V``.

    Singular values are the column norms of *b*; the left factor is
    built by :func:`finalize_sigma`.  Shared by every column-space
    engine (reference, vectorized, block Jacobi) so their finalization
    is bit-identical.
    """
    m, n = b.shape
    with span("core.finalize", m=m, n=n):
        norms = np.linalg.norm(b, axis=0)
        if not compute_uv:
            b = v = None
        return finalize_sigma(norms, m, b, v)


def finalize_sigma(
    sigma: np.ndarray, m: int, b: np.ndarray | None, v: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Economy ``(s, u, vt)`` from column scales *sigma* of ``B = A V``.

    *sigma* holds the n (unsorted) singular-value estimates and *m* is
    the row count.  With ``v=None`` only the sorted values are
    returned.  Otherwise the left vectors are the columns of *b*
    divided by *sigma* where it exceeds ``max(sigma) * max(m, n) *
    eps``; the columns of (numerically) zero singular values are
    completed to an orthonormal set so ``UᵀU = I`` always holds.  The
    one U-completion path of every engine.
    """
    n = sigma.shape[0]
    k = min(m, n)
    if v is None:
        _, s, _ = sort_svd(None, sigma, None)
        return s[:k], None, None
    u_full = np.zeros((m, n))
    s_max = float(np.max(sigma)) if sigma.size else 0.0
    cutoff = s_max * max(m, n) * np.finfo(np.float64).eps
    nonzero = sigma > cutoff
    u_full[:, nonzero] = b[:, nonzero] / sigma[nonzero]
    u, s, vt = sort_svd(u_full, sigma, v.T)
    u, s, vt = u[:, :k], s[:k], vt[:k, :]
    zero_cols = np.linalg.norm(u, axis=0) < 0.5
    if np.any(zero_cols):
        u = _complete_orthonormal(u, zero_cols)
    return s, u, vt


def _complete_orthonormal(u: np.ndarray, zero_cols: np.ndarray) -> np.ndarray:
    """Fill the flagged columns of *u* with vectors orthonormal to the rest.

    The complement projector ``P = I - U_good U_goodᵀ`` has eigenvalues
    exactly 1 (on the orthogonal complement) and 0 (on span(U_good));
    its unit-eigenvalue eigenvectors are the completion basis.  The
    eigendecomposition runs on the library's own cyclic Jacobi solver —
    deterministic and immune to the rank-deficiency pitfalls of an
    unpivoted QR (whose basis can leak into span(U_good) when a column
    prefix of P is singular).
    """
    from repro.core.symeig import jacobi_eigh

    u = u.copy()
    m = u.shape[0]
    good = u[:, ~zero_cols]
    proj = np.eye(m) - good @ good.T
    w, vecs = jacobi_eigh(proj)
    # Eigenvalues ascending: the trailing ones are the (numerically
    # exact) unit eigenvalues spanning the complement.
    needed = int(np.sum(zero_cols))
    u[:, zero_cols] = vecs[:, m - needed :]
    return u
