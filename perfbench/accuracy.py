"""Accuracy checks of every answer against LAPACK (``np.linalg.svd``).

An answer passes only on these checks; the library's own ``status``
and ``health`` fields are not consulted.  Norms are taken on inputs
divided by their largest entry, so matrices scaled near the ends of
the float64 range are judged without overflow in the checker itself.
"""

from __future__ import annotations

import time

import numpy as np

# Relative singular-value error, max_i |s_i - s_ref_i| / s_ref_0, and
# relative reconstruction residual ||A - U S Vt||_F / ||A||_F, for a
# full decomposition run to the relative off-diagonal tolerance 1e-12.
# fp64 and mixed runs land near 1e-14; 1e-10 leaves four decades.
VALUES_BOUND = 1e-10
RESIDUAL_BOUND = 1e-10
# Truncated streaming answer: top-k values relative to LAPACK's, and
# the residual against the optimal rank-k residual (Eckart-Young).
TOPK_VALUES_BOUND = 1e-3
TOPK_RESIDUAL_SLACK = 1e-3


def lapack_svd(a: np.ndarray, *, reps: int = 5):
    """LAPACK reference ``(u, s, vt)`` and its median time over *reps*."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        times.append(time.perf_counter() - start)
    return (u, s, vt), float(np.median(times))


def _finite(*arrays) -> bool:
    return all(x is not None and np.all(np.isfinite(x)) for x in arrays)


def residual(a, u, s, vt) -> float:
    """``||A - U diag(s) Vt||_F / ||A||_F`` computed scale-safely."""
    c = float(np.max(np.abs(a)))
    if c == 0.0:
        return 0.0
    a_n = a / c
    rebuilt = (u * (s / c)) @ vt
    return float(np.linalg.norm(a_n - rebuilt) / np.linalg.norm(a_n))


def check_full(a, result, s_ref) -> str | None:
    """Why a full SVD answer fails, or ``None`` when it passes.

    *result* needs ``s``, ``u`` and ``vt`` attributes (an ``SVDResult``).
    """
    s = np.asarray(result.s, dtype=float)
    if s.shape != s_ref.shape:
        return f"{s.shape[0]} singular values, expected {s_ref.shape[0]}"
    if not _finite(s, result.u, result.vt):
        return "non-finite or missing factors"
    top = s_ref[0] if s_ref[0] > 0 else 1.0
    err = float(np.max(np.abs(s - s_ref)) / top)
    if not err <= VALUES_BOUND:
        return f"singular-value error {err:.2e} > {VALUES_BOUND:.0e}"
    res = residual(a, result.u, s, result.vt)
    if not res <= RESIDUAL_BOUND:
        return f"reconstruction residual {res:.2e} > {RESIDUAL_BOUND:.0e}"
    return None


def check_topk(a, result, s_ref, k: int) -> str | None:
    """Why a rank-*k* truncated answer fails, or ``None`` when it passes."""
    s = np.asarray(result.s, dtype=float)
    if s.shape[0] != k:
        return f"rank {s.shape[0]}, expected {k}"
    if not _finite(s, result.u, result.vt):
        return "non-finite or missing factors"
    err = float(np.max(np.abs(s - s_ref[:k]) / s_ref[:k]))
    if not err <= TOPK_VALUES_BOUND:
        return f"top-{k} value error {err:.2e} > {TOPK_VALUES_BOUND:.0e}"
    optimal = float(np.sqrt(np.sum(s_ref[k:] ** 2)) / np.sqrt(np.sum(s_ref ** 2)))
    res = residual(a, result.u, s, result.vt)
    if not res <= optimal * (1 + TOPK_RESIDUAL_SLACK):
        return f"rank-{k} residual {res:.3e} > optimal {optimal:.3e}"
    return None
