"""Numeric helpers: convergence metrics, residuals, SVD canonicalization.

The paper measures convergence as the *mean absolute deviation from zero
of the covariances* (Figs 10-11).  For an n-column matrix the covariance
matrix is symmetric, so the metric averages over the strict upper
triangle.  We also provide the classical ``off(A)`` Frobenius metric used
in Jacobi-method literature, and helpers to put SVD factors in the
canonical (descending, non-negative) form for comparisons.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "sign",
    "mean_abs_off_diagonal",
    "frobenius_off_diagonal",
    "relative_off_diagonal",
    "relative_residual",
    "reconstruction_error",
    "orthogonality_error",
    "sort_svd",
    "singular_value_error",
]


def sign(x: float) -> float:
    """Hardware-style sign: the IEEE-754 sign bit, so never 0.

    Algorithm 1 line 12 divides by ``sign(rho)``; the FPGA datapath takes
    the sign bit of the double word, so ``+0.0 -> +1`` and
    ``-0.0 -> -1``.  A true ``numpy.sign`` would yield 0 and poison the
    rotation, and ignoring the sign of ``-0.0`` would make the textbook
    and dataflow formulations disagree when the two column norms are
    exactly equal (rho = -0.0 for negative covariance).
    """
    return math.copysign(1.0, x)


def mean_abs_off_diagonal(d: np.ndarray) -> float:
    """Mean absolute value of the strict upper-triangular entries of *d*.

    This is the paper's convergence metric (Figs 10-11): ``d`` is the
    column-covariance matrix and the metric measures how far the columns
    are from mutual orthogonality.  Returns 0.0 for 1x1 matrices.
    """
    d = np.asarray(d)
    n = d.shape[0]
    if n < 2:
        return 0.0
    iu = np.triu_indices(n, k=1)
    return float(np.mean(np.abs(d[iu])))


def _pow2_exponent(x: np.ndarray) -> int:
    """Exponent e with ``max|x| * 2**-e`` in [0.5, 1); 0 if none exists.

    Scaling by an exact power of two changes no mantissa bit, so sums
    of squares can be formed at unit scale — where they neither
    underflow nor overflow — and scaled back exactly.  All-zero or
    non-finite input keeps e = 0, so NaN/Inf still propagate.
    """
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    if peak == 0.0 or not math.isfinite(peak):
        return 0
    return math.frexp(peak)[1]


def frobenius_off_diagonal(d: np.ndarray) -> float:
    """``off(D)``: Frobenius norm of the strict upper triangle of *d*.

    The classical Jacobi-convergence quantity; each rotation reduces
    ``off(D)^2`` for a symmetric matrix by the square of the annihilated
    element (monotone convergence).  The squares are formed after an
    exact power-of-two rescale, so the value is correct for Gram
    entries anywhere in the float64 range.
    """
    d = np.asarray(d)
    n = d.shape[0]
    if n < 2:
        return 0.0
    off = d[np.triu_indices(n, k=1)]
    e = _pow2_exponent(off)
    off = np.ldexp(off, -e)
    return math.ldexp(float(np.sqrt(np.sum(off ** 2))), e)


def relative_off_diagonal(d: np.ndarray) -> float:
    """``off(D)`` scaled by the Frobenius norm of *d* (unitless, in [0, 1]).

    Both norms are taken of *d* rescaled by one exact power of two, so
    the ratio is the same at every input scale.
    """
    d = np.asarray(d)
    d = np.ldexp(d, -_pow2_exponent(d))
    denom = float(np.linalg.norm(d))
    if denom == 0.0:
        return 0.0
    return frobenius_off_diagonal(d) / denom


def relative_residual(a: np.ndarray, b: np.ndarray) -> float:
    """``||a - b||_F / max(||a||_F, tiny)`` — scale-free matrix distance."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(float(np.linalg.norm(a)), np.finfo(np.float64).tiny)
    return float(np.linalg.norm(a - b)) / denom


def reconstruction_error(
    a: np.ndarray, u: np.ndarray, s: np.ndarray, vt: np.ndarray
) -> float:
    """Relative error of the rank-len(s) reconstruction ``u @ diag(s) @ vt``."""
    approx = (u[:, : len(s)] * s) @ vt[: len(s), :]
    return relative_residual(a, approx)


def orthogonality_error(q: np.ndarray) -> float:
    """``||QᵀQ - I||_F`` for a matrix with orthonormal columns."""
    q = np.asarray(q, dtype=np.float64)
    k = q.shape[1]
    return float(np.linalg.norm(q.T @ q - np.eye(k)))


def sort_svd(
    u: np.ndarray | None, s: np.ndarray, vt: np.ndarray | None
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Canonicalize an SVD: singular values descending, all non-negative.

    Negative entries in *s* are sign-flipped into the corresponding
    column of *u* (or row of *vt* when *u* is None).  Factors may be
    ``None`` when the caller only computed singular values.
    """
    s = np.asarray(s, dtype=np.float64).copy()
    neg = s < 0
    if np.any(neg):
        s[neg] = -s[neg]
        if u is not None:
            u = u.copy()
            u[:, neg] = -u[:, neg]
        elif vt is not None:
            vt = vt.copy()
            vt[neg, :] = -vt[neg, :]
    order = np.argsort(s)[::-1]
    s = s[order]
    if u is not None:
        u = u[:, order]
    if vt is not None:
        vt = vt[order, :]
    return u, s, vt


def singular_value_error(s_ref: np.ndarray, s_test: np.ndarray) -> float:
    """Relative max-norm error between two descending singular spectra.

    Spectra are compared after sorting; the scale is the largest
    reference singular value, so the metric is meaningful even when the
    matrix is nearly rank-deficient.
    """
    s_ref = np.sort(np.abs(np.asarray(s_ref, dtype=np.float64)))[::-1]
    s_test = np.sort(np.abs(np.asarray(s_test, dtype=np.float64)))[::-1]
    k = min(len(s_ref), len(s_test))
    if k == 0:
        return 0.0
    denom = max(float(s_ref[0]), np.finfo(np.float64).tiny)
    return float(np.max(np.abs(s_ref[:k] - s_test[:k]))) / denom
