"""Truncated and randomized SVD on the Hestenes-Jacobi engine.

The paper's motivating applications rarely need the full decomposition:
the video-surveillance anecdote of Section I runs *partial* SVD, and
PCA/LSI keep a handful of components.  Two routes are provided:

* :func:`truncated_svd` — exact: full decomposition, keep k.
* :func:`randomized_svd` — the Halko-Martinsson-Tropp randomized range
  finder: project onto a (k + oversample)-dimensional sketch, decompose
  the small core with the Hestenes-Jacobi engine, and lift back.  This
  turns one m x n problem into one m x (k+p) multiply plus an SVD of a
  (k+p)-column matrix — exactly the "small-to-medium column dimension"
  shape the paper's accelerator is fastest at, which is why randomized
  sketching is the natural host-side partner for this hardware.

Both take the unified low-rank vocabulary of :mod:`repro.apps.base`:
``engine`` (any registry name, or ``"golub_reinsch"``) and
``engine_opts`` (uniform solver options like ``max_sweeps`` plus
engine-specific knobs, ``precision`` included).  For inputs too large
for memory, the same algorithms run out of core in
:mod:`repro.stream.drivers`.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import make_solver
from repro.core.result import SVDResult
from repro.util.rng import default_rng
from repro.util.validation import as_float_matrix, check_nonnegative_int, check_positive_int

__all__ = ["truncated_svd", "randomized_svd"]


def _resolve(engine: str, engine_opts):
    """Build the inner solver; ``max_sweeps`` defaults to 10."""
    return make_solver(engine, {"max_sweeps": 10, **(engine_opts or {})})


def truncated_svd(
    a,
    k: int,
    *,
    engine: str = "blocked",
    engine_opts=None,
) -> SVDResult:
    """Exact rank-k truncation: decompose fully, keep the top k triples."""
    a = as_float_matrix(a, name="a")
    k = check_positive_int(k, name="k")
    if k > min(a.shape):
        raise ValueError(f"k={k} exceeds min(m, n)={min(a.shape)}")
    solve = _resolve(engine, engine_opts)
    res = solve(a)
    return SVDResult(
        s=res.s[:k].copy(),
        u=res.u[:, :k].copy(),
        vt=res.vt[:k, :].copy(),
        sweeps=res.sweeps,
        trace=res.trace,
        method=f"truncated-{res.method}",
        converged=res.converged,
        precision=res.precision,
        fp32_sweeps=res.fp32_sweeps,
    )


def randomized_svd(
    a,
    k: int,
    *,
    oversample: int = 8,
    power_iterations: int = 2,
    seed=None,
    engine: str = "blocked",
    engine_opts=None,
) -> SVDResult:
    """Approximate rank-k SVD via the randomized range finder.

    Parameters
    ----------
    a : array_like
        Input m x n matrix.
    k : int
        Target rank.
    oversample : int
        Extra sketch columns p; the classic accuracy knob (k + p total).
    power_iterations : int
        Subspace ("power") iterations ``(A Aᵀ)^q A Omega`` — sharpens
        the sketch when the spectrum decays slowly.  Each iteration is
        re-orthonormalized for stability.
    seed
        Randomness for the Gaussian test matrix.
    engine, engine_opts
        Inner dense kernel for the small core, resolved through
        :func:`repro.apps.base.make_solver` (registry engines plus
        ``"golub_reinsch"``; ``engine_opts`` carries ``max_sweeps``,
        ``precision``, ...).

    Returns
    -------
    SVDResult
        Rank-k factors; ``method="randomized-<inner>"``.

    Notes
    -----
    With a spectrum gap after k, the expected error is within a small
    factor of the optimal ``sigma_{k+1}`` (Halko et al., 2011, Thm 10.6);
    the tests check both the low-rank-recovery and the slowly-decaying
    regimes.
    """
    a = as_float_matrix(a, name="a")
    k = check_positive_int(k, name="k")
    oversample = check_nonnegative_int(oversample, name="oversample")
    power_iterations = check_nonnegative_int(power_iterations, name="power_iterations")
    m, n = a.shape
    if k > min(m, n):
        raise ValueError(f"k={k} exceeds min(m, n)={min(m, n)}")
    solve = _resolve(engine, engine_opts)
    sketch = min(k + oversample, min(m, n))
    rng = default_rng(seed)

    # Stage A: find an orthonormal basis Q of the (approximate) range.
    omega = rng.standard_normal((n, sketch))
    y = a @ omega
    q, _ = np.linalg.qr(y)
    for _ in range(power_iterations):
        z, _ = np.linalg.qr(a.T @ q)
        q, _ = np.linalg.qr(a @ z)

    # Stage B: decompose the small core B = Qᵀ A (sketch x n, i.e. a
    # wide matrix with few rows — `sketch` columns after transposition,
    # the accelerator-friendly shape).
    b = q.T @ a
    core = solve(b)
    u = q @ core.u
    return SVDResult(
        s=core.s[:k].copy(),
        u=u[:, :k].copy(),
        vt=core.vt[:k, :].copy(),
        sweeps=core.sweeps,
        trace=core.trace,
        method=f"randomized-{core.method}",
        converged=core.converged,
        precision=core.precision,
        fp32_sweeps=core.fp32_sweeps,
    )
