"""Engine-wide property suite: every registered engine x ordering.

The invariants every Hestenes-family engine must satisfy on every
matrix class, independent of which decomposition it computes:

* singular values sorted descending and non-negative;
* U and Vᵀ orthonormal to the engine's documented tolerance — for the
  cached-Gram engines ("modified", "blocked") the columns of U paired
  with numerically zero singular values may be zero instead of
  completed, so orthonormality is asserted on the non-negligible
  columns;
* ``U @ diag(s) @ Vt`` reconstructs the input.

Matrix classes stress the documented failure modes: rectangular (tall
and wide), exactly rank-deficient, graded spectra with condition
numbers up to 1e12, and matrices containing an exactly zero row or
column.  Tolerances are per engine *class*: the column-space engines
("reference", "vectorized", "preconditioned") never square the
conditioning; the cached-Gram engines work on BᵀB-derived quantities
and get sqrt(eps)-class slack.  See docs/TESTING.md.
"""

import numpy as np
import pytest

from repro.core.svd import METHODS, hestenes_svd

from tests.conftest import SEED

#: Engines whose cached-Gram updates square the conditioning.
GRAM_CLASS = {"modified", "blocked"}

#: (method, ordering) grid: every registered engine under every pair
#: ordering it supports ("blocked" batches cyclic rounds only;
#: "preconditioned" runs direct Jacobi with a fixed schedule).
COMBOS = [
    (method, ordering)
    for method in ("reference", "modified", "vectorized")
    for ordering in ("cyclic", "row", "random")
] + [("blocked", "cyclic"), ("preconditioned", "cyclic")]

#: (method, ordering, precision) cells: the grid at fp64, plus the
#: vectorized mixed schedule under every ordering — it claims the fp64
#: accuracy class, so it owes the same invariants.
CELLS = [(method, ordering, "fp64") for method, ordering in COMBOS] + [
    ("vectorized", ordering, "mixed") for ordering in ("cyclic", "row", "random")
]


def _matrix(name: str) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    if name == "tall":
        return rng.standard_normal((40, 12))
    if name == "wide":
        return rng.standard_normal((12, 40))
    if name == "rank_deficient":
        return rng.standard_normal((24, 5)) @ rng.standard_normal((5, 16))
    if name.startswith("graded_"):
        cond = float(name.split("_")[1])
        m, n = 24, 10
        u, _ = np.linalg.qr(rng.standard_normal((m, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (u * np.geomspace(1.0, 1.0 / cond, n)) @ v.T
    if name == "zero_row":
        a = rng.standard_normal((14, 9))
        a[3, :] = 0.0
        return a
    if name == "zero_col":
        a = rng.standard_normal((14, 9))
        a[:, 4] = 0.0
        return a
    raise ValueError(name)


MATRICES = ["tall", "wide", "rank_deficient", "graded_1e6", "graded_1e12",
            "zero_row", "zero_col"]


def check_invariants(a, res, *, gram: bool) -> None:
    """Assert the engine-independent SVD contract on *res*."""
    m, n = a.shape
    k = min(m, n)
    s = res.s
    s_ref = np.linalg.svd(a, compute_uv=False)
    scale = max(float(s_ref[0]), np.finfo(float).tiny)

    assert s.shape == (k,)
    assert np.all(s >= 0.0)
    assert np.all(np.diff(s) <= 1e-9 * scale), "s not descending"

    sv_tol = 1e-7 if gram else 1e-10
    assert np.max(np.abs(s - s_ref)) / scale < sv_tol

    assert res.u.shape == (m, k)
    assert res.vt.shape == (k, n)
    # Gram engines may emit zero U columns for zero singular values
    # instead of completing the basis, and cannot orthogonalize left
    # vectors whose sigma sits below the eps*cond^2 discriminability of
    # the cached Gram entries — so their orthonormality is asserted on
    # the columns above that floor.
    col_norms = np.linalg.norm(res.u, axis=0)
    live = col_norms > 0.5
    assert np.all(live | (s < scale * 1e-10)), "dead U column with live sigma"
    if gram:
        live &= s >= scale * 1e-4
    u_live = res.u[:, live]
    gram_u = u_live.T @ u_live
    assert np.linalg.norm(gram_u - np.eye(int(live.sum()))) < 1e-8
    assert np.linalg.norm(res.vt @ res.vt.T - np.eye(k)) < 1e-8

    recon_tol = 1e-7 if gram else 1e-10
    recon = (res.u * s) @ res.vt
    denom = max(np.linalg.norm(a), np.finfo(float).tiny)
    assert np.linalg.norm(a - recon) / denom < recon_tol


@pytest.mark.parametrize("matrix_name", MATRICES)
@pytest.mark.parametrize(
    "method,ordering,precision", CELLS,
    ids=[f"{m}-{o}" if p == "fp64" else f"{m}-{p}-{o}" for m, o, p in CELLS])
def test_engine_invariants(method, ordering, precision, matrix_name):
    a = _matrix(matrix_name)
    res = hestenes_svd(a, method=method, ordering=ordering,
                       precision=precision, max_sweeps=20, seed=5)
    check_invariants(a, res, gram=method in GRAM_CLASS)


def test_combos_cover_every_registered_method():
    # The grid is defined by hand; fail loudly if the engine zoo grows
    # without this suite learning about the new method.
    assert {m for m, _ in COMBOS} == set(METHODS)


@pytest.mark.slow
@pytest.mark.parametrize("method", sorted(set(m for m, _ in COMBOS)))
def test_engine_invariants_large(method):
    # Bigger gaussian instance per engine; slow-marked (make test-all).
    rng = np.random.default_rng(SEED + 1)
    a = rng.standard_normal((120, 60))
    res = hestenes_svd(a, method=method, max_sweeps=20)
    check_invariants(a, res, gram=method in GRAM_CLASS)
