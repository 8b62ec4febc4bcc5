"""Unit tests for the round-parallel vectorized Hestenes engine.

Covers the pieces the differential suite builds on: round fusion,
schedule compilation, batched dot products, bitwise block_rounds
equivalence, flop accounting parity with the scalar reference loop,
and the engine's API contract (no input mutation, option validation).
"""

import numpy as np
import pytest

from repro.core.blocked import batch_rotation_params
from repro.core.convergence import ConvergenceCriterion
from repro.core.hestenes import FlopCounter, reference_svd
from repro.core.ordering import fuse_rounds, make_sweep
from repro.core.rotation import textbook_rotation
from repro.core.svd import hestenes_svd
from repro.core.vectorized import pair_dots, round_plan, vectorized_svd

from tests.conftest import assert_valid_svd, random_matrix


def _pairs_of(rounds):
    return [p for rnd in rounds for p in rnd]


# ---- fuse_rounds -------------------------------------------------------


def test_fuse_rounds_identity_at_one():
    rounds = make_sweep(8, "row")
    assert fuse_rounds(rounds, 1) == rounds


def test_fuse_rounds_preserves_pairs_and_order():
    rounds = make_sweep(9, "row")
    fused = fuse_rounds(rounds, 4)
    assert _pairs_of(fused) == _pairs_of(rounds)


@pytest.mark.parametrize("block_rounds", [2, 3, 8])
def test_fuse_rounds_keeps_rounds_disjoint(block_rounds):
    fused = fuse_rounds(make_sweep(10, "row"), block_rounds)
    for rnd in fused:
        flat = [i for p in rnd for i in p]
        assert len(flat) == len(set(flat)), rnd
        assert len(rnd) <= block_rounds


def test_fuse_rounds_noop_for_cyclic():
    # Every cyclic round touches all indices: nothing can fuse.
    rounds = make_sweep(8, "cyclic")
    assert fuse_rounds(rounds, 4) == rounds


def test_fuse_rounds_batches_row_ordering():
    # Row ordering emits one pair per round; fusion recovers width.
    rounds = make_sweep(8, "row")
    fused = fuse_rounds(rounds, 4)
    assert len(fused) < len(rounds)
    assert max(len(r) for r in fused) > 1


# ---- round_plan --------------------------------------------------------


@pytest.mark.parametrize("ordering", ["cyclic", "row"])
def test_round_plan_matches_sweep(ordering):
    plan = round_plan(8, ordering)
    rounds = make_sweep(8, ordering)
    planned = [
        (int(i), int(j))
        for idx_i, idx_j in plan
        for i, j in zip(idx_i, idx_j)
    ]
    assert planned == _pairs_of(rounds)
    for idx_i, idx_j in plan:
        assert idx_i.dtype == np.intp and idx_j.dtype == np.intp


def test_round_plan_fused_width():
    plan = round_plan(8, "row", block_rounds=4)
    assert max(len(idx_i) for idx_i, _ in plan) > 1


# ---- batched dots and rotation parameters ------------------------------


def test_pair_dots_matches_scalar_dots(rng):
    b = random_matrix(rng, 12, 8)
    idx_i = np.array([0, 2, 4])
    idx_j = np.array([1, 3, 5])
    norm_i, norm_j, cov = pair_dots(b, idx_i, idx_j)
    for k, (i, j) in enumerate(zip(idx_i, idx_j)):
        assert norm_i[k] == pytest.approx(b[:, i] @ b[:, i], rel=1e-14)
        assert norm_j[k] == pytest.approx(b[:, j] @ b[:, j], rel=1e-14)
        assert cov[k] == pytest.approx(b[:, i] @ b[:, j], rel=1e-14)


def test_batch_params_bitwise_equal_scalar(rng):
    # Identical norm/covariance inputs -> bitwise identical (c, s): the
    # batched textbook path evaluates the scalar formulas elementwise.
    norm_i = rng.random(16) + 0.5
    norm_j = rng.random(16) + 0.5
    cov = rng.standard_normal(16)
    c, s, t, active = batch_rotation_params(norm_i, norm_j, cov)
    for k in range(16):
        p = textbook_rotation(float(norm_i[k]), float(norm_j[k]), float(cov[k]))
        assert c[k] == p.cos and s[k] == p.sin


# ---- engine behaviour --------------------------------------------------


def test_vectorized_does_not_mutate_input(rng):
    for shape in [(12, 8), (1, 20), (20, 1), (8, 12)]:
        a = random_matrix(rng, *shape)
        a0 = a.copy()
        vectorized_svd(a)
        assert np.array_equal(a, a0), shape


def test_vectorized_valid_svd(rng):
    a = random_matrix(rng, 20, 12)
    assert_valid_svd(a, vectorized_svd(a))


def test_vectorized_values_only(rng):
    a = random_matrix(rng, 16, 10)
    res = vectorized_svd(a, compute_uv=False)
    assert res.u is None and res.vt is None
    assert np.allclose(res.s, np.linalg.svd(a, compute_uv=False))


def test_vectorized_dataflow_rotations(rng):
    a = random_matrix(rng, 14, 9)
    res = vectorized_svd(a, rotation_impl="dataflow")
    assert_valid_svd(a, res, rtol=1e-9)


@pytest.mark.parametrize("ordering", ["cyclic", "row", "random"])
def test_vectorized_orderings(rng, ordering):
    a = random_matrix(rng, 16, 8)
    res = vectorized_svd(a, ordering=ordering, seed=3)
    assert_valid_svd(a, res)


def test_block_rounds_bitwise_equivalent(rng):
    # Fused rounds are index-disjoint, so fusion must be *exactly*
    # equivalent — not merely close.
    a = random_matrix(rng, 16, 10)
    crit = ConvergenceCriterion(max_sweeps=8, tol=None)
    r1 = vectorized_svd(a, ordering="row", criterion=crit, block_rounds=1)
    r4 = vectorized_svd(a, ordering="row", criterion=crit, block_rounds=4)
    assert np.array_equal(r1.s, r4.s)
    assert np.array_equal(r1.u, r4.u)
    assert np.array_equal(r1.vt, r4.vt)
    assert r1.trace.rotations == r4.trace.rotations


def test_block_rounds_validation():
    with pytest.raises(ValueError):
        vectorized_svd(np.eye(4), block_rounds=0)


def test_hestenes_svd_dispatches_vectorized(rng):
    a = random_matrix(rng, 10, 6)
    res = hestenes_svd(a, method="vectorized", ordering="row",
                       engine_opts={"block_rounds": 2})
    assert res.method == "vectorized"
    assert_valid_svd(a, res)


# ---- parity with the scalar reference loop -----------------------------


def test_trace_parity_with_reference(rng):
    # Identical sweep schedule -> identical rotation/skip decisions.
    a = random_matrix(rng, 18, 12)
    crit = ConvergenceCriterion(max_sweeps=10, tol=None)
    ref = reference_svd(a, criterion=crit)
    vec = vectorized_svd(a, criterion=crit)
    assert vec.sweeps == ref.sweeps
    assert vec.trace.rotations == ref.trace.rotations
    assert vec.trace.skipped == ref.trace.skipped
    assert vec.converged == ref.converged


def test_flop_parity_with_reference(rng):
    a = random_matrix(rng, 18, 12)
    crit = ConvergenceCriterion(max_sweeps=6, tol=None)
    f_ref, f_vec = FlopCounter(), FlopCounter()
    reference_svd(a, compute_uv=False, criterion=crit, flops=f_ref)
    vectorized_svd(a, compute_uv=False, criterion=crit, flops=f_vec)
    assert f_vec.dot_products == f_ref.dot_products
    assert f_vec.dot_flops == f_ref.dot_flops
    assert f_vec.update_flops == f_ref.update_flops


def test_flop_counts_pinned_n8():
    # Regression pin: 2 cyclic sweeps over an 8x8 matrix are 2 * 28
    # pairs, each charging 3 dot products (6m flops) and — since no
    # pair is skipped this early — one 6m-flop column update.
    rng = np.random.default_rng(20140519)
    a = rng.standard_normal((8, 8))
    crit = ConvergenceCriterion(max_sweeps=2, tol=None)
    for engine in (reference_svd, vectorized_svd):
        flops = FlopCounter()
        engine(a, compute_uv=False, criterion=crit, flops=flops)
        assert flops.dot_products == 168
        assert flops.dot_flops == 2688
        assert flops.update_flops == 2688
        assert flops.total_flops == 5376
