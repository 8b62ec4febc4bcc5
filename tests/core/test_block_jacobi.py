"""Tests for the block one-sided Jacobi SVD."""

import numpy as np
import pytest

from repro.core.block_jacobi import block_jacobi_svd
from repro.core.convergence import ConvergenceCriterion
from repro.core.modified import modified_svd
from repro.obs import Tracer, use_tracer
from tests.conftest import assert_valid_svd, random_matrix


class TestBlockJacobiAccuracy:
    @pytest.mark.parametrize("shape,block", [
        ((16, 8), 2), ((20, 12), 4), ((15, 9), 3), ((12, 7), 4), ((10, 5), 8),
    ])
    def test_matches_numpy(self, rng, shape, block):
        a = random_matrix(rng, *shape)
        res = block_jacobi_svd(a, block=block)
        assert_valid_svd(a, res, rtol=1e-9)

    def test_block_one_degenerates_to_scalar(self, rng):
        a = random_matrix(rng, 12, 6)
        res = block_jacobi_svd(a, block=1, criterion=ConvergenceCriterion(max_sweeps=10))
        assert np.allclose(res.s, np.linalg.svd(a, compute_uv=False))

    def test_single_block_is_one_shot(self, rng):
        """block >= n: the whole matrix diagonalizes in one outer sweep
        (it is a single eigendecomposition of the full Gram)."""
        a = random_matrix(rng, 14, 6)
        res = block_jacobi_svd(a, block=6)
        assert res.sweeps <= 2
        assert np.allclose(res.s, np.linalg.svd(a, compute_uv=False))

    def test_values_only(self, rng):
        a = random_matrix(rng, 12, 8)
        res = block_jacobi_svd(a, block=4, compute_uv=False)
        assert res.u is None
        assert np.allclose(res.s, np.linalg.svd(a, compute_uv=False))

    def test_uneven_blocks(self, rng):
        # n = 10, block = 4 -> blocks of 4, 4, 2
        a = random_matrix(rng, 16, 10)
        res = block_jacobi_svd(a, block=4)
        assert_valid_svd(a, res, rtol=1e-9)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            block_jacobi_svd(random_matrix(rng, 6, 4), block=0)


class TestBlockConvergesFasterPerSweep:
    def test_fewer_outer_sweeps_than_scalar(self, rng):
        """The ablation claim: each block sweep performs more
        orthogonalization, so the off-diagonal metric after sweep 1 is
        far smaller than the scalar method's."""
        a = random_matrix(rng, 32, 16, kind="uniform")
        crit = ConvergenceCriterion(max_sweeps=4, tol=None)
        scalar = modified_svd(a, compute_uv=False, criterion=crit)
        blocked8 = block_jacobi_svd(a, block=8, compute_uv=False, criterion=crit)
        # compare the metric after the first sweep
        assert blocked8.trace.values[1] < scalar.trace.values[1]

    def test_trace_recorded(self, rng):
        a = random_matrix(rng, 12, 8)
        res = block_jacobi_svd(a, block=4)
        assert res.trace.values[-1] < 1e-8 * res.trace.values[0]


class TestBlockJacobiObservability:
    def test_standard_sweep_and_finalize_spans(self, rng):
        a = random_matrix(rng, 16, 10)
        tracer = Tracer()
        with use_tracer(tracer):
            res = block_jacobi_svd(a, block=4)
        sweeps = tracer.find("core.sweep")
        assert [sp.attrs["sweep"] for sp in sweeps] == list(
            range(1, res.sweeps + 1))
        assert {sp.attrs["method"] for sp in sweeps} == {"block_jacobi"}
        assert [sp.attrs["rotations"] for sp in sweeps] == res.trace.rotations[1:]
        assert len(tracer.find("core.finalize")) == 1

