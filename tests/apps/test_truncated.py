"""Tests for truncated and randomized SVD."""

import numpy as np
import pytest

from repro.apps.truncated import randomized_svd, truncated_svd
from repro.workloads import conditioned_matrix, low_rank_matrix
from tests.conftest import random_matrix


class TestTruncatedSvd:
    def test_matches_numpy_topk(self, rng):
        a = random_matrix(rng, 20, 12)
        res = truncated_svd(a, 4, engine_opts={"max_sweeps": 12})
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(res.s, s[:4])
        best = (u[:, :4] * s[:4]) @ vt[:4]
        assert np.allclose(res.reconstruct(), best, atol=1e-8)

    def test_factor_shapes(self, rng):
        a = random_matrix(rng, 15, 9)
        res = truncated_svd(a, 3)
        assert res.u.shape == (15, 3)
        assert res.vt.shape == (3, 9)
        assert res.s.shape == (3,)

    def test_k_validation(self, rng):
        with pytest.raises(ValueError):
            truncated_svd(random_matrix(rng, 6, 4), 5)
        with pytest.raises(ValueError):
            truncated_svd(random_matrix(rng, 6, 4), 0)


class TestRandomizedSvd:
    def test_exact_on_low_rank(self, rng):
        """With exact rank-k input, the sketch captures the range
        perfectly and the result matches the exact SVD."""
        a = low_rank_matrix(60, 40, rank=5, seed=1)
        res = randomized_svd(a, 5, seed=2)
        s_ref = np.linalg.svd(a, compute_uv=False)[:5]
        assert np.allclose(res.s, s_ref, rtol=1e-8)
        assert np.linalg.norm(res.reconstruct() - a) < 1e-8 * np.linalg.norm(a)

    def test_near_optimal_on_decaying_spectrum(self):
        a = conditioned_matrix(80, 50, cond=1e4, seed=3)
        k = 10
        res = randomized_svd(a, k, power_iterations=3, seed=4)
        s_full = np.linalg.svd(a, compute_uv=False)
        optimal = np.sqrt(np.sum(s_full[k:] ** 2))  # Eckart-Young error
        err = np.linalg.norm(a - res.reconstruct())
        assert err < 1.5 * optimal + 1e-12

    def test_power_iterations_help_flat_spectra(self, rng):
        a = random_matrix(rng, 60, 60)  # flat spectrum: hard case
        k = 5
        res0 = randomized_svd(a, k, power_iterations=0, seed=5)
        res3 = randomized_svd(a, k, power_iterations=4, seed=5)
        s_true = np.linalg.svd(a, compute_uv=False)[:k]
        err0 = np.max(np.abs(res0.s - s_true))
        err3 = np.max(np.abs(res3.s - s_true))
        assert err3 < err0

    def test_orthonormal_factors(self, rng):
        a = random_matrix(rng, 30, 20)
        res = randomized_svd(a, 6, seed=6)
        assert np.linalg.norm(res.u.T @ res.u - np.eye(6)) < 1e-10
        assert np.linalg.norm(res.vt @ res.vt.T - np.eye(6)) < 1e-10

    def test_reproducible_with_seed(self, rng):
        a = random_matrix(rng, 25, 15)
        r1 = randomized_svd(a, 4, seed=7)
        r2 = randomized_svd(a, 4, seed=7)
        assert np.array_equal(r1.s, r2.s)

    def test_sketch_capped_at_min_dim(self, rng):
        a = random_matrix(rng, 12, 6)
        res = randomized_svd(a, 6, oversample=50, seed=8)
        assert len(res.s) == 6
        assert np.allclose(res.s, np.linalg.svd(a, compute_uv=False), rtol=1e-8)

    def test_validation(self, rng):
        a = random_matrix(rng, 8, 6)
        with pytest.raises(ValueError):
            randomized_svd(a, 7)
        with pytest.raises(TypeError):
            randomized_svd(a, 2, oversample=1.5)
