"""Tests for Golub-Kahan-Lanczos bidiagonalization and partial SVD."""

import numpy as np
import pytest

from repro.baselines.lanczos import lanczos_bidiagonalization, lanczos_svd
from repro.workloads import conditioned_matrix, low_rank_matrix
from tests.conftest import random_matrix


class TestBidiagonalization:
    def test_krylov_identity(self, rng):
        a = random_matrix(rng, 30, 12)
        u, al, be, v = lanczos_bidiagonalization(a, 8, seed=1)
        b = np.diag(al) + np.diag(be, 1)
        assert np.linalg.norm(u.T @ a @ v - b) < 1e-12 * np.linalg.norm(a)

    def test_bases_orthonormal(self, rng):
        a = random_matrix(rng, 25, 15)
        u, _, _, v = lanczos_bidiagonalization(a, 10, seed=2)
        assert np.linalg.norm(u.T @ u - np.eye(10)) < 1e-12
        assert np.linalg.norm(v.T @ v - np.eye(10)) < 1e-12

    def test_full_steps_capture_spectrum(self, rng):
        a = random_matrix(rng, 20, 9)
        _, al, be, _ = lanczos_bidiagonalization(a, 9, seed=3)
        b = np.diag(al) + np.diag(be, 1)
        assert np.allclose(
            np.linalg.svd(b, compute_uv=False),
            np.linalg.svd(a, compute_uv=False),
            atol=1e-10,
        )

    def test_reorthogonalization_matters(self):
        """Without reorthogonalization, finite precision re-admits
        converged Ritz directions: the Krylov basis loses orthogonality
        on strongly graded spectra — the classic Lanczos failure."""
        a = conditioned_matrix(120, 60, cond=1e10, seed=4)
        u_no, _, _, _ = lanczos_bidiagonalization(
            a, 40, seed=5, reorthogonalize=False
        )
        u_yes, _, _, _ = lanczos_bidiagonalization(
            a, 40, seed=5, reorthogonalize=True
        )
        loss_no = np.linalg.norm(u_no.T @ u_no - np.eye(40))
        loss_yes = np.linalg.norm(u_yes.T @ u_yes - np.eye(40))
        assert loss_yes < 1e-10
        assert loss_no > 1e3 * loss_yes

    def test_breakdown_on_low_rank(self):
        """Exact invariant subspace: the process restarts gracefully and
        the produced factorization still holds."""
        a = low_rank_matrix(20, 10, rank=2, seed=6)
        u, al, be, v = lanczos_bidiagonalization(a, 6, seed=7)
        b = np.diag(al) + np.diag(be, 1)
        assert np.linalg.norm(u.T @ a @ v - b) < 1e-10 * np.linalg.norm(a)

    def test_steps_validation(self, rng):
        a = random_matrix(rng, 6, 4)
        with pytest.raises(ValueError):
            lanczos_bidiagonalization(a, 5)
        with pytest.raises(ValueError):
            lanczos_bidiagonalization(a, 0)


class TestLanczosSvd:
    def test_full_rank_exact(self, rng):
        a = random_matrix(rng, 18, 8)
        res = lanczos_svd(a, 8, extra_steps=0, seed=8)
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(res.s, sv, atol=1e-10 * sv[0])
        assert np.linalg.norm(res.reconstruct() - a) < 1e-9 * np.linalg.norm(a)

    def test_partial_top_k_accurate(self):
        a = conditioned_matrix(100, 60, cond=1e6, seed=9)
        res = lanczos_svd(a, 5, extra_steps=10, seed=10)
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(res.s - sv[:5])) < 1e-10 * sv[0]

    def test_factors_orthonormal(self, rng):
        a = random_matrix(rng, 40, 20)
        res = lanczos_svd(a, 6, seed=11)
        assert np.linalg.norm(res.u.T @ res.u - np.eye(6)) < 1e-10
        assert np.linalg.norm(res.vt @ res.vt.T - np.eye(6)) < 1e-10

    def test_matches_hestenes_truncation(self, rng):
        from repro.apps.truncated import truncated_svd

        a = conditioned_matrix(50, 25, cond=1e4, seed=12)
        k = 4
        lz = lanczos_svd(a, k, extra_steps=12, seed=13)
        hj = truncated_svd(a, k, engine_opts={"max_sweeps": 14})
        assert np.allclose(lz.s, hj.s, rtol=1e-9)

    def test_low_rank_exact(self):
        a = low_rank_matrix(50, 40, rank=4, seed=14)
        res = lanczos_svd(a, 4, extra_steps=6, seed=15)
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(res.s - sv[:4])) < 1e-10 * sv[0]

    def test_k_validation(self, rng):
        with pytest.raises(ValueError):
            lanczos_svd(random_matrix(rng, 6, 4), 5)


class TestEnginePlumbing:
    """The unified ``engine`` / ``engine_opts`` pair selects the dense
    kernel that decomposes the small bidiagonal; ``engine=None`` keeps
    the legacy QR-iteration path bit-for-bit."""

    def test_engine_none_is_legacy_path(self, rng):
        a = random_matrix(rng, 20, 10)
        res = lanczos_svd(a, 4, seed=20)
        assert res.method == "lanczos"

    def test_registry_engine_matches_legacy_values(self):
        a = conditioned_matrix(60, 30, cond=1e5, seed=21)
        legacy = lanczos_svd(a, 5, extra_steps=10, seed=22)
        jac = lanczos_svd(a, 5, extra_steps=10, seed=22, engine="blocked")
        assert jac.method == "lanczos-blocked"
        assert np.allclose(jac.s, legacy.s, rtol=1e-10)
        ref = np.linalg.svd(a, compute_uv=False)[:5]
        assert np.allclose(jac.s, ref, rtol=1e-9)

    def test_engine_opts_reach_inner_kernel(self, rng):
        a = random_matrix(rng, 24, 12)
        res = lanczos_svd(a, 3, seed=23, engine="vectorized",
                          engine_opts={"max_sweeps": 10})
        assert res.method == "lanczos-vectorized"
        ref = np.linalg.svd(a, compute_uv=False)[:3]
        assert np.allclose(res.s, ref, rtol=1e-8)

    def test_golub_reinsch_engine(self, rng):
        a = random_matrix(rng, 18, 9)
        res = lanczos_svd(a, 4, seed=24, engine="golub_reinsch")
        assert res.method == "lanczos-golub_reinsch"
        ref = np.linalg.svd(a, compute_uv=False)[:4]
        assert np.allclose(res.s, ref, rtol=1e-8)

    def test_bad_engine_opts_rejected(self, rng):
        a = random_matrix(rng, 10, 6)
        with pytest.raises(ValueError):
            lanczos_svd(a, 2, engine="blocked",
                        engine_opts={"block_rounds": 2})
