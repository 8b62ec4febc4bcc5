"""Tests for the PCA application."""

import numpy as np
import pytest

from repro.apps.pca import PCA
from repro.workloads import pca_dataset


class TestPcaFit:
    def test_matches_numpy_pca(self, rng):
        x = rng.standard_normal((60, 8))
        p = PCA().fit(x)
        xc = x - x.mean(axis=0)
        _, s, vt = np.linalg.svd(xc, full_matrices=False)
        assert np.allclose(p.singular_values_, s)
        # Components agree up to sign.
        dots = np.abs(np.sum(p.components_ * vt, axis=1))
        assert np.allclose(dots, 1.0, atol=1e-8)

    def test_explained_variance_ratio_sums_to_one(self, rng):
        x = rng.standard_normal((40, 6))
        p = PCA().fit(x)
        assert np.sum(p.explained_variance_ratio_) == pytest.approx(1.0)
        assert np.all(np.diff(p.explained_variance_) <= 1e-12)

    def test_truncation(self, rng):
        x = rng.standard_normal((30, 10))
        p = PCA(n_components=3).fit(x)
        assert p.components_.shape == (3, 10)
        assert p.singular_values_.shape == (3,)

    def test_recovers_dominant_subspace(self):
        data, truth = pca_dataset(400, 16, intrinsic_dim=3, noise=0.01, seed=1)
        p = PCA(n_components=3).fit(data)
        # Subspace overlap: every true component ~in span(components_).
        proj = truth @ p.components_.T  # 3x3
        sv = np.linalg.svd(proj, compute_uv=False)
        assert sv.min() > 0.99

    @pytest.mark.parametrize("backend", ["blocked", "modified", "reference", "golub_reinsch"])
    def test_backends_agree(self, rng, backend):
        x = rng.standard_normal((25, 6))
        p = PCA(engine=backend, engine_opts={"max_sweeps": 14}).fit(x)
        xc = x - x.mean(axis=0)
        s = np.linalg.svd(xc, compute_uv=False)
        assert np.allclose(p.singular_values_, s, atol=1e-8 * s[0])

    def test_no_centering(self, rng):
        x = rng.standard_normal((20, 5)) + 10.0
        p = PCA(center=False).fit(x)
        assert np.allclose(p.mean_, 0.0)
        assert np.allclose(p.singular_values_, np.linalg.svd(x, compute_uv=False))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            PCA(n_components=10).fit(rng.standard_normal((5, 4)))
        with pytest.raises(ValueError):
            PCA().fit(rng.standard_normal((1, 4)))
        with pytest.raises(ValueError):
            PCA(engine="magic")
        with pytest.raises(ValueError):
            PCA(n_components=0)


class TestPcaTransform:
    def test_roundtrip_full_rank(self, rng):
        x = rng.standard_normal((20, 5))
        p = PCA().fit(x)
        assert np.allclose(p.inverse_transform(p.transform(x)), x, atol=1e-8)
        assert p.reconstruction_error(x) < 1e-10

    def test_scores_are_decorrelated(self, rng):
        x = rng.standard_normal((200, 8))
        scores = PCA().fit_transform(x)
        cov = scores.T @ scores
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-6 * np.max(np.diag(cov))

    def test_truncated_reconstruction_error_positive(self):
        data, _ = pca_dataset(100, 12, intrinsic_dim=2, noise=0.1, seed=2)
        p = PCA(n_components=2).fit(data)
        err = p.reconstruction_error(data)
        assert 0 < err < 0.5

    def test_feature_mismatch_rejected(self, rng):
        p = PCA().fit(rng.standard_normal((10, 4)))
        with pytest.raises(ValueError):
            p.transform(rng.standard_normal((3, 5)))
        with pytest.raises(ValueError):
            p.inverse_transform(rng.standard_normal((3, 5)))

    def test_unfitted_raises(self, rng):
        with pytest.raises(RuntimeError):
            PCA().transform(rng.standard_normal((3, 3)))

    def test_repr(self):
        assert "n_components=2" in repr(PCA(n_components=2))


class TestWhitening:
    def test_unit_variance_scores(self, rng):
        x = rng.standard_normal((300, 6)) @ np.diag([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
        scores = PCA(whiten=True).fit_transform(x)
        variances = scores.var(axis=0, ddof=1)
        assert np.allclose(variances, 1.0, rtol=1e-8)

    def test_inverse_undoes_whitening(self, rng):
        x = rng.standard_normal((40, 5))
        p = PCA(whiten=True).fit(x)
        assert np.allclose(p.inverse_transform(p.transform(x)), x, atol=1e-8)

    def test_zero_variance_component_safe(self):
        # Rank-1 data: trailing components have zero singular values.
        x = np.outer(np.arange(10.0), np.ones(4))
        p = PCA(whiten=True).fit(x)
        scores = p.transform(x)
        assert np.all(np.isfinite(scores))
        assert np.allclose(scores[:, 1:], 0.0)

    def test_preconditioned_backend(self, rng):
        x = rng.standard_normal((30, 6))
        p = PCA(engine="preconditioned").fit(x)
        xc = x - x.mean(axis=0)
        assert np.allclose(p.singular_values_, np.linalg.svd(xc, compute_uv=False))
