"""Principal Component Analysis on the Hestenes-Jacobi SVD backend.

The paper's framing: "SVD-based PCA has been used in many signal
processing applications such as image processing, computer vision,
pattern recognition and remote sensing" (Section I), and the planned
extension is "principal component analysis for latent semantic
indexing" (Section VII).  This module supplies the PCA layer on the
unified :class:`repro.apps.base.LowRankSVD` protocol: the SVD engine
is selectable among every registered Hestenes implementation and the
Golub-Reinsch baseline via the uniform ``engine`` / ``engine_opts``
vocabulary.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import LowRankSVD
from repro.util.validation import as_float_matrix

__all__ = ["PCA"]


class PCA(LowRankSVD):
    """Principal component analysis via singular value decomposition.

    Parameters
    ----------
    n_components : int, optional
        Components to keep; default all (min(n_samples, n_features)).
    engine : str
        SVD engine: any name registered in :mod:`repro.core.registry`
        ("blocked" — the default, the paper's algorithm — "modified",
        "reference", "vectorized", "preconditioned") or the
        "golub_reinsch" baseline.
    engine_opts : mapping, optional
        Uniform solver options (``max_sweeps`` — default 10, ``tol``,
        ``precision``, ...) plus engine-specific knobs, validated at
        construction.
    center : bool
        Subtract the feature means before decomposing (standard PCA).
    whiten : bool
        Scale transformed scores to unit variance per component
        (divide by ``s / sqrt(n_samples - 1)``); inverse_transform
        undoes the scaling.  Components with zero singular value map
        to zero scores rather than dividing by zero.

    Attributes (after :meth:`fit`)
    ------------------------------
    components_ : (n_components, n_features) ndarray
        Principal axes, ordered by explained variance.
    singular_values_ : (n_components,) ndarray
    explained_variance_ : (n_components,) ndarray
        Variance along each component, ``s^2 / (n_samples - 1)``.
    explained_variance_ratio_ : (n_components,) ndarray
    mean_ : (n_features,) ndarray
        Feature means (zeros when ``center=False``).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.apps.pca import PCA
    >>> rng = np.random.default_rng(0)
    >>> x = rng.standard_normal((50, 2)) @ np.array([[3.0, 0.0], [0.0, 0.2]])
    >>> pca = PCA(n_components=1).fit(x)
    >>> bool(pca.explained_variance_ratio_[0] > 0.9)
    True
    """

    def __init__(
        self,
        n_components: int | None = None,
        *,
        engine: str = "blocked",
        engine_opts=None,
        center: bool = True,
        whiten: bool = False,
    ) -> None:
        opts = dict(engine_opts) if engine_opts else {}
        if engine != "golub_reinsch":
            opts.setdefault("max_sweeps", 10)
        super().__init__(n_components, engine=engine, engine_opts=opts)
        self.center = center
        self.whiten = whiten

    @property
    def n_components(self) -> int | None:
        """Alias of :attr:`rank` in PCA vocabulary."""
        return self.rank

    # -- fitting ------------------------------------------------------------

    def fit(self, x) -> "PCA":
        """Fit on an (n_samples, n_features) data matrix."""
        x = as_float_matrix(x, name="x")
        n_samples, n_features = x.shape
        if n_samples < 2:
            raise ValueError("PCA needs at least 2 samples")
        k_max = min(n_samples, n_features)
        k = k_max if self.rank is None else self.rank
        if k > k_max:
            raise ValueError(
                f"n_components={k} exceeds min(n_samples, n_features)={k_max}"
            )
        self.mean_ = x.mean(axis=0) if self.center else np.zeros(n_features)
        centered = x - self.mean_
        res = self._solver(centered)
        self.components_ = res.vt[:k, :].copy()
        self.singular_values_ = res.s[:k].copy()
        self.explained_variance_ = res.s[:k] ** 2 / (n_samples - 1)
        total_var = float(np.sum(res.s**2)) / (n_samples - 1)
        self.explained_variance_ratio_ = (
            self.explained_variance_ / total_var if total_var > 0 else
            np.zeros_like(self.explained_variance_)
        )
        self.n_samples_ = n_samples
        self.n_features_ = n_features
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "components_"):
            raise RuntimeError("PCA instance is not fitted; call fit() first")

    # -- transforms ---------------------------------------------------------

    def transform(self, x) -> np.ndarray:
        """Project data onto the principal components (scores).

        With ``whiten=True`` the scores are additionally scaled to unit
        variance along each retained component.
        """
        self._check_fitted()
        x = as_float_matrix(x, name="x")
        if x.shape[1] != self.n_features_:
            raise ValueError(
                f"x has {x.shape[1]} features, PCA was fitted with {self.n_features_}"
            )
        scores = (x - self.mean_) @ self.components_.T
        if self.whiten:
            std = np.sqrt(self.explained_variance_)
            safe = np.where(std > 0, std, 1.0)
            scores = np.where(std > 0, scores / safe, 0.0)
        return scores

    def fit_transform(self, x) -> np.ndarray:
        return self.fit(x).transform(x)

    def inverse_transform(self, scores) -> np.ndarray:
        """Map component scores back to feature space (undoing whitening)."""
        self._check_fitted()
        scores = as_float_matrix(scores, name="scores")
        if scores.shape[1] != self.components_.shape[0]:
            raise ValueError(
                f"scores have {scores.shape[1]} columns, expected "
                f"{self.components_.shape[0]}"
            )
        if self.whiten:
            scores = scores * np.sqrt(self.explained_variance_)
        return scores @ self.components_ + self.mean_

    def reconstruction_error(self, x) -> float:
        """Relative Frobenius error of project-then-reconstruct on *x*."""
        x = as_float_matrix(x, name="x")
        recon = self.inverse_transform(self.transform(x))
        denom = max(float(np.linalg.norm(x - self.mean_)), np.finfo(float).tiny)
        return float(np.linalg.norm(x - recon)) / denom

    def __repr__(self) -> str:
        k = self.rank if self.rank is not None else "all"
        return f"PCA(n_components={k}, engine={self.engine!r})"
