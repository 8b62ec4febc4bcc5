"""Incremental (streaming) SVD for row-arriving data.

The surveillance and sensing workloads that motivate the paper receive
data over time — frames, snapshots, documents.  Brand's incremental
update maintains a rank-k factorization ``A ≈ U S Vᵀ`` and folds in a
block of new rows C with one small SVD of size (k + c):

    [A; C] = [[U, 0], [0, I]] @ [[S, 0], [L, Kᵀ]] @ [V W]ᵀ

where ``L = C V`` are the new rows' coefficients in the current basis,
``H = C - L Vᵀ`` the out-of-basis residual, and ``Hᵀ = W K`` its QR.
The small middle block is decomposed with the configured inner engine —
another "small-to-medium column dimension" inner problem of exactly the
shape the paper's accelerator targets.

This is the row-arriving special case; the column-block generalization
that runs out of core over :mod:`repro.stream.sources` lives in
:class:`repro.stream.merge.StreamingMerger`.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import LowRankSVD
from repro.util.validation import as_float_matrix

__all__ = ["IncrementalSVD"]


class IncrementalSVD(LowRankSVD):
    """Rank-k streaming SVD over row blocks.

    Parameters
    ----------
    rank : int
        Retained rank k.
    engine : str
        Inner dense engine (registry name or "golub_reinsch").
    engine_opts : mapping, optional
        Uniform solver options (``max_sweeps`` — default 12 — ``tol``,
        ``precision``, ...) plus engine-specific knobs.

    Attributes (after the first :meth:`partial_fit`)
    ------------------------------------------------
    u_ : (rows_seen, k') ndarray — left factor (k' <= rank).
    s_ : (k',) ndarray — singular values, descending.
    vt_ : (k', n_features) ndarray — right factor.
    rows_seen_ : int

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> inc = IncrementalSVD(rank=3)
    >>> for _ in range(4):
    ...     inc = inc.partial_fit(rng.standard_normal((10, 3)))
    >>> inc.rows_seen_
    40
    """

    def __init__(
        self,
        rank: int,
        *,
        engine: str = "blocked",
        engine_opts=None,
    ) -> None:
        opts = dict(engine_opts) if engine_opts else {}
        if engine != "golub_reinsch":
            opts.setdefault("max_sweeps", 12)
        super().__init__(rank, engine=engine, engine_opts=opts)
        self.rows_seen_ = 0

    @property
    def _fitted(self) -> bool:
        return self.rows_seen_ > 0

    def fit(self, rows) -> "IncrementalSVD":
        """Reset and fit on one block (then stream more via partial_fit)."""
        self.rows_seen_ = 0
        return self.partial_fit(rows)

    def partial_fit(self, rows) -> "IncrementalSVD":
        """Fold a block of rows into the factorization."""
        c = as_float_matrix(rows, name="rows")
        if not self._fitted:
            res = self._solver(c)
            k = min(self.rank, len(res.s))
            self.u_ = res.u[:, :k].copy()
            self.s_ = res.s[:k].copy()
            self.vt_ = res.vt[:k, :].copy()
            self.rows_seen_ = c.shape[0]
            return self
        if c.shape[1] != self.vt_.shape[1]:
            raise ValueError(
                f"rows have {c.shape[1]} features, model has {self.vt_.shape[1]}"
            )
        k = len(self.s_)
        n_new = c.shape[0]

        # Coefficients in the current basis + out-of-basis residual.
        l = c @ self.vt_.T  # (c, k)
        h = c - l @ self.vt_  # residual rows
        # Hᵀ = W K with W: (n, r) orthonormal; the residual spans at
        # most r = min(c, n) new directions.
        w, kq = np.linalg.qr(h.T)
        r = w.shape[1]
        # Middle block: [[S, 0], [L, Kᵀ]], size (k + c) x (k + r).
        top = np.hstack([np.diag(self.s_), np.zeros((k, r))])
        bottom = np.hstack([l, kq.T])
        middle = np.vstack([top, bottom])
        core = self._solver(middle)

        k_new = min(self.rank, len(core.s))
        # Rotate/extend the outer factors, then truncate.
        u_top = self.u_ @ core.u[:k, :k_new]
        u_bottom = core.u[k:, :k_new]
        self.u_ = np.vstack([u_top, u_bottom])
        self.s_ = core.s[:k_new].copy()
        v_ext = np.hstack([self.vt_.T, w])  # (n, k + c)
        self.vt_ = (v_ext @ core.vt[:k_new, :].T).T
        self.rows_seen_ += n_new
        return self

    def reconstruct(self) -> np.ndarray:
        """Current rank-k approximation of everything seen so far."""
        if not self._fitted:
            raise RuntimeError("partial_fit was never called")
        return (self.u_ * self.s_) @ self.vt_

    def transform(self, rows) -> np.ndarray:
        """Coefficients of new rows in the current right basis."""
        if not self._fitted:
            raise RuntimeError("partial_fit was never called")
        rows = as_float_matrix(rows, name="rows")
        return rows @ self.vt_.T

    # Historical name, kept as a working alias of :meth:`transform`.
    project = transform

    def __repr__(self) -> str:
        return (
            f"IncrementalSVD(rank={self.rank}, rows_seen={self.rows_seen_})"
        )
