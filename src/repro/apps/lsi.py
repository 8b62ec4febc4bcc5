"""Latent Semantic Indexing — the paper's stated future extension.

Section VII: "Our proposed framework will be extended to perform
principal component analysis for latent semantic indexing as the
future work."  This module builds that application end to end on the
Hestenes-Jacobi SVD: tokenization, vocabulary, a tf-idf term-document
matrix, truncated SVD into a latent space, folding-in of queries, and
cosine-similarity retrieval.  :class:`LsiIndex` implements the
:class:`repro.apps.base.LowRankSVD` protocol (uniform ``engine`` /
``engine_opts``), and :meth:`LsiIndex.add_documents`
routes new documents through the streaming merge-and-truncate core
(:class:`repro.stream.merge.StreamingMerger`) — the latent space
*rotates* to absorb them, unlike classic folding-in which froze it.

Everything is self-contained (no external NLP dependencies): the
tokenizer lower-cases, strips punctuation and drops a small stop list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.apps.base import LowRankSVD
from repro.util.validation import check_positive_int

__all__ = ["tokenize", "TermDocumentMatrix", "LsiIndex"]

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Minimal English stop list — enough to keep toy corpora meaningful.
STOP_WORDS = frozenset(
    "a an and are as at be by for from has have in is it its of on or "
    "that the this to was were will with".split()
)


def tokenize(text: str) -> list[str]:
    """Lower-case word tokens with stop words removed.

    >>> tokenize("The FPGA accelerates the SVD!")
    ['fpga', 'accelerates', 'svd']
    """
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in STOP_WORDS]


@dataclass
class TermDocumentMatrix:
    """A tf-idf weighted term-document matrix.

    Attributes
    ----------
    matrix : (n_terms, n_docs) ndarray
        tf-idf weights; columns are documents.
    vocabulary : dict[str, int]
        Term -> row index.
    documents : list[str]
        The raw documents, for reporting.
    idf : (n_terms,) ndarray
        The inverse-document-frequency weights fixed at build time
        (reused to weight later documents consistently).
    """

    matrix: np.ndarray
    vocabulary: dict
    documents: list
    idf: np.ndarray = field(default=None, repr=False)

    @classmethod
    def from_documents(cls, documents: list[str]) -> "TermDocumentMatrix":
        """Build the weighted matrix from raw document strings.

        Weighting: term frequency (raw count) x inverse document
        frequency ``log((1 + N) / (1 + df)) + 1`` (smoothed, so terms in
        every document still carry weight).
        """
        if not documents:
            raise ValueError("documents must be non-empty")
        tokenized = [tokenize(d) for d in documents]
        if all(len(t) == 0 for t in tokenized):
            raise ValueError("no tokens survived tokenization")
        vocabulary: dict[str, int] = {}
        for tokens in tokenized:
            for t in tokens:
                vocabulary.setdefault(t, len(vocabulary))
        n_terms = len(vocabulary)
        n_docs = len(documents)
        counts = np.zeros((n_terms, n_docs))
        for j, tokens in enumerate(tokenized):
            for t in tokens:
                counts[vocabulary[t], j] += 1.0
        df = np.count_nonzero(counts, axis=1)
        idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
        return cls(matrix=counts * idf[:, None], vocabulary=vocabulary,
                   documents=list(documents), idf=idf)

    def _idf(self) -> np.ndarray:
        if self.idf is not None:
            return self.idf
        return np.ones(len(self.vocabulary))

    def count_vector(self, text: str) -> np.ndarray:
        """Raw term counts of *text* in this vocabulary (unknown terms
        ignored — the vocabulary is fixed at build time)."""
        v = np.zeros(len(self.vocabulary))
        for t in tokenize(text):
            idx = self.vocabulary.get(t)
            if idx is not None:
                v[idx] += 1.0
        return v

    def weighted_columns(self, documents: list[str]) -> np.ndarray:
        """tf-idf columns for new documents under the frozen idf."""
        cols = np.stack([self.count_vector(d) for d in documents], axis=1)
        return cols * self._idf()[:, None]

    def query_vector(self, query: str) -> np.ndarray:
        """Embed a query string into term space (unknown terms ignored)."""
        return self.count_vector(query)


class LsiIndex(LowRankSVD):
    """A searchable latent semantic index.

    Parameters
    ----------
    rank : int
        Latent dimensions to keep (the truncation rank of the SVD).
    engine : str
        Inner dense engine (registry name or "golub_reinsch").
    engine_opts : mapping, optional
        Uniform solver options (``max_sweeps`` — default 12 — ``tol``,
        ``precision``, ...) plus engine-specific knobs.

    Examples
    --------
    >>> docs = [
    ...     "fpga hardware acceleration of matrix decomposition",
    ...     "hardware architectures for signal processing",
    ...     "gardening tips for tomato plants",
    ...     "growing tomato and basil plants in summer",
    ... ]
    >>> index = LsiIndex(rank=2).fit(docs)
    >>> hits = index.search("tomato gardening", top_k=2)
    >>> sorted(h[0] for h in hits)
    [2, 3]
    """

    def __init__(
        self,
        rank: int = 2,
        *,
        engine: str = "blocked",
        engine_opts=None,
    ) -> None:
        opts = dict(engine_opts) if engine_opts else {}
        if engine != "golub_reinsch":
            opts.setdefault("max_sweeps", 12)
        super().__init__(rank, engine=engine, engine_opts=opts)

    def fit(self, documents: list[str]) -> "LsiIndex":
        """Build the index: tf-idf matrix -> truncated SVD -> doc embeddings."""
        self.tdm = TermDocumentMatrix.from_documents(documents)
        a = self.tdm.matrix
        k_max = min(a.shape)
        if self.rank > k_max:
            raise ValueError(
                f"rank {self.rank} exceeds min(terms, docs) = {k_max}"
            )
        res = self._solver(a)
        k = self.rank
        self.term_space = res.u[:, :k]  # (n_terms, k)
        self.singular_values = res.s[:k]
        # Document embeddings: columns of Sigma_k Vᵀ_k, i.e. docs in
        # latent space.  Stored row-per-document.
        self.doc_embeddings = (res.vt[:k, :] * res.s[:k, None]).T
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "doc_embeddings"):
            raise RuntimeError("LsiIndex is not fitted; call fit() first")

    def embed_query(self, query: str) -> np.ndarray:
        """Fold a query into latent space: ``q_k = qᵀ U_k`` (Deerwester)."""
        self._check_fitted()
        q = self.tdm.query_vector(query)
        return q @ self.term_space

    def transform(self, documents: list[str]) -> np.ndarray:
        """Latent embeddings of new documents, one row each (fold-in)."""
        self._check_fitted()
        cols = self.tdm.weighted_columns(list(documents))
        return cols.T @ self.term_space

    def search(self, query: str, top_k: int = 3) -> list[tuple[int, float]]:
        """Return ``[(doc_index, cosine_similarity), ...]``, best first.

        Documents with zero embedding (or an empty-embedding query)
        score 0.
        """
        self._check_fitted()
        top_k = check_positive_int(top_k, name="top_k")
        return self.search_vector(self.tdm.query_vector(query), top_k=top_k)

    def search_vector(self, query_vec, top_k: int = 3) -> list[tuple[int, float]]:
        """:meth:`search` for a pre-built term-space query vector.

        This is the entry point ``task="lsi_query"`` serve requests
        use — the query crosses the serving layer as a vector, not a
        string.
        """
        self._check_fitted()
        top_k = check_positive_int(top_k, name="top_k")
        q = np.asarray(query_vec, dtype=float).reshape(-1) @ self.term_space
        qn = float(np.linalg.norm(q))
        sims = np.zeros(len(self.tdm.documents))
        if qn > 0.0:
            dn = np.linalg.norm(self.doc_embeddings, axis=1)
            ok = dn > 0
            sims[ok] = (self.doc_embeddings[ok] @ q) / (dn[ok] * qn)
        order = np.argsort(-sims)[:top_k]
        return [(int(i), float(sims[i])) for i in order]

    def query(self, q: str, top_k: int = 3) -> list[tuple[int, float]]:
        """Protocol verb: alias of :meth:`search`."""
        return self.search(q, top_k=top_k)

    def add_documents(self, documents: list[str]) -> "LsiIndex":
        """Absorb new documents through the streaming merge.

        The new tf-idf columns (frozen vocabulary and idf — terms
        unseen at fit time are ignored, as in classic folding-in) are
        compressed and merged with the current factorization by
        :class:`repro.stream.merge.StreamingMerger`, so the latent
        space *rotates* to account for them instead of being frozen.
        Queries afterwards agree with a from-scratch refit over the
        same vocabulary to the merge-truncation tolerance (pinned by a
        regression test); after substantial vocabulary drift a full
        :meth:`fit` is still the right tool.
        """
        self._check_fitted()
        if not documents:
            raise ValueError("documents must be non-empty")
        from repro.stream.merge import StreamingMerger

        new_cols = self.tdm.weighted_columns(list(documents))
        s = self.singular_values
        safe = np.where(s > 0, s, 1.0)
        # Recover V1ᵀ from the stored embeddings (rows are V·S).
        v1t = (self.doc_embeddings / safe).T
        merger = StreamingMerger(self.rank, self._solver, store_vt=True)
        merger.absorb_factorization(
            self.term_space, s, v1t, n_cols=len(self.tdm.documents)
        )
        merger.absorb_block(new_cols)
        self.term_space = merger.u_
        self.singular_values = merger.s_
        self.doc_embeddings = (merger.vt_ * merger.s_[:, None]).T
        self.tdm.matrix = np.hstack([self.tdm.matrix, new_cols])
        self.tdm.documents.extend(documents)
        return self

    def document_similarity(self, i: int, j: int) -> float:
        """Cosine similarity of two indexed documents in latent space."""
        self._check_fitted()
        a = self.doc_embeddings[i]
        b = self.doc_embeddings[j]
        denom = float(np.linalg.norm(a) * np.linalg.norm(b))
        if denom == 0.0:
            return 0.0
        return float(a @ b) / denom

    def explained_energy(self) -> float:
        """Fraction of the tf-idf matrix energy kept at this rank."""
        self._check_fitted()
        total = float(np.linalg.norm(self.tdm.matrix) ** 2)
        kept = float(np.sum(self.singular_values**2))
        return kept / total if total > 0 else 0.0
