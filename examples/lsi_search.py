#!/usr/bin/env python3
"""Latent semantic indexing — the paper's planned extension, working.

Section VII: "Our proposed framework will be extended to perform
principal component analysis for latent semantic indexing as the
future work."  This example builds an LSI search engine over a small
technical corpus using the Hestenes-Jacobi SVD, demonstrates semantic
retrieval beyond keyword matching, and shows what the accelerator's
timing model says about the indexing workload.

Run:  python examples/lsi_search.py
"""

from repro.apps import LsiIndex
from repro.hw import HestenesJacobiAccelerator

CORPUS = [
    "fpga accelerators exploit pipelined floating point arithmetic",
    "singular value decomposition factorizes a matrix into rotations",
    "jacobi rotations orthogonalize column pairs of a matrix",
    "systolic arrays map matrix algorithms onto processing elements",
    "hardware pipelines overlap computation with memory transfers",
    "convolutional networks classify images by learned features",
    "image classification benchmarks measure deep learning accuracy",
    "training neural networks requires gradient descent optimization",
    "gardening in raised beds improves soil drainage for vegetables",
    "tomato plants need staking and regular watering in summer heat",
    "compost enriches garden soil with slow release nutrients",
    "pruning fruit trees in winter encourages spring growth",
]

QUERIES = [
    "matrix factorization hardware",
    "deep learning for images",
    "growing vegetables in soil",
    "pipelined fpga computation",
]


def main() -> None:
    index = LsiIndex(rank=5, engine_opts={"max_sweeps": 12}).fit(CORPUS)
    print(f"indexed {len(CORPUS)} documents, "
          f"{len(index.tdm.vocabulary)} terms, latent rank {index.rank}")
    print(f"energy captured by the latent space: {index.explained_energy():.1%}\n")

    for query in QUERIES:
        print(f'query: "{query}"')
        for doc_id, score in index.search(query, top_k=3):
            print(f"  {score:5.2f}  [{doc_id:2d}] {CORPUS[doc_id]}")
        print()

    # Semantic effect: docs 1 and 2 share no content words with doc 3,
    # yet the latent space groups the linear-algebra/hardware cluster.
    pairs = [(1, 2), (1, 3), (1, 9)]
    print("latent document similarities (same topic > cross topic):")
    for i, j in pairs:
        print(f"  doc {i} vs doc {j}: {index.document_similarity(i, j):+.3f}")

    # What the indexing workload costs on the modelled accelerator:
    # term-document matrices are tall and thin — the sweet spot.
    n_terms = len(index.tdm.vocabulary)
    acc = HestenesJacobiAccelerator()
    t = acc.estimate_seconds(max(n_terms, 12), len(CORPUS))
    print(f"\nmodelled FPGA time to decompose this {n_terms}x{len(CORPUS)} "
          f"term-document matrix: {t * 1e6:.1f} us")
    big = acc.estimate_seconds(50_000, 2048)
    print(f"...and for a 50k-term x 2048-document corpus: {big:.2f} s")


if __name__ == "__main__":
    main()
