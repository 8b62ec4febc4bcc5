"""The LowRankSVD protocol: engine vocabulary, solver factory, shims."""

import numpy as np
import pytest

from repro.apps import IncrementalSVD, LsiIndex, PCA, randomized_svd, truncated_svd
from repro.apps.base import (
    GOLUB_REINSCH,
    LowRankSVD,
    low_rank_engine_names,
    make_solver,
    split_engine_opts,
)
from repro.core.registry import engine_names
from repro.core.svd import hestenes_svd
from tests.conftest import random_matrix

DOCS = [
    "fpga hardware acceleration of matrix decomposition",
    "hardware architectures for fast signal processing",
    "matrix decomposition with jacobi rotations on hardware",
    "gardening tips for tomato plants",
    "growing tomato and basil plants in summer",
]


class TestSplitEngineOpts:
    def test_uniform_and_specific_separated(self):
        uniform, specific = split_engine_opts(
            "vectorized", {"max_sweeps": 9, "tol": 1e-12, "block_rounds": 2}
        )
        assert uniform == {"max_sweeps": 9, "tol": 1e-12}
        assert specific == {"block_rounds": 2}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            split_engine_opts("nope", {})

    def test_engine_specific_opt_validated_eagerly(self):
        with pytest.raises(ValueError):
            split_engine_opts("blocked", {"block_rounds": 2})  # vectorized-only

    def test_precision_needs_supporting_engine(self):
        with pytest.raises(ValueError, match="precision"):
            split_engine_opts("blocked", {"precision": "mixed"})
        uniform, _ = split_engine_opts("vectorized", {"precision": "mixed"})
        assert uniform["precision"] == "mixed"

    def test_golub_reinsch_rejects_iterative_options(self):
        with pytest.raises(ValueError, match="direct"):
            split_engine_opts(GOLUB_REINSCH, {"tol": 1e-10})
        with pytest.raises(ValueError, match="engine-specific"):
            split_engine_opts(GOLUB_REINSCH, {"block_rounds": 2})
        # seed/max_sweeps are accepted (and unused) for uniform call sites.
        uniform, specific = split_engine_opts(GOLUB_REINSCH, {"max_sweeps": 5})
        assert specific == {}

    def test_non_mapping_rejected(self):
        with pytest.raises(TypeError):
            split_engine_opts("blocked", 7)

    def test_engine_name_listing(self):
        names = low_rank_engine_names()
        assert GOLUB_REINSCH in names
        assert set(engine_names()) <= set(names)


class TestMakeSolver:
    def test_registry_solver_matches_hestenes(self, rng):
        a = random_matrix(rng, 12, 8)
        solve = make_solver("modified", {"max_sweeps": 8})
        direct = hestenes_svd(a, method="modified", max_sweeps=8)
        res = solve(a)
        assert np.array_equal(res.s, direct.s)
        assert solve.engine == "modified"

    def test_golub_reinsch_solver(self, rng):
        from repro.baselines.gkr_svd import golub_reinsch_svd

        a = random_matrix(rng, 10, 6)
        res = make_solver(GOLUB_REINSCH)(a)
        assert np.array_equal(res.s, golub_reinsch_svd(a).s)

    def test_compute_uv_false(self, rng):
        a = random_matrix(rng, 8, 5)
        res = make_solver("blocked")(a, compute_uv=False)
        assert res.u is None and res.vt is None
        assert len(res.s) == 5


class TestProtocolCompliance:
    ESTIMATOR_FACTORIES = [
        lambda: PCA(n_components=2),
        lambda: IncrementalSVD(rank=2),
        lambda: LsiIndex(rank=2),
    ]

    def test_all_estimators_are_low_rank_svd(self):
        from repro.stream import StreamSVD

        for factory in self.ESTIMATOR_FACTORIES:
            assert isinstance(factory(), LowRankSVD)
        assert isinstance(StreamSVD(rank=2), LowRankSVD)

    def test_uniform_constructor_vocabulary(self):
        for factory in self.ESTIMATOR_FACTORIES:
            est = factory()
            cls = type(est)
            other = cls(2, engine="modified",
                        engine_opts={"max_sweeps": 7})
            assert other.engine == "modified"
            assert other.engine_opts["max_sweeps"] == 7

    def test_invalid_engine_opts_fail_at_construction(self):
        for factory in [lambda: PCA(2, engine_opts={"block_rounds": 1}),
                        lambda: IncrementalSVD(2, engine_opts={"bogus": 1}),
                        lambda: LsiIndex(2, engine_opts={"precision": "fp16"})]:
            with pytest.raises(ValueError):
                factory()

    def test_partial_fit_default_raises(self, rng):
        with pytest.raises(NotImplementedError):
            PCA(2).partial_fit(random_matrix(rng, 4, 3))

    def test_query_default_raises(self):
        with pytest.raises(NotImplementedError):
            PCA(2).query("anything")

    def test_lsi_query_verb_is_search(self):
        index = LsiIndex(rank=2).fit(DOCS)
        assert index.query("tomato gardening", top_k=2) == index.search(
            "tomato gardening", top_k=2)

    def test_repr_shows_engine(self):
        assert "modified" in repr(PCA(3, engine="modified"))
        assert "modified" in repr(LsiIndex(rank=3, engine="modified"))


class TestDeprecationShims:
    """The removed PR 9 keyword spellings now fail loudly; the unified
    spelling emits no warning."""

    @pytest.mark.parametrize("call", [
        lambda a: truncated_svd(a, 3, method="modified"),
        lambda a: truncated_svd(a, 3, max_sweeps=8),
        lambda a: randomized_svd(a, 3, max_sweeps=9),
        lambda a: PCA(2, backend="modified"),
        lambda a: PCA(2, max_sweeps=8),
        lambda a: IncrementalSVD(3, max_sweeps=9),
        lambda a: LsiIndex(rank=2, max_sweeps=9),
    ], ids=["truncated-method", "truncated-max_sweeps",
            "randomized-max_sweeps", "pca-backend", "pca-max_sweeps",
            "incremental-max_sweeps", "lsi-max_sweeps"])
    def test_removed_keywords_raise_type_error(self, rng, call):
        with pytest.raises(TypeError, match="unexpected keyword"):
            call(random_matrix(rng, 14, 9))

    def test_new_spelling_warns_nothing(self, rng):
        import warnings

        a = random_matrix(rng, 10, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            truncated_svd(a, 2, engine="modified")
            PCA(2).fit(a)
            IncrementalSVD(2).fit(a)


class TestDefaultSweepBudgetsPreserved:
    """The ports must not change numerics: historical defaults
    (truncated/PCA 10 sweeps, incremental/LSI 12) survive the
    redesign."""

    def test_truncated_default_matches_ten_sweeps(self, rng):
        a = random_matrix(rng, 12, 8)
        res = truncated_svd(a, 3)
        pinned = hestenes_svd(a, method="blocked", max_sweeps=10)
        assert np.array_equal(res.s, pinned.s[:3])

    def test_lsi_default_matches_twelve_sweeps(self):
        index = LsiIndex(rank=2).fit(DOCS)
        a = index.tdm.matrix
        pinned = hestenes_svd(a, method="blocked", max_sweeps=12)
        assert np.array_equal(index.singular_values, pinned.s[:2])

    def test_explicit_engine_opts_override_default(self, rng):
        a = random_matrix(rng, 12, 8)
        res = truncated_svd(a, 3, engine_opts={"max_sweeps": 2})
        pinned = hestenes_svd(a, method="blocked", max_sweeps=2)
        assert np.array_equal(res.s, pinned.s[:3])
