"""EngineSpec registry: lookup, validation, engine_opts, legacy shim."""


import numpy as np
import pytest

from repro.core.registry import (
    METHODS,
    EngineSpec,
    engine_names,
    register_engine,
    resolve_engine,
    unregister_engine,
)
from repro.core.svd import HestenesJacobiSVD, hestenes_svd


class TestRegistryLookup:
    def test_builtin_engines_registered(self):
        assert tuple(METHODS) == ("reference", "modified", "blocked",
                                  "vectorized", "preconditioned")
        assert engine_names() == METHODS

    def test_resolve_returns_spec(self):
        spec = resolve_engine("blocked")
        assert isinstance(spec, EngineSpec)
        assert spec.name == "blocked"
        assert spec.supported_orderings == ("cyclic",)

    def test_unknown_engine_lists_registered(self):
        with pytest.raises(ValueError, match="registered engines"):
            resolve_engine("fpga9000")

    def test_register_unregister_roundtrip(self):
        spec = EngineSpec(name="tmp-engine", fn=lambda a, **kw: None)
        register_engine(spec)
        try:
            assert resolve_engine("tmp-engine") is spec
            with pytest.raises(ValueError, match="already registered"):
                register_engine(spec)
            register_engine(spec, replace=True)  # allowed
        finally:
            unregister_engine("tmp-engine")
        assert "tmp-engine" not in engine_names()

    def test_registered_engine_dispatchable(self, rng):
        calls = {}

        def fake(a, *, compute_uv, criterion, ordering, seed, **opts):
            calls["opts"] = opts
            return hestenes_svd(a, compute_uv=compute_uv)

        register_engine(EngineSpec(name="fake", fn=fake,
                                   options_schema={"knob": (1, 2)}))
        try:
            a = rng.standard_normal((6, 4))
            res = hestenes_svd(a, method="fake", engine_opts={"knob": 2})
            assert calls["opts"] == {"knob": 2}
            assert res.s.shape == (4,)
        finally:
            unregister_engine("fake")


class TestOptionValidation:
    def test_unknown_option_named_in_error(self):
        spec = resolve_engine("blocked")
        with pytest.raises(ValueError, match="block_rounds is not an option"):
            spec.validate_options({"block_rounds": 2})

    def test_choice_violation_named_in_error(self):
        spec = resolve_engine("modified")
        with pytest.raises(ValueError, match="rotation_impl"):
            spec.validate_options({"rotation_impl": "quantum"})

    def test_callable_validator_runs(self):
        spec = resolve_engine("vectorized")
        with pytest.raises(ValueError):
            spec.validate_options({"block_rounds": 0})
        assert spec.validate_options({"block_rounds": 3}) == {
            "block_rounds": 3
        }

    def test_none_schema_accepts_anything(self):
        spec = resolve_engine("reference")
        assert spec.validate_options({"pair_threshold": 1e-30})

    def test_ordering_validation(self):
        spec = resolve_engine("blocked")
        assert spec.validate_ordering("cyclic") == "cyclic"
        with pytest.raises(ValueError, match="supports ordering"):
            spec.validate_ordering("row")


class TestEngineOptsDispatch:
    def test_engine_opts_reach_the_engine(self, rng):
        a = rng.standard_normal((10, 6))
        plain = hestenes_svd(a, method="vectorized", compute_uv=False)
        chunked = hestenes_svd(a, method="vectorized", compute_uv=False,
                               engine_opts={"block_rounds": 2})
        assert np.allclose(plain.s, chunked.s)

    def test_engine_opts_accepts_pairs(self, rng):
        a = rng.standard_normal((8, 4))
        res = hestenes_svd(a, method="vectorized", compute_uv=False,
                           engine_opts=(("block_rounds", 2),))
        assert res.s.shape == (4,)

    def test_engine_opts_rejects_non_mapping(self, rng):
        a = rng.standard_normal((6, 4))
        with pytest.raises(TypeError, match="engine_opts"):
            hestenes_svd(a, engine_opts="block_rounds=2")

    def test_wrong_engine_option_rejected_at_dispatch(self, rng):
        a = rng.standard_normal((6, 4))
        with pytest.raises(ValueError, match="block_rounds"):
            hestenes_svd(a, method="blocked",
                         engine_opts={"block_rounds": 2})

    def test_solver_class_accepts_engine_opts(self, rng):
        a = rng.standard_normal((8, 5))
        solver = HestenesJacobiSVD(method="vectorized", compute_uv=False,
                                   engine_opts={"block_rounds": 2})
        direct = hestenes_svd(a, method="vectorized", compute_uv=False,
                              engine_opts={"block_rounds": 2})
        assert np.array_equal(solver.decompose(a).s, direct.s)

    def test_block_rounds_keyword_removed(self, rng):
        # The deprecated top-level spelling is gone; engine_opts is the
        # one way to pass the vectorized engine's fusion width.
        with pytest.raises(TypeError):
            hestenes_svd(rng.standard_normal((6, 4)), block_rounds=2)
        with pytest.raises(TypeError, match="block_rounds"):
            HestenesJacobiSVD(block_rounds=2)

