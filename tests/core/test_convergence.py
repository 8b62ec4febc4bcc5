"""Tests for convergence metrics, criteria and traces."""

import numpy as np
import pytest

from repro.core.registry import METHODS
from repro.core.convergence import (
    METRICS,
    ConvergenceCriterion,
    ConvergenceTrace,
    measure,
    run_sweeps,
)
from repro.obs import Tracer, use_tracer
from repro.obs.health import HealthError, fail_fast
from repro.obs.metrics import MetricsRegistry, use_registry


class TestMeasure:
    def test_diagonal_matrix_is_converged(self):
        d = np.diag([4.0, 2.0, 1.0])
        for metric in METRICS:
            assert measure(d, metric) == 0.0

    def test_mean_abs_value(self):
        d = np.array([[1.0, 2.0, -4.0], [2.0, 1.0, 6.0], [-4.0, 6.0, 1.0]])
        assert measure(d, "mean_abs") == pytest.approx((2 + 4 + 6) / 3)

    def test_off_fro_value(self):
        d = np.array([[1.0, 3.0], [3.0, 1.0]])
        assert measure(d, "off_fro") == pytest.approx(3.0)

    def test_max_abs_value(self):
        d = np.array([[1.0, 2.0, -4.0], [2.0, 1.0, 6.0], [-4.0, 6.0, 1.0]])
        assert measure(d, "max_abs") == pytest.approx(6.0)

    def test_relative_is_scale_free(self):
        d = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert measure(d, "relative") == pytest.approx(measure(d * 1e6, "relative"))

    def test_1x1(self):
        for metric in METRICS:
            assert measure(np.array([[5.0]]), metric) == 0.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            measure(np.eye(2), "bogus")


class TestConvergenceCriterion:
    def test_paper_default_no_early_stop(self):
        c = ConvergenceCriterion()
        assert c.max_sweeps == 6
        assert not c.satisfied(0.0)

    def test_threshold(self):
        c = ConvergenceCriterion(max_sweeps=10, tol=1e-6)
        assert c.satisfied(1e-7)
        assert not c.satisfied(1e-5)

    def test_rejects_bad_sweeps(self):
        with pytest.raises(ValueError):
            ConvergenceCriterion(max_sweeps=0)

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            ConvergenceCriterion(tol=-1.0)

    def test_rejects_bad_metric(self):
        with pytest.raises(ValueError):
            ConvergenceCriterion(metric="nope")

    def test_frozen(self):
        c = ConvergenceCriterion()
        with pytest.raises(AttributeError):
            c.tol = 1.0


class TestConvergenceTrace:
    def test_record_and_series(self):
        t = ConvergenceTrace()
        t.record(0, 10.0)
        t.record(1, 1.0, rotations=5, skipped=1)
        t.record(2, 0.1, rotations=3, skipped=3)
        sweeps, values = t.series()
        assert sweeps == [0, 1, 2]
        assert values == [10.0, 1.0, 0.1]
        assert t.rotations == [0, 5, 3]
        assert t.n_sweeps == 2  # sweep-0 entry not counted
        assert t.final_value == 0.1

    def test_empty_trace(self):
        t = ConvergenceTrace()
        assert t.n_sweeps == 0
        assert t.final_value == float("inf")
        assert not t.converged

    def test_to_csv_text(self):
        t = ConvergenceTrace(metric="off_fro")
        t.record(0, 10.0)
        t.record(1, 0.5, rotations=5, skipped=1)
        assert t.to_csv() == (
            "sweep,off_fro,rotations,skipped\n"
            "0,10.0,0,0\n"
            "1,0.5,5,1\n"
        )

    def test_to_csv_roundtrips_values_exactly(self):
        t = ConvergenceTrace()
        t.record(1, 0.1 + 0.2, rotations=1)  # repr() keeps full precision
        row = t.to_csv().splitlines()[1]
        assert float(row.split(",")[1]) == 0.1 + 0.2

    def test_to_csv_writes_file(self, tmp_path):
        t = ConvergenceTrace()
        t.record(0, 1.0)
        path = tmp_path / "trace.csv"
        text = t.to_csv(path)
        assert path.read_text() == text

    def test_to_csv_empty_trace_is_header_only(self):
        assert ConvergenceTrace().to_csv() == "sweep,mean_abs,rotations,skipped\n"


class TestRunSweeps:
    """The shared sweep driver every engine's round kernel runs under."""

    @staticmethod
    def _driver(values, rotations=1, **kwargs):
        """Drive a scripted kernel: sweep k rotates *rotations* pairs
        (skipping 2) and measures ``values[k - 1]``."""
        calls = []

        def sweep(index, rspan):
            calls.append(index)
            return rotations, 2

        kwargs.setdefault("criterion", ConvergenceCriterion(max_sweeps=6))
        trace = ConvergenceTrace()
        done, converged = run_sweeps(
            sweep, lambda: values[calls[-1] - 1], method="test",
            trace=trace, **kwargs,
        )
        return done, converged, calls, trace

    def test_sweeps_numbered_from_start_to_last(self):
        done, converged, calls, trace = self._driver(
            [1.0] * 6, start=2, last=5)
        assert calls == [3, 4, 5]
        assert trace.sweeps == [3, 4, 5]
        assert trace.rotations == [1, 1, 1]
        assert trace.skipped == [2, 2, 2]
        assert (done, converged) == (5, False)

    def test_budget_defaults_to_max_sweeps(self):
        done, converged, calls, _ = self._driver([1.0] * 6)
        assert calls == [1, 2, 3, 4, 5, 6]
        assert (done, converged) == (6, False)

    def test_empty_range_returns_start(self):
        done, converged, calls, trace = self._driver([1.0], start=4, last=4)
        assert calls == [] and trace.sweeps == []
        assert (done, converged) == (4, False)

    def test_stop_ends_loop_without_converging(self):
        stops = iter([False, True])
        done, converged, calls, _ = self._driver(
            [1.0] * 6, stop=lambda: next(stops))
        assert calls == [1, 2]
        assert (done, converged) == (2, False)

    def test_zero_rotation_sweep_converges(self):
        done, converged, calls, trace = self._driver([1.0] * 6, rotations=0)
        assert calls == [1]
        assert trace.rotations == [0]
        assert (done, converged) == (1, True)

    def test_meeting_tol_converges_before_stop_is_asked(self):
        def stop():
            raise AssertionError("stop() consulted after convergence")

        crit = ConvergenceCriterion(max_sweeps=6, tol=1e-3)
        done, converged, calls, trace = self._driver(
            [1e-1, 1e-4, 1.0], criterion=crit, stop=lambda: False)
        assert (done, converged) == (2, True)
        assert trace.values == [1e-1, 1e-4]
        done, converged, _, _ = self._driver(
            [1e-4], criterion=crit, stop=stop)
        assert (done, converged) == (1, True)

    def test_sweep_spans_carry_standard_attributes(self):
        def sweep(index, rspan):
            with rspan("core.round", round=0, pairs=3):
                return 3, 1

        tracer = Tracer(detail="round")
        with use_tracer(tracer):
            run_sweeps(
                sweep, lambda: 0.5, method="test",
                criterion=ConvergenceCriterion(max_sweeps=2),
                trace=ConvergenceTrace(), precision="fp32",
            )
        sweeps = tracer.find("core.sweep")
        assert [sp.attrs for sp in sweeps] == [
            {"method": "test", "sweep": k, "precision": "fp32",
             "rotations": 3, "skipped": 1, "off_diagonal": 0.5}
            for k in (1, 2)
        ]
        rounds = tracer.find("core.round")
        assert [r.parent_id for r in rounds] == [sp.span_id for sp in sweeps]

    def test_nan_metric_trips_guard_in_fail_fast(self):
        with use_registry(MetricsRegistry()) as reg, fail_fast():
            with pytest.raises(HealthError, match="'test' at sweep 2"):
                self._driver([0.5, float("nan"), 0.5])
        snap = reg.snapshot()["counters"]
        assert snap['engine_sweep_nonfinite{engine="test"}'] == 1



class TestRelativeStopRuleAtExtremeScales:
    """The off-diagonal metrics square Gram entries; an exact power-of-
    two rescale keeps them meaningful anywhere in the float64 range, so
    no engine stops early on an underflowed metric or reports a false
    NaN health failure on an overflowed one."""

    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
    @pytest.mark.parametrize("method", METHODS)
    def test_every_engine_matches_lapack(self, method, scale):
        from repro.core.svd import hestenes_svd
        from repro.util.numerics import singular_value_error

        a = np.random.default_rng(7).standard_normal((40, 20)) * scale
        res = hestenes_svd(a, method=method, tol=1e-12, metric="relative",
                           max_sweeps=30)
        ref = np.linalg.svd(a, compute_uv=False)
        assert singular_value_error(ref, res.s) <= 1e-10
        assert res.converged
        assert res.health.ok
