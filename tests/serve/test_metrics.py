"""Tests for counters, gauges, histograms, and the registry."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)


class TestGauge:
    def test_set_and_adjust(self):
        g = Gauge("depth")
        g.set(7)
        g.inc(-2)
        assert g.value == 5.0


class TestHistogram:
    def test_exact_stream_stats(self):
        h = Histogram("lat")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["mean"] == pytest.approx(2.5)
        assert s["min"] == 1.0 and s["max"] == 4.0

    def test_quantiles_interpolate(self):
        h = Histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.5) == pytest.approx(50.5)
        assert h.quantile(0.95) == pytest.approx(95.05)

    def test_empty_histogram_is_zeroed(self):
        s = Histogram("lat").summary()
        assert s == {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                     "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_window_bounds_memory_but_not_count(self):
        h = Histogram("lat", window=10)
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100
        assert h.quantile(0.0) >= 90.0  # reservoir holds the newest window

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("lat").quantile(1.5)


class TestRegistry:
    def test_instruments_are_singletons_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("done").inc(3)
        reg.gauge("depth").set(2)
        reg.histogram("lat").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"done": 3}
        assert snap["gauges"] == {"depth": 2.0}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_render_text_mentions_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("requests_completed").inc()
        reg.gauge("queue_depth").set(1)
        reg.histogram("latency_s").observe(0.25)
        text = reg.render_text()
        for needle in ("requests_completed", "queue_depth", "latency_s",
                       "p95"):
            assert needle in text

    def test_render_empty(self):
        assert "no metrics" in MetricsRegistry().render_text()

