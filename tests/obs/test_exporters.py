"""Exporter schemas: Chrome trace JSON, text tree, Prometheus dump."""

import json

import numpy as np
import pytest

from repro.obs import (
    Tracer,
    chrome_trace_events,
    metrics_to_prometheus,
    render_span_tree,
    span,
    to_chrome_trace,
    use_tracer,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry


class StepClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        self.t += 0.5
        return self.t


def make_trace():
    tracer = Tracer(clock=StepClock())
    with use_tracer(tracer):
        with tracer.span("serve.request", trace_id="req-7"):
            with span("core.sweep", sweep=1, off_diagonal=0.25):
                pass
    return tracer


class TestChromeTrace:
    def test_event_schema(self):
        events = chrome_trace_events(make_trace())
        assert len(events) == 2
        for ev in events:
            assert ev["ph"] == "X"
            assert set(ev) >= {"name", "cat", "ph", "ts", "dur", "pid",
                               "tid", "args"}
            assert "span_id" in ev["args"]
            assert ev["args"]["trace_id"] == "req-7"

    def test_timestamps_rebased_to_zero_microseconds(self):
        events = chrome_trace_events(make_trace())
        assert min(ev["ts"] for ev in events) == 0.0
        # StepClock ticks 0.5 s; the child starts one tick after the root.
        child = next(ev for ev in events if ev["name"] == "core.sweep")
        assert child["ts"] == pytest.approx(0.5e6)
        assert child["dur"] == pytest.approx(0.5e6)

    def test_category_is_name_prefix(self):
        events = chrome_trace_events(make_trace())
        cats = {ev["name"]: ev["cat"] for ev in events}
        assert cats == {"serve.request": "serve", "core.sweep": "core"}

    def test_parent_id_rides_in_args(self):
        tracer = make_trace()
        events = chrome_trace_events(tracer)
        root = next(ev for ev in events if ev["name"] == "serve.request")
        child = next(ev for ev in events if ev["name"] == "core.sweep")
        assert "parent_id" not in root["args"]
        assert child["args"]["parent_id"] == root["args"]["span_id"]

    def test_document_shape_and_empty(self):
        doc = to_chrome_trace(make_trace())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert to_chrome_trace(Tracer())["traceEvents"] == []

    def test_write_roundtrip(self, tmp_path):
        out = tmp_path / "t.trace.json"
        path = write_chrome_trace(out, make_trace())
        assert path == str(out)
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) == 2

    def test_non_json_attrs_coerced(self, tmp_path):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("s", arr=np.arange(3), obj=object(), pair=(1, "a")):
                pass
        doc = to_chrome_trace(tracer)
        json.dumps(doc)  # must not raise
        args = doc["traceEvents"][0]["args"]
        assert args["pair"] == [1, "a"]
        assert isinstance(args["arr"], str) and isinstance(args["obj"], str)

    def test_accepts_span_dicts(self):
        spans = [sp.to_dict() for sp in make_trace().spans]
        assert len(chrome_trace_events(spans)) == 2


class TestRenderTree:
    def test_indentation_follows_nesting(self):
        text = render_span_tree(make_trace())
        lines = text.splitlines()
        assert lines[0].startswith("serve.request")
        assert lines[1].startswith("  core.sweep")
        assert "trace=req-7" in lines[0]
        assert "off_diagonal=0.25" in lines[1]

    def test_attrs_suppressed(self):
        text = render_span_tree(make_trace(), attrs=False)
        assert "off_diagonal" not in text

    def test_empty(self):
        assert render_span_tree(Tracer()) == "(no spans recorded)"

    def test_orphan_renders_as_root(self):
        tracer = Tracer()
        parent = tracer.start_span("never.recorded")
        child = tracer.start_span("child", parent=parent)
        child.end()
        text = render_span_tree(tracer)
        assert text.splitlines()[0].startswith("child")


class TestPrometheus:
    def test_counter_gauge_histogram_exposition(self):
        reg = MetricsRegistry()
        reg.counter("requests_submitted").inc(3)
        reg.gauge("queue_depth").set(2.0)
        for v in (1.0, 2.0, 3.0, 4.0):
            reg.histogram("latency_s").observe(v)
        text = metrics_to_prometheus(reg)
        assert "# TYPE repro_requests_submitted counter" in text
        assert "repro_requests_submitted 3" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 2" in text
        assert "# TYPE repro_latency_s histogram" in text
        assert 'repro_latency_s_bucket{le="+Inf"} 4' in text
        assert "quantile=" not in text
        assert "repro_latency_s_count 4" in text
        assert "repro_latency_s_sum 10" in text
        assert text.endswith("\n")

    def test_histogram_bucket_lines_are_cumulative(self):
        # Line-format regression: standard cumulative le-buckets, so
        # each bucket's count includes every smaller bucket and +Inf
        # equals _count.
        reg = MetricsRegistry()
        h = reg.histogram("latency_s")
        h._bounds = (0.1, 1.0, 10.0)
        h._bucket_counts = [0] * 4
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        text = metrics_to_prometheus(reg)
        assert 'repro_latency_s_bucket{le="0.1"} 1' in text
        assert 'repro_latency_s_bucket{le="1"} 3' in text
        assert 'repro_latency_s_bucket{le="10"} 4' in text
        assert 'repro_latency_s_bucket{le="+Inf"} 5' in text
        assert "repro_latency_s_count 5" in text
        # An observation exactly on a bound counts in that bucket (le
        # is inclusive).
        reg2 = MetricsRegistry()
        h2 = reg2.histogram("edge")
        h2._bounds = (1.0,)
        h2._bucket_counts = [0, 0]
        h2.observe(1.0)
        assert 'repro_edge_bucket{le="1"} 1' in metrics_to_prometheus(reg2)

    def test_labeled_histogram_buckets_per_child(self):
        reg = MetricsRegistry()
        fam = reg.histogram("lat", labelnames=("engine",))
        fam.labels(engine="blocked").observe(0.5)
        fam.labels(engine="fused").observe(2.0)
        text = metrics_to_prometheus(reg)
        assert 'repro_lat_bucket{engine="blocked",le="+Inf"} 1' in text
        assert 'repro_lat_bucket{engine="fused",le="+Inf"} 1' in text
        assert 'repro_lat_count{engine="blocked"} 1' in text

    def test_metric_names_sanitised(self):
        reg = MetricsRegistry()
        reg.counter("engine core.requests").inc()
        text = metrics_to_prometheus(reg)
        assert "repro_engine_core_requests 1" in text

    def test_empty_registry(self):
        assert metrics_to_prometheus(MetricsRegistry()) == ""
