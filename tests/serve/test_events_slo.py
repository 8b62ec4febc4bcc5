"""Serving-layer events and SLO feeding: lifecycle, degradation, replay."""

import pytest

from repro.obs import Tracer
from repro.obs.events import EventLog, context, use_event_log
from repro.obs.slo import SLOEngine, default_objectives, use_slo_engine
from repro.serve.request import ServeError
from repro.serve.retry import RetryPolicy, retry_call
from repro.serve.server import SVDServer
from repro.serve.shard import ShardedSVDServer
from repro.workloads import random_matrix
from repro.workloads.driver import ReplayReport


class TestRequestLifecycleEvents:
    def test_submitted_and_done_events_share_the_request_id(self):
        log = EventLog(capacity=64)
        engine = SLOEngine(default_objectives())
        with use_event_log(log), use_slo_engine(engine):
            with SVDServer(cache_bytes=None) as srv:
                response = srv.submit(
                    random_matrix(8, 4, seed=1)).result(timeout=60.0)
        assert response.status == "ok"
        rid = response.request_id
        # Without a tracer the request id doubles as the trace id.
        (submitted,) = log.find("serve.request.submitted", trace_id=rid)
        assert submitted.fields["request_id"] == rid
        (done,) = log.find("serve.request.done", trace_id=rid)
        assert done.fields["status"] == "ok"
        assert done.fields["latency_s"] > 0.0
        assert log.find("serve.batch.dispatch", trace_id=rid)
        # The SLO engine saw the admission and the request latency.
        by_name = {o["name"]: o for o in engine.report()["objectives"]}
        assert by_name["serve.admission"]["total"] == 1
        assert by_name["serve.admission"]["bad"] == 0
        assert by_name["serve.request.latency"]["total"] == 1

    def test_cache_hit_done_event_is_marked(self):
        log = EventLog(capacity=64)
        a = random_matrix(8, 4, seed=2)
        with use_event_log(log), use_slo_engine(None):
            with SVDServer() as srv:
                srv.submit(a).result(timeout=60.0)
                second = srv.submit(a).result(timeout=60.0)
        assert second.cache_hit is True
        done = log.find("serve.request.done",
                        trace_id=second.request_id)
        assert len(done) == 1
        assert done[0].fields["cache_hit"] is True


#: Both serving tiers, each with the settings that let one flood of
#: submissions overflow its admission control.  A 50 ms flush window
#: lets a 1 us deadline expire before dispatch.
TIERS = {
    "single": (SVDServer, {"queue_size": 1, "backpressure": "reject",
                           "max_batch": 1, "workers": 1}),
    "sharded": (lambda **kw: ShardedSVDServer(shards=1, **kw),
                {"max_inflight": 1}),
}
TERMINAL = ("serve.request.done", "serve.request.rejected")


class TestOneTerminalEventPerRequest:
    """Every submitted request leaves exactly one terminal event in the
    submitting process's log, under ``trace_id or request_id``, on
    both tiers and for every outcome."""

    @pytest.fixture(params=sorted(TIERS))
    def tier(self, request):
        make, overload = TIERS[request.param]
        return lambda over=False, **kw: make(
            max_wait_s=0.05, **(overload if over else {}), **kw)

    @staticmethod
    def _terminal(log, response):
        trace = response.trace_id or response.request_id
        return [ev for ev in log.find(trace_id=trace) if ev.name in TERMINAL]

    def _assert_done(self, log, response, status, cache_hit=False):
        assert response.status == status
        (event,) = self._terminal(log, response)
        assert event.name == "serve.request.done"
        assert event.fields["status"] == status
        assert event.fields["cache_hit"] is cache_hit

    def test_computed_ok(self, tier):
        log = EventLog(capacity=256)
        with use_event_log(log), use_slo_engine(None):
            with tier(cache_bytes=None) as srv:
                response = srv.submit(
                    random_matrix(8, 4, seed=11)).result(timeout=120.0)
        self._assert_done(log, response, "ok")

    def test_front_cache_hit(self, tier):
        log = EventLog(capacity=256)
        a = random_matrix(8, 4, seed=12)
        with use_event_log(log), use_slo_engine(None):
            with tier() as srv:
                first = srv.submit(a).result(timeout=120.0)
                second = srv.submit(a).result(timeout=120.0)
                counters = srv.metrics.snapshot()["counters"]
        assert counters["cache_hits"] == 1
        assert counters["requests_completed"] == 2
        self._assert_done(log, first, "ok")
        self._assert_done(log, second, "ok", cache_hit=True)
        assert len(log.find("serve.request.submitted",
                            trace_id=second.request_id)) == 1

    def test_rejection(self, tier):
        log = EventLog(capacity=1024)
        handles = []
        with use_event_log(log), use_slo_engine(None):
            with tier(over=True, cache_bytes=None) as srv:
                handles.append(srv.submit(random_matrix(96, 48, seed=13)))
                with pytest.raises(ServeError) as excinfo:
                    for i in range(300):
                        handles.append(srv.submit(
                            random_matrix(6, 3, seed=100 + i)))
                handles.append(excinfo.value.handle)
            responses = [h.result(timeout=120.0) for h in handles]
        rejected = responses[-1]
        assert rejected.status == "rejected"
        (event,) = self._terminal(log, rejected)
        assert event.name == "serve.request.rejected"
        for response in responses[:-1]:
            self._assert_done(log, response, "ok")

    def test_deadline_timeout(self, tier):
        log = EventLog(capacity=256)
        with use_event_log(log), use_slo_engine(None):
            with tier(cache_bytes=None) as srv:
                response = srv.submit(random_matrix(8, 4, seed=14),
                                      timeout=1e-6).result(timeout=120.0)
        self._assert_done(log, response, "timeout")


class TestDegradationCorrelation:
    def test_degraded_request_keeps_one_trace_id_end_to_end(self,
                                                            monkeypatch):
        log = EventLog(capacity=256)
        engine = SLOEngine(default_objectives())
        tracer = Tracer()
        with use_event_log(log), use_slo_engine(engine):
            with SVDServer(cache_bytes=None, tracer=tracer) as srv:
                def boom(matrices, options):
                    raise RuntimeError("accelerator offline")

                monkeypatch.setattr(srv._executor, "_hw_dispatch", boom)
                response = srv.submit(random_matrix(8, 4, seed=3),
                                      engine="hw").result(timeout=60.0)
        assert response.status == "ok"
        assert response.engine == "core"  # degraded off the hw path
        trace = response.trace_id
        assert trace is not None

        # One trace id threads the entire narrative: submission, batch
        # dispatch, the degradation deep inside the executor, and the
        # terminal event.
        names = {ev.name for ev in log.find(trace_id=trace)}
        assert {"serve.request.submitted", "serve.batch.dispatch",
                "serve.degrade", "serve.request.done"} <= names
        (degrade,) = log.find("serve.degrade", trace_id=trace)
        assert degrade.fields["from_engine"] == "hw"
        assert degrade.fields["to_engine"] == "core"
        assert degrade.fields["reason"] == "engine_error:RuntimeError"

        # The spans agree: the degradation span carries the same trace
        # id as the request's root span.
        (root,) = tracer.find("serve.request")
        assert root.trace_id == trace
        degrade_spans = tracer.find("serve.degrade")
        assert degrade_spans
        assert all(sp.trace_id == trace for sp in degrade_spans)

        # The degradation SLO burned budget; the request still landed.
        by_name = {o["name"]: o for o in engine.report()["objectives"]}
        assert by_name["serve.degradation"]["bad"] == 1
        assert by_name["serve.request.latency"]["total"] == 1

    def test_retry_events_inherit_the_ambient_trace_id(self):
        log = EventLog(capacity=64)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "done"

        with use_event_log(log), context(trace_id="t-retry"):
            out = retry_call(flaky,
                             policy=RetryPolicy(attempts=3, backoff_s=0.001),
                             sleep=lambda s: None)
        assert out == "done"
        retries = log.find("serve.retry", trace_id="t-retry")
        assert [ev.fields["attempt"] for ev in retries] == [1, 2]
        assert all(ev.fields["error"] == "OSError" for ev in retries)

    def test_exhausted_retries_emit_a_terminal_event(self):
        log = EventLog(capacity=64)

        def always_fails():
            raise OSError("still down")

        with use_event_log(log), context(trace_id="t-exhausted"):
            with pytest.raises(OSError):
                retry_call(always_fails,
                           policy=RetryPolicy(attempts=2, backoff_s=0.001),
                           sleep=lambda s: None)
        (exhausted,) = log.find("serve.retry.exhausted",
                                trace_id="t-exhausted")
        assert exhausted.fields["attempts"] == 2


class TestReplayScoring:
    def test_score_slos_reflects_error_budget_consumption(self):
        report = ReplayReport(
            submitted=100, completed=97, rejected=2, errors=2, timeouts=1,
            latencies_s=[0.01] * 95 + [0.5] * 2,
        )
        scored = report.score_slos(now=1000.0)
        by_name = {o["name"]: o for o in scored["objectives"]}
        latency = by_name["serve.request.latency"]
        # 97 completed latencies plus 3 failures; 2 of the latencies
        # blow the 250 ms threshold, so 5 bad of 100.
        assert latency["total"] == 100
        assert latency["bad"] == 5
        assert latency["budget_consumed"] == pytest.approx(5.0)
        assert latency["met"] is False
        admission = by_name["serve.admission"]
        assert admission["total"] == 102
        assert admission["bad"] == 2
        assert scored["ok"] is False

    def test_quiet_replay_scores_clean(self):
        scored = ReplayReport().score_slos(now=1000.0)
        assert scored["ok"] is True
        assert all(o["budget_consumed"] == 0.0 for o in scored["objectives"])

    def test_scoring_is_deterministic_and_isolated(self):
        report = ReplayReport(submitted=10, completed=10,
                              latencies_s=[0.02] * 10)
        ambient = SLOEngine(default_objectives())
        with use_slo_engine(ambient):
            first = report.score_slos(now=500.0)
            second = report.score_slos(now=500.0)
        assert first == second
        # Scoring used a private engine; the ambient one saw nothing.
        assert all(o["total"] == 0
                   for o in ambient.report()["objectives"])
