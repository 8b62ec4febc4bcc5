"""The SVD server: queue + micro-batcher + worker pool + cache + metrics.

:class:`SVDServer` is the long-lived façade that turns the repository's
solvers into a service.  One background dispatch thread moves requests
from the bounded :class:`~repro.serve.queue.RequestQueue` through the
:class:`~repro.serve.scheduler.MicroBatcher` policy into a persistent
worker pool (via :func:`repro.core.batch.batch_svd`), consults the
:class:`~repro.serve.cache.ResultCache` before computing, and records
every serving metric along the way.

Results are bit-identical to calling :func:`repro.core.svd.hestenes_svd`
directly with the same options: batching only changes *when* a request
runs, never *how* — each matrix is still decomposed independently.

Example
-------
>>> import numpy as np
>>> from repro.serve import SVDServer
>>> with SVDServer(max_wait_s=0.001) as srv:
...     handle = srv.submit(np.eye(3) * 2.0, compute_uv=False)
...     response = handle.result(timeout=30.0)
>>> response.status
'ok'
>>> [float(v) for v in response.result.s]
[2.0, 2.0, 2.0]
"""

from __future__ import annotations

import contextlib
import threading
import time

from repro.obs import use_tracer
from repro.obs.events import context as event_context
from repro.obs.events import emit
from repro.obs.metrics import get_registry
from repro.obs.prof import record_request_cpu
from repro.obs.recorder import trigger_dump
from repro.serve.handle import FrontDoor, ResponseHandle, ServerClosed
from repro.serve.queue import RequestQueue
from repro.serve.request import SVDRequest
from repro.serve.result import SVDResponse
from repro.serve.retry import EngineExecutor
from repro.serve.scheduler import Batch, BatchConfig, MicroBatcher

__all__ = ["ServerClosed", "ResponseHandle", "SVDServer"]


class SVDServer(FrontDoor):
    """Long-lived micro-batching SVD service over the repo's solvers.

    Submission, the result cache and outcome recording are the shared
    :class:`~repro.serve.handle.FrontDoor`; this tier admits requests
    onto its bounded queue and runs them in micro-batches.

    Parameters
    ----------
    max_batch, max_wait_s, workers
        Micro-batching policy (:class:`repro.serve.scheduler.BatchConfig`).
    queue_size, backpressure
        Admission control (:class:`repro.serve.queue.RequestQueue`):
        ``backpressure="block"`` stalls producers when full,
        ``"reject"`` raises :class:`repro.serve.queue.QueueFull`.
    cache_bytes : int or None
        Result-cache budget; ``None`` disables caching.
    default_engine : str
        Engine used when a request does not choose: ``"core"``, any
        registry engine name, or ``"hw"``
        (:data:`repro.serve.request.ENGINES`).
    clock : callable
        Monotonic time source (injectable for tests).
    tracer : repro.obs.Tracer, optional
        When given, every request's lifecycle is recorded as a span
        tree — ``serve.request`` → ``serve.queue_wait`` /
        ``serve.batch`` → ``serve.engine`` → the engine's own
        ``core.sweep`` spans — correlated by a per-request trace id
        that is echoed on :class:`repro.serve.result.SVDResponse`.
    **default_options
        Solver options applied to every request unless overridden at
        :meth:`submit` (method, max_sweeps, tol, compute_uv, ...).
    """

    def __init__(
        self,
        *,
        max_batch: int = 8,
        max_wait_s: float = 0.002,
        workers: int = 4,
        queue_size: int = 1024,
        backpressure: str = "block",
        cache_bytes: int | None = 64 * 1024 * 1024,
        default_engine: str = "core",
        clock=time.monotonic,
        tracer=None,
        **default_options,
    ) -> None:
        super().__init__(cache_bytes=cache_bytes,
                         default_engine=default_engine,
                         default_options=default_options,
                         clock=clock, tracer=tracer)
        self.config = BatchConfig(max_batch=max_batch, max_wait_s=max_wait_s,
                                  workers=workers)
        self.queue = RequestQueue(maxsize=queue_size, policy=backpressure)
        self._batcher = MicroBatcher(self.config)
        self._executor = EngineExecutor(workers=workers)
        self._thread: threading.Thread | None = None
        # Expose this server's registry in the process-wide snapshot
        # (prefixed "serve.<key>") for `repro stats` / Prometheus.
        self._collector_name = get_registry().register_collector(
            "serve", self.metrics
        )
        self.start()

    # ---- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Start the dispatch thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._closed = False
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="svd-serve-dispatch",
                daemon=True,
            )
            self._thread.start()

    def close(self) -> None:
        """Stop accepting work, drain in-flight requests, join the thread."""
        if self._closed:
            return
        self._closed = True
        get_registry().unregister_collector(self._collector_name)
        self.queue.close()
        if self._thread is not None:
            self._thread.join(timeout=60.0)
            self._thread = None

    def _admit(self, request: SVDRequest, handle: ResponseHandle,
               trace_start: float | None) -> None:
        self.queue.put(request)
        self.metrics.gauge("queue_depth").set(len(self.queue))

    # ---- observability --------------------------------------------------

    def stats(self) -> dict:
        """Snapshot of metrics, cache accounting, and queue state."""
        snap = self.metrics.snapshot()
        snap["queue"] = {"depth": len(self.queue),
                         "maxsize": self.queue.maxsize,
                         "policy": self.queue.policy}
        snap["cache"] = (self.cache.snapshot()
                         if self.cache is not None else None)
        snap["degradations"] = self._executor.degradations
        return snap

    def render_stats(self) -> str:
        """Human-readable metrics report."""
        return self.metrics.render_text()

    # ---- dispatch loop --------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            closing = self.queue.closed
            deadline = self._batcher.next_deadline()
            # Event-driven wakeup: with no pending flush deadline the
            # loop parks on the queue's condition variable (signaled by
            # put/close) instead of polling — zero idle CPU burn.
            if deadline is None:
                wait = None
            else:
                wait = max(0.0, deadline - self._clock())
            request = self.queue.get(timeout=0.0 if closing else wait)
            now = self._clock()
            self.metrics.gauge("queue_depth").set(len(self.queue))
            if request is not None:
                full = self._batcher.add(request, now)
                if full is not None:
                    self._run_batch(full)
            for batch in self._batcher.poll(self._clock()):
                self._run_batch(batch)
            if closing and request is None:
                for batch in self._batcher.flush_all(self._clock()):
                    self._run_batch(batch)
                return

    def _run_batch(self, batch: Batch) -> None:
        now = self._clock()
        tracer = self.tracer
        live: list[SVDRequest] = []
        for req in batch.requests:
            if not req.expired(now):
                live.append(req)
                continue
            root = None
            if tracer is not None:
                root = self._open_root(req)
                tracer.add_span(
                    "serve.queue_wait", start=root.start, end=tracer.now(),
                    parent=root, trace_id=req.trace_id, expired=True,
                )
            self._finish(req, SVDResponse.for_request(
                req, "timeout",
                error=f"deadline passed before dispatch "
                      f"(waited {now - req.submitted_at:.4f}s)",
                queued_s=now - req.submitted_at,
                total_s=now - req.submitted_at), root)
        if not live:
            return
        self.metrics.counter("batches_dispatched").inc()
        self.metrics.histogram("batch_size").observe(len(live))
        if len(live) > 1:
            self.metrics.counter("coalesced_requests").inc(len(live) - 1)
        budget = Batch(batch.key, live, batch.created_at,
                       batch.flushed_at).deadline_budget(now)
        started = self._clock()
        roots: dict[str, object] = {}
        batch_span = engine_span = None
        if tracer is not None:
            # Request roots open retroactively at their submit-time
            # tracer timestamp; they were submitted in another thread,
            # so they are managed manually rather than via contextvars.
            t_dispatch = tracer.now()
            for req in live:
                root = self._open_root(req)
                tracer.add_span(
                    "serve.queue_wait", start=root.start, end=t_dispatch,
                    parent=root, trace_id=req.trace_id,
                )
                roots[req.request_id] = root
            batch_span = tracer.start_span(
                "serve.batch", parent=roots[live[0].request_id],
                trace_id=live[0].trace_id, batch_size=len(live),
                engine=live[0].engine,
            )
            engine_span = tracer.start_span(
                "serve.engine", parent=batch_span,
                trace_id=live[0].trace_id, engine=live[0].engine,
            )
        emit("serve.batch.dispatch",
             trace_id=live[0].trace_id or live[0].request_id,
             batch_size=len(live), engine=live[0].engine)
        # Correlates everything emitted inside the dispatch (degradation,
        # retries, engine health) with this batch's lead request.
        dispatch_ctx = event_context(
            trace_id=live[0].trace_id or live[0].request_id,
            engine=live[0].engine,
        )
        cpu_before = time.process_time()
        try:
            # Entering engine_span sets the ambient current-span, so
            # engine core.sweep spans (propagated into pool workers by
            # batch_svd) nest beneath it.
            with contextlib.ExitStack() as scopes:
                if tracer is not None:
                    scopes.enter_context(use_tracer(tracer))
                    scopes.enter_context(engine_span)
                scopes.enter_context(dispatch_ctx)
                results, engine_used = self._executor.dispatch(
                    [r.matrix for r in live], dict(live[0].options),
                    engine=live[0].engine, deadline_budget_s=budget,
                )
        except Exception as exc:
            finished = self._clock()
            if tracer is not None:
                batch_span.set_attrs(error=type(exc).__name__).end()
            emit("serve.batch.error",
                 trace_id=live[0].trace_id or live[0].request_id,
                 batch_size=len(live), engine=live[0].engine,
                 error=type(exc).__name__, detail=str(exc))
            for req in live:
                self._finish(req, SVDResponse.for_request(
                    req, "error", error=str(exc), batch_size=len(live),
                    queued_s=started - req.submitted_at,
                    service_s=finished - started,
                    total_s=finished - req.submitted_at),
                    roots.get(req.request_id))
            trigger_dump(
                "serve.batch.error", error=type(exc).__name__,
                detail=str(exc), engine=live[0].engine,
                request_ids=[req.request_id for req in live])
            return
        finished = self._clock()
        # Batch members share shape/options, so an even CPU split is fair.
        cpu_per_req = max(time.process_time() - cpu_before, 0.0) / len(live)
        wall_per_req = (finished - started) / len(live)
        precision = str(dict(live[0].options).get("precision", "fp64"))
        self.metrics.counter(f"engine_{engine_used}_requests").inc(len(live))
        if tracer is not None:
            engine_span.set_attr("engine_used", engine_used)
            if engine_used != live[0].engine:
                engine_span.set_attr("degraded", True)
            batch_span.set_attrs(engine_used=engine_used).end()
        for req, res in zip(live, results):
            self.metrics.histogram("latency_s").observe(
                finished - req.submitted_at)
            record_request_cpu(
                engine=engine_used, shape=req.matrix.shape,
                precision=precision, cpu_s=cpu_per_req,
                wall_s=wall_per_req)
            self._finish(req, SVDResponse.for_request(
                req, "ok", result=res, engine=engine_used,
                batch_size=len(live), queued_s=started - req.submitted_at,
                service_s=finished - started,
                total_s=finished - req.submitted_at, cpu_s=cpu_per_req),
                roots.get(req.request_id))
