"""Shard router: keyed dispatch, admission control, worker supervision.

The router is the host-side analogue of the paper's input scheduler: it
owns an array of independent worker shards (each a full copy of the
serving pipeline, see :mod:`repro.serve.shard.worker`) and decides
which shard each request streams to.

Routing policy
    Requests are keyed by ``(shape bucket, engine, options)`` — the
    same ingredients as the micro-batcher's batch key, with shapes
    bucketed to powers of two — and hashed to a *preferred* shard, so
    compatible traffic lands together and coalesces inside one shard's
    micro-batcher.  When the preferred shard is at its admission limit
    the router falls back to the least-loaded shard; when every shard
    is full it raises :class:`ShardSaturated` (a 429-style rejection
    layered on top of each worker's own queue backpressure).

Supervision
    A monitor thread pings every worker; a per-shard receiver thread
    consumes replies.  A dead worker (process exit, pipe EOF, broken
    send) is detected, its arena torn down, a replacement spawned, and
    every in-flight request **re-queued** through the same submit path
    — falling back to an in-process
    :class:`repro.serve.retry.EngineExecutor` dispatch (the existing
    retry/degradation path) when re-queueing is exhausted — so accepted
    requests are never lost.

Observability
    Per-shard labeled metric families (``shard_requests_total{shard=}``,
    ``shard_inflight{shard=}``, ``shard_roundtrip_s{shard=}``, death /
    respawn / requeue counters) are recorded into
    :func:`repro.obs.metrics.get_registry`, worker health reports are
    collected from ping replies, and — when a tracer is installed —
    worker spans are stitched into the parent trace
    (:func:`repro.serve.shard.responses.stitch_spans`).
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time

from repro.obs.events import emit
from repro.obs.metrics import get_registry
from repro.obs.recorder import trigger_dump
from repro.serve.request import ServeError, SVDRequest
from repro.serve.retry import EngineExecutor, RetryPolicy, retry_call
from repro.serve.shard import transport
from repro.serve.shard.responses import build_response, release_request_ticket
from repro.serve.shard.state import (Inflight, ShardSaturated, ShardState,
                                     shape_bucket)
from repro.serve.shard.worker import WorkerConfig, worker_main

__all__ = ["ShardSaturated", "shape_bucket", "ShardRouter"]

#: Handshake timeout for a freshly spawned worker.
_READY_TIMEOUT_S = 60.0


class ShardRouter:
    """Routes requests to worker shards and supervises their lifecycle.

    Parameters
    ----------
    shards : int
        Worker process count.
    max_inflight : int
        Per-shard admission limit; beyond it submissions raise
        :class:`~repro.serve.shard.state.ShardSaturated`.
    slot_bytes, arena_slots
        Shared-memory transport geometry per shard.
    worker : dict, optional
        Inner pipeline settings forwarded to each worker's
        :class:`~repro.serve.shard.worker.WorkerConfig` (max_batch,
        max_wait_s, workers, cache_bytes, default_engine,
        default_options, trace_detail).
    on_response : callable, optional
        ``fn(request, response)``: the front end's outcome recorder,
        which fulfils the handle; without one (or when it fails) the
        router fulfils it.
    start_method : str, optional
        ``"spawn"`` (default: robust with a threaded parent) or
        ``"fork"`` (faster start; POSIX only).
    max_attempts : int
        Total shard submissions per request before the in-process
        degradation fallback runs it.
    respawn : bool
        Replace dead workers automatically (disable only in tests).
    """

    def __init__(
        self,
        shards: int,
        *,
        max_inflight: int = 32,
        slot_bytes: int = 1 << 18,
        arena_slots: int | None = None,
        worker: dict | None = None,
        on_response=None,
        start_method: str | None = None,
        clock=time.monotonic,
        tracer=None,
        ping_interval_s: float = 0.25,
        max_attempts: int = 3,
        respawn: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self.max_inflight = int(max_inflight)
        self.slot_bytes = int(slot_bytes)
        self.arena_slots = int(arena_slots or min(2 * max_inflight, 64))
        self.worker_settings = dict(worker or {})
        self.on_response = on_response
        self.max_attempts = int(max_attempts)
        self.ping_interval_s = float(ping_interval_s)
        self.respawn = respawn
        self.tracer = tracer
        self._clock = clock
        self._ctx = multiprocessing.get_context(start_method or "spawn")
        self._topology_lock = threading.Lock()
        self._closing = False
        self._ping_seq = itertools.count()
        self._fallback = EngineExecutor(workers=2)
        self.shards = [ShardState(i) for i in range(int(shards))]
        for shard in self.shards:
            self._spawn(shard)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="svd-shard-monitor", daemon=True)
        self._monitor.start()

    @staticmethod
    def _m():
        return get_registry()

    # ---- worker lifecycle -----------------------------------------------

    def _spawn(self, shard: ShardState) -> None:
        """Start (or restart) the worker process behind *shard*."""
        shard.generation += 1
        generation = shard.generation
        arena = transport.SlotArena(self.arena_slots, self.slot_bytes)
        parent_conn, child_conn = self._ctx.Pipe()
        config = WorkerConfig(
            shard_id=shard.id,
            arena_name=arena.name,
            arena_slots=self.arena_slots,
            slot_bytes=self.slot_bytes,
            **self.worker_settings,
        )
        process = self._ctx.Process(
            target=worker_main, args=(child_conn, config),
            name=f"svd-shard-{shard.id}", daemon=True)
        process.start()
        child_conn.close()
        if not parent_conn.poll(_READY_TIMEOUT_S):
            arena.close()
            raise ServeError(f"shard {shard.id} worker failed to hand-shake")
        kind, pid, worker_now = parent_conn.recv()
        assert kind == "ready"
        shard.process = process
        shard.conn = parent_conn
        shard.arena = arena
        shard.pid = pid
        shard.clock_offset = time.perf_counter() - worker_now
        shard.alive = True
        self._m().gauge("shard_alive", labelnames=("shard",)).labels(
            **shard.labels()).set(1)
        receiver = threading.Thread(
            target=self._receive_loop, args=(shard, generation),
            name=f"svd-shard-recv-{shard.id}", daemon=True)
        receiver.start()

    def _receive_loop(self, shard: ShardState, generation: int) -> None:
        conn = shard.conn
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "res":
                self._on_response(shard, msg[1], msg[2], msg[3])
            elif kind == "pong":
                shard.last_report = msg[2]
            elif kind == "bye":
                break
        if not self._closing:
            self._on_death(shard, generation)

    def _monitor_loop(self) -> None:
        while not self._closing:
            time.sleep(self.ping_interval_s)
            for shard in self.shards:
                if self._closing:
                    return
                if not shard.alive:
                    continue
                generation = shard.generation
                if shard.process is not None and not shard.process.is_alive():
                    self._on_death(shard, generation)
                    continue
                try:
                    shard.send(("ping", next(self._ping_seq)))
                except (OSError, ValueError):
                    self._on_death(shard, generation)

    def _on_death(self, shard: ShardState, generation: int) -> None:
        """Tear down a dead worker, respawn it, re-queue its requests."""
        with self._topology_lock:
            if self._closing or shard.generation != generation:
                return
            shard.alive = False
            labels = shard.labels()
            self._m().counter(
                "shard_deaths_total", labelnames=("shard",),
                help="worker processes lost per shard").labels(**labels).inc()
            self._m().gauge("shard_alive", labelnames=("shard",)).labels(
                **labels).set(0)
            with shard.lock:
                orphans = list(shard.inflight.values())
                shard.inflight.clear()
            self._set_inflight_gauge(shard, 0)
            if shard.arena is not None:
                shard.arena.close()   # owner unlink; dead worker can't reply
                shard.arena = None
            try:
                shard.conn.close()
            except OSError:
                pass
            orphan_traces = [r.request.trace_id or r.request.request_id
                             for r in orphans]
            emit("shard.death", shard=shard.id, generation=generation,
                 orphans=orphan_traces)
            if self.respawn:
                try:
                    self._spawn(shard)
                    self._m().counter(
                        "shard_respawns_total", labelnames=("shard",),
                        help="replacement workers started per shard",
                    ).labels(**labels).inc()
                    emit("shard.respawn", shard=shard.id,
                         generation=shard.generation, pid=shard.pid)
                except Exception:
                    shard.alive = False
        for record in orphans:
            record.drop_segment()
            self._requeue(record, from_shard=shard)
        trigger_dump("shard.death", shard=shard.id, generation=generation,
                     orphans=orphan_traces)

    def _requeue(self, record: Inflight, *, from_shard: ShardState) -> None:
        """Re-queue an orphaned request; degrade in-process when exhausted."""
        self._m().counter(
            "shard_requeues_total", labelnames=("shard",),
            help="in-flight requests re-queued after a worker death",
        ).labels(**from_shard.labels()).inc()
        emit("shard.requeue", shard=from_shard.id,
             trace_id=record.request.trace_id or record.request.request_id,
             request_id=record.request.request_id, attempts=record.attempts)
        if record.attempts < self.max_attempts:
            try:
                self.submit_record(record)
                return
            except ServeError:
                pass  # saturated or all shards down: degrade below
        self._degrade_inline(record)

    def _degrade_inline(self, record: Inflight) -> None:
        """Last-resort in-process dispatch via the existing retry path."""
        from repro.serve.result import SVDResponse

        request = record.request
        self._m().counter(
            "shard_inline_fallbacks_total",
            help="requests answered in-process after shard failures").inc()
        emit("shard.inline_fallback",
             trace_id=request.trace_id or request.request_id,
             request_id=request.request_id, engine=request.engine)
        now = self._clock()
        try:
            results, engine_used = retry_call(
                self._fallback.dispatch,
                [request.matrix],
                dict(request.options),
                engine=request.engine,
                deadline_budget_s=(request.remaining(now)
                                   if request.deadline is not None else None),
                policy=RetryPolicy(attempts=2, backoff_s=0.005),
            )
            outcome = {"status": "ok", "result": results[0],
                       "engine": engine_used}
        except Exception as exc:
            outcome = {"status": "error", "error": str(exc)}
        response = SVDResponse.for_request(
            request, total_s=self._clock() - request.submitted_at, **outcome)
        self._deliver(record, response)

    # ---- submission -----------------------------------------------------

    def route(self, request: SVDRequest) -> ShardState:
        """Pick the shard for *request*; raises :class:`ShardSaturated`."""
        key = (shape_bucket(request.shape), request.engine, request.options)
        preferred = hash(key) % len(self.shards)
        candidates = sorted(
            (s for s in self.shards if s.alive),
            key=lambda s: (s.id != self.shards[preferred].id, s.depth),
        )
        for shard in candidates:
            if shard.depth < self.max_inflight:
                return shard
        emit("shard.reject",
             trace_id=request.trace_id or request.request_id,
             request_id=request.request_id, engine=request.engine)
        raise ShardSaturated(
            f"all {len(self.shards)} shard(s) at admission limit "
            f"({self.max_inflight} in flight each); retry later [429]"
        )

    def submit(self, request: SVDRequest, handle, *,
               trace_start: float | None = None) -> int:
        """Admit one request; returns the shard id it was sent to."""
        record = Inflight(request, handle, trace_start=trace_start)
        return self.submit_record(record)

    def submit_record(self, record: Inflight) -> int:
        """Admit (or re-admit) an :class:`Inflight` record."""
        last_error: Exception | None = None
        while record.attempts < self.max_attempts:
            record.attempts += 1
            shard = self.route(record.request)
            try:
                self._send(shard, record)
                return shard.id
            except (OSError, ValueError, transport.TransportError) as exc:
                last_error = exc
                self._on_death(shard, shard.generation)
        raise ShardSaturated(
            f"request {record.request.request_id} exhausted "
            f"{self.max_attempts} shard attempts: {last_error}"
        )

    def _send(self, shard: ShardState, record: Inflight) -> None:
        request = record.request
        arrays = [request.matrix]
        nbytes = transport.message_nbytes(arrays)
        ticket = None
        if shard.arena.fits(nbytes):
            slot = shard.arena.acquire()
            if slot is not None:
                transport.pack_message(shard.arena.buf,
                                       shard.arena.offset(slot), arrays,
                                       transport.STATE_REQUEST)
                ticket = ("slot", slot)
        if ticket is None:
            segment = transport.create_segment(nbytes)
            transport.pack_message(segment.buf, 0, arrays,
                                   transport.STATE_REQUEST)
            record.segment = segment
            ticket = ("seg", segment.name)
        record.ticket = ticket
        record.sent_at = self._clock()
        meta = {
            "engine": request.engine,
            "options": dict(request.options),
            "timeout": (request.remaining(record.sent_at)
                        if request.deadline is not None else None),
            "trace_id": request.trace_id,
        }
        with shard.lock:
            shard.inflight[request.request_id] = record
            depth = len(shard.inflight)
        self._set_inflight_gauge(shard, depth)
        try:
            shard.send(("req", request.request_id, ticket, meta))
        except (OSError, ValueError):
            with shard.lock:
                shard.inflight.pop(request.request_id, None)
            release_request_ticket(shard, record)
            record.drop_segment()
            raise
        self._m().counter(
            "shard_requests_total", labelnames=("shard",),
            help="requests admitted per shard",
        ).labels(**shard.labels()).inc()

    def _set_inflight_gauge(self, shard: ShardState, depth: int) -> None:
        self._m().gauge(
            "shard_inflight", labelnames=("shard",),
            help="requests currently owned by each shard",
        ).labels(**shard.labels()).set(depth)

    # ---- responses ------------------------------------------------------

    def _on_response(self, shard: ShardState, req_id: str, ticket,
                     meta) -> None:
        with shard.lock:
            record = shard.inflight.pop(req_id, None)
            depth = len(shard.inflight)
        self._set_inflight_gauge(shard, depth)
        if record is None:
            # Re-queued elsewhere after a presumed death; drop the late
            # duplicate.  Overflow segments are unlinked; a slot is left
            # to the (replaced) arena rather than risking a double-free.
            if ticket is not None and ticket[0] == "seg":
                transport.unlink_segment(transport.attach_segment(ticket[1]))
            return
        try:
            response = build_response(shard, record, ticket, meta,
                                      clock=self._clock, tracer=self.tracer)
        except Exception as exc:
            from repro.serve.result import SVDResponse

            response = SVDResponse.for_request(
                record.request, "error",
                error=f"shard response unpack failed: {exc}", shard=shard.id)
        record.drop_segment()
        labels = shard.labels()
        self._m().counter(
            "shard_responses_total", labelnames=("shard", "status"),
            help="responses returned per shard and status",
        ).labels(status=response.status, **labels).inc()
        self._m().histogram(
            "shard_roundtrip_s", labelnames=("shard",),
            help="submit-to-response wall time per shard",
        ).labels(**labels).observe(self._clock() - record.request.submitted_at)
        self._deliver(record, response)

    def _deliver(self, record: Inflight, response) -> None:
        if self.on_response is not None:
            try:
                self.on_response(record.request, response)
            except Exception:
                pass
        if not record.handle.done():  # no hook, or it failed to fulfil
            record.handle._fulfil(response)

    # ---- observability / lifecycle --------------------------------------

    def stats(self) -> dict:
        """Topology, depth, and forwarded worker health per shard.

        ``request_cpu_total_s`` sums the workers' cumulative
        request-attributed CPU seconds (shipped in ping replies), the
        shard tier's aggregate cost counter.
        """
        return {
            "shards": [
                {"id": s.id, "alive": s.alive, "pid": s.pid,
                 "generation": s.generation, "inflight": s.depth,
                 "max_inflight": self.max_inflight, "worker": s.last_report}
                for s in self.shards
            ],
            "request_cpu_total_s": sum(
                (s.last_report or {}).get("request_cpu_total_s", 0.0)
                for s in self.shards),
        }

    def close(self, timeout: float = 10.0) -> None:
        """Stop workers, join threads, release shared memory."""
        with self._topology_lock:
            if self._closing:
                return
            self._closing = True
        for shard in self.shards:
            if shard.conn is not None:
                try:
                    shard.send(("stop",))
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + timeout
        for shard in self.shards:
            if shard.process is not None:
                shard.process.join(max(0.1, deadline - time.monotonic()))
                if shard.process.is_alive():
                    shard.process.terminate()
                    shard.process.join(5.0)
            if shard.conn is not None:
                try:
                    shard.conn.close()
                except OSError:
                    pass
            if shard.arena is not None:
                shard.arena.close()
                shard.arena = None
            shard.alive = False
        if self._monitor.is_alive():
            self._monitor.join(timeout=self.ping_interval_s + 1.0)
