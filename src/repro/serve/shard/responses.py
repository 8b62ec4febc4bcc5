"""Parent-side response assembly for the shard tier.

Turns a worker's ``("res", req_id, ticket, meta)`` reply back into a
full :class:`repro.serve.result.SVDResponse`: copies the singular
values (and U/Vᵀ) out of the shared-memory frame, reconstructs the
convergence trace and health report from their plain-dict wire forms,
and — when a tracer is installed — **stitches** the worker's spans
into the parent trace: every worker span is re-recorded with its
timestamps rebased by the shard's handshake clock offset, parent links
rebuilt, under a parent-side ``serve.shard.request`` root carrying the
request's trace id across the process boundary.
"""

from __future__ import annotations

import numpy as np

from repro.serve.shard import transport
from repro.serve.shard.state import Inflight, ShardState

__all__ = ["read_response_arrays", "build_response", "stitch_spans"]


def read_response_arrays(shard: ShardState, record: Inflight, ticket) -> list:
    """Copy response arrays out of shared memory and free the carriers."""
    if ticket is None:
        return []
    if ticket[0] == "slot":
        _, views = transport.unpack_message(
            shard.arena.buf, shard.arena.offset(ticket[1]),
            expect_state=transport.STATE_RESPONSE)
        arrays = [np.array(v) for v in views]
    else:
        seg = transport.attach_segment(ticket[1])
        try:
            _, views = transport.unpack_message(
                seg.buf, 0, expect_state=transport.STATE_RESPONSE)
            arrays = [np.array(v) for v in views]
            del views  # release buffer exports before closing the map
        finally:
            # When the response reused the request's own segment this
            # unlinks it; record.drop_segment() then just closes the
            # parent's original mapping.
            transport.unlink_segment(seg)
    if record.ticket and record.ticket[0] == "slot":
        shard.arena.release(record.ticket[1])
        record.ticket = None
    return arrays


def release_request_ticket(shard: ShardState, record: Inflight) -> None:
    """Return the request's arena slot, when one is still held."""
    if record.ticket and record.ticket[0] == "slot" and shard.arena is not None:
        shard.arena.release(record.ticket[1])
    record.ticket = None


def build_response(shard: ShardState, record: Inflight, ticket, meta,
                   *, clock, tracer=None):
    """Assemble the :class:`~repro.serve.result.SVDResponse` for a reply."""
    from repro.core.convergence import ConvergenceTrace
    from repro.core.result import SVDResult
    from repro.obs.health import HealthReport
    from repro.serve.result import SVDResponse

    request = record.request
    status = meta.get("status", "error")
    result = None
    if status == "ok":
        arrays = read_response_arrays(shard, record, ticket)
        s = arrays[0]
        u = vt = None
        if meta.get("uv") and len(arrays) == 3:
            u, vt = arrays[1], arrays[2]
        trace = None
        if meta.get("trace"):
            trace = ConvergenceTrace(**meta["trace"])
        health = None
        if meta.get("health"):
            health = HealthReport(**meta["health"])
        result = SVDResult(
            s=s, u=u, vt=vt, sweeps=meta.get("sweeps", 0), trace=trace,
            method=meta.get("method", ""),
            converged=meta.get("converged", True), health=health,
            precision=meta.get("precision", "fp64"),
            fp32_sweeps=int(meta.get("fp32_sweeps", 0)),
        )
    else:
        release_request_ticket(shard, record)
    if tracer is not None:
        stitch_spans(tracer, shard, record, meta)
    # Merge the worker's shipped events into the parent's event log,
    # stamped with the shard id — the parent-side narrative then covers
    # the whole request even after the worker process is gone.
    from repro.obs.events import replay

    replay(meta.get("events") or (), shard=shard.id)
    cpu_s = float(meta.get("cpu_s", 0.0))
    if status == "ok" and cpu_s > 0.0 and not meta.get("cache_hit"):
        # The worker measured the CPU in its own process; re-record it
        # into the parent registry so `repro stats` / the Prometheus
        # dump see cost attribution without scraping every worker.
        from repro.obs.prof import record_request_cpu

        record_request_cpu(
            engine=meta.get("engine", request.engine),
            shape=request.matrix.shape,
            precision=meta.get("precision", "fp64"),
            cpu_s=cpu_s,
        )
    return SVDResponse.for_request(
        request, status, result=result,
        error=meta.get("error"), engine=meta.get("engine", request.engine),
        cache_hit=bool(meta.get("cache_hit")),
        batch_size=int(meta.get("batch_size", 0)),
        queued_s=float(meta.get("queued_s", 0.0)),
        service_s=float(meta.get("service_s", 0.0)),
        total_s=clock() - request.submitted_at, shard=shard.id, cpu_s=cpu_s,
    )


def stitch_spans(tracer, shard: ShardState, record: Inflight, meta) -> None:
    """Rebase worker spans into the parent clock under one root span."""
    t_end = tracer.now()
    start = record.trace_start if record.trace_start is not None else t_end
    root = tracer.start_span(
        "serve.shard.request", trace_id=record.request.trace_id,
        start=start, shard=shard.id,
        request_id=record.request.request_id,
        engine=record.request.engine, status=meta.get("status"),
    )
    offset = shard.clock_offset
    id_map: dict[int, object] = {}
    for sp in sorted(meta.get("spans") or (), key=lambda d: d["start"]):
        parent = id_map.get(sp.get("parent_id"), root)
        attrs = dict(sp.get("attrs") or {})
        attrs.setdefault("shard", shard.id)
        new = tracer.add_span(
            sp["name"], start=sp["start"] + offset,
            end=sp["start"] + sp["duration"] + offset, parent=parent,
            trace_id=record.request.trace_id, **attrs)
        id_map[sp["span_id"]] = new
    root.end(t_end)
