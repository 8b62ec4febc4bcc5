"""Front-ends over the shard tier: blocking façade and asyncio wrapper.

:class:`ShardedSVDServer` shares the single-process
:class:`repro.serve.server.SVDServer`'s front door
(:class:`repro.serve.handle.FrontDoor`: ``submit`` / ``submit_many`` /
``result``, the front cache, outcome recording) but admits through a
:class:`repro.serve.shard.router.ShardRouter` to an array of worker
processes, so numpy-bound decompositions use every core instead of
sharing one GIL.  Front-cache hits answer repeats without crossing the
process boundary at all.

:class:`AsyncSVDServer` exposes the same service to ``asyncio`` code:
``submit`` returns an :class:`asyncio.Future` resolved on the event
loop (bridged from the worker callback via ``call_soon_threadsafe``),
and ``svd`` is the one-shot submit-and-await convenience.  Admission
failures (:class:`repro.serve.shard.router.ShardSaturated`, a 429-style
rejection) propagate as exceptions from ``submit`` in both façades,
with the already-fulfilled rejected handle attached as ``exc.handle``.
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.serve.handle import FrontDoor
from repro.serve.result import SVDResponse
from repro.serve.shard.router import ShardRouter

__all__ = ["ShardedSVDServer", "AsyncSVDServer", "default_shards"]


def default_shards() -> int:
    """Default worker count: one per core, capped at eight."""
    return max(1, min(os.cpu_count() or 1, 8))


class ShardedSVDServer(FrontDoor):
    """Multi-process SVD service with the single-process server's API.

    Submission, the front cache and outcome recording are the shared
    :class:`~repro.serve.handle.FrontDoor`; this tier admits requests
    through its :class:`~repro.serve.shard.router.ShardRouter`.

    Parameters
    ----------
    shards : int, optional
        Worker process count (default: :func:`default_shards`).
    max_inflight : int
        Per-shard admission limit; when every shard is full,
        :meth:`submit` raises
        :class:`~repro.serve.shard.router.ShardSaturated`.
    slot_bytes, arena_slots
        Shared-memory transport geometry per shard.
    max_batch, max_wait_s, workers, queue_size, worker_cache_bytes
        Inner pipeline settings, one copy per worker process
        (see :class:`repro.serve.server.SVDServer`).
    cache_bytes : int or None
        Front-side result-cache budget; ``None`` disables it.
    default_engine : str
        Engine used when a request does not choose.
    start_method : str, optional
        Worker start method (default ``"spawn"``).
    tracer : repro.obs.Tracer, optional
        Enables cross-process span stitching: worker-side spans are
        collected per trace id and rebased under a parent-side
        ``serve.shard.request`` root.
    trace_detail : str, optional
        Detail level of the tracer built *inside* each worker.
        Defaults to ``"sweep"`` whenever ``tracer`` is given, so
        worker spans always ship when the parent traces.
    **default_options
        Solver options applied to every request unless overridden.
    """

    # LSI indexes are hosted in-process; shard workers are separate
    # processes and hold none.  topk_svd shards fine.
    unsupported_tasks = {
        "lsi_query": "indexes live in the serving process, not in shard "
                     "workers; use a single-process SVDServer, or "
                     "task='topk_svd' for sharded truncation",
    }

    def __init__(
        self,
        shards: int | None = None,
        *,
        max_inflight: int = 32,
        slot_bytes: int = 1 << 18,
        arena_slots: int | None = None,
        max_batch: int = 8,
        max_wait_s: float = 0.002,
        workers: int = 2,
        queue_size: int = 256,
        worker_cache_bytes: int | None = None,
        cache_bytes: int | None = 64 * 1024 * 1024,
        default_engine: str = "core",
        start_method: str | None = None,
        clock=time.monotonic,
        tracer=None,
        trace_detail: str | None = None,
        ping_interval_s: float = 0.25,
        max_attempts: int = 3,
        respawn: bool = True,
        **default_options,
    ) -> None:
        super().__init__(cache_bytes=cache_bytes,
                         default_engine=default_engine,
                         default_options=default_options,
                         clock=clock, tracer=tracer)
        if tracer is not None and trace_detail is None:
            trace_detail = "sweep"  # workers must trace for stitching
        self.router = ShardRouter(
            shards if shards is not None else default_shards(),
            max_inflight=max_inflight,
            slot_bytes=slot_bytes,
            arena_slots=arena_slots,
            worker={
                "max_batch": max_batch,
                "max_wait_s": max_wait_s,
                "workers": workers,
                "queue_size": queue_size,
                "cache_bytes": worker_cache_bytes,
                "default_engine": default_engine,
                "default_options": dict(default_options),
                "trace_detail": trace_detail,
            },
            on_response=self._on_shard_response,
            start_method=start_method,
            clock=clock,
            tracer=tracer,
            ping_interval_s=ping_interval_s,
            max_attempts=max_attempts,
            respawn=respawn,
        )

    def close(self) -> None:
        """Stop the workers and release every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        self.router.close()

    def _admit(self, request, handle, trace_start) -> None:
        self.router.submit(request, handle, trace_start=trace_start)

    def _on_shard_response(self, request, response: SVDResponse) -> None:
        """Router hook: record a shard-tier outcome on the parent.

        A worker-served response arrives with the worker's own terminal
        event already replayed into the parent log under the same trace
        id, and its spans stitched under ``serve.shard.request``; only
        the in-process fallback (``response.shard is None``) still needs
        announcing.  Latency is judged on the parent's clock
        (``response.total_s``): the worker's SLO engine dies with its
        process.
        """
        self._finish(request, response, announce=response.shard is None)

    def stats(self) -> dict:
        """Topology + per-shard worker stats + front-cache accounting."""
        snap = self.router.stats()
        snap["cache"] = (self.cache.snapshot()
                         if self.cache is not None else None)
        with self._pending_lock:
            snap["pending"] = len(self._pending)
        return snap


class AsyncSVDServer:
    """``asyncio`` façade over a sharded (or any handle-based) server.

    Wraps an existing server when given one, otherwise builds a
    :class:`ShardedSVDServer` from the keyword arguments and owns its
    lifecycle.  Worker completions are bridged onto the event loop with
    ``loop.call_soon_threadsafe``, so awaiting coroutines never block a
    thread.

    Example
    -------
    >>> import asyncio, numpy as np
    >>> from repro.serve.shard import AsyncSVDServer
    >>> async def demo():
    ...     async with AsyncSVDServer(shards=1) as srv:
    ...         response = await srv.svd(np.eye(3) * 2.0, compute_uv=False)
    ...     return [float(v) for v in response.result.s]
    >>> asyncio.run(demo())
    [2.0, 2.0, 2.0]
    """

    def __init__(self, server=None, **kwargs) -> None:
        self._owns = server is None
        self.server = server if server is not None else ShardedSVDServer(
            **kwargs)

    def submit(self, matrix, *, engine: str | None = None,
               timeout: float | None = None, **options) -> asyncio.Future:
        """Submit from a running event loop; returns a Future[SVDResponse].

        Raises the same admission errors as the blocking ``submit``
        (e.g. :class:`~repro.serve.shard.router.ShardSaturated` with
        ``exc.handle`` set) — callers implement 429 retry policy.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        handle = self.server.submit(matrix, engine=engine, timeout=timeout,
                                    **options)
        handle.add_done_callback(
            lambda resp: loop.call_soon_threadsafe(_resolve, future, resp))
        return future

    async def svd(self, matrix, **kwargs) -> SVDResponse:
        """Submit one matrix and await its response."""
        return await self.submit(matrix, **kwargs)

    async def svd_many(self, matrices, **kwargs) -> list[SVDResponse]:
        """Submit a batch concurrently and await all responses in order."""
        return list(await asyncio.gather(
            *(self.submit(m, **kwargs) for m in matrices)))

    async def aclose(self) -> None:
        """Close the underlying server without blocking the loop."""
        if self._owns:
            await asyncio.get_running_loop().run_in_executor(
                None, self.server.close)

    async def __aenter__(self) -> "AsyncSVDServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def stats(self) -> dict:
        """Underlying server stats (cheap; safe to call from the loop)."""
        return self.server.stats()


def _resolve(future: asyncio.Future, response: SVDResponse) -> None:
    if not future.cancelled():
        future.set_result(response)
