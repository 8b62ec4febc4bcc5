"""The request front door shared by every serving tier.

:class:`FrontDoor` is the base class of the single-process
:class:`repro.serve.server.SVDServer` and the sharded
:class:`repro.serve.shard.ShardedSVDServer`.  It owns everything
between the caller and a tier's own admission — the closed check,
request validation, the ``serve.request.submitted`` event, the
front-cache lookup, the pending-handle registry and rejection — plus
the one terminal outcome recorder, :meth:`FrontDoor._finish`.  A tier
supplies only :meth:`FrontDoor._admit` (hand the request to its queue
or router) and calls ``_finish`` once per admitted request.

:class:`ResponseHandle` is the future-like object ``submit`` returns on
every tier; the asyncio façade bridges it onto the event loop.
"""

from __future__ import annotations

import itertools
import threading

from repro.obs.events import emit
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import observe as slo_observe
from repro.serve.cache import ResultCache
from repro.serve.request import ServeError, SVDRequest, make_request
from repro.serve.result import SVDResponse

__all__ = ["FrontDoor", "ResponseHandle", "ServerClosed"]

#: Front-door counter bumped for each terminal status.
_OUTCOME_COUNTERS = {
    "ok": "requests_completed",
    "error": "requests_failed",
    "timeout": "requests_timeout",
    "rejected": "requests_rejected",
}


class ServerClosed(ServeError):
    """Submission attempted on a closed server."""


class ResponseHandle:
    """Future-like handle for one submitted request."""

    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self._event = threading.Event()
        self._response: SVDResponse | None = None
        self._callbacks: list = []
        self._cb_lock = threading.Lock()

    def done(self) -> bool:
        """Whether the response is available."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> SVDResponse:
        """Block until the response arrives (raises on *timeout* expiry)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id}: no response within {timeout}s"
            )
        assert self._response is not None
        return self._response

    def add_done_callback(self, fn) -> None:
        """Run ``fn(response)`` when the handle fulfils.

        Fires immediately (in the calling thread) when already done;
        otherwise runs in whichever thread fulfils the handle — keep
        callbacks short and never block in them.
        """
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self._response)

    def _fulfil(self, response: SVDResponse) -> None:
        with self._cb_lock:
            self._response = response
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(response)


class FrontDoor:
    """Submission, front cache and outcome recording for a serving tier.

    Subclasses call ``super().__init__`` with the shared settings,
    implement :meth:`_admit`, and route every admitted request's
    outcome through :meth:`_finish`.  ``metrics`` counts front-door
    traffic: ``task_<task>_requests``, ``cache_hits``/``cache_misses``,
    ``requests_submitted`` and one counter per terminal status.
    """

    #: Tasks this tier cannot serve, mapped to the reason and the fix.
    unsupported_tasks: dict[str, str] = {}

    def __init__(self, *, cache_bytes: int | None, default_engine: str,
                 default_options: dict, clock, tracer) -> None:
        self.cache = ResultCache(cache_bytes) if cache_bytes else None
        self.metrics = MetricsRegistry()
        self.default_engine = default_engine
        self.default_options = default_options
        self.tracer = tracer
        self._clock = clock
        self._ids = itertools.count()
        self._pending: dict[str, ResponseHandle] = {}
        # Submit-time tracer timestamps, for root spans built later.
        self._trace_starts: dict[str, float] = {}
        self._pending_lock = threading.Lock()
        self._closed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---- submission -----------------------------------------------------

    def submit(self, matrix, *, engine: str | None = None,
               timeout: float | None = None, trace_id: str | None = None,
               **options) -> ResponseHandle:
        """Submit one decomposition; returns a :class:`ResponseHandle`.

        Front-cache hits complete synchronously (the handle is already
        done); misses go to the tier's :meth:`_admit`.  *timeout* sets
        the request deadline; expired requests resolve with status
        ``"timeout"``.  *trace_id* lets an upstream tier thread its own
        correlation id through this tier's spans and events instead of
        the local request id.  When admission refuses the request, the
        handle is fulfilled with status ``"rejected"``, attached to the
        raised :class:`~repro.serve.request.ServeError` as
        ``exc.handle``, and the exception propagates (429 semantics —
        the caller decides whether to retry).
        """
        if self._closed:
            raise ServerClosed(f"{type(self).__name__} is closed")
        task = options.get("task")
        if task in self.unsupported_tasks:
            raise ValueError(f"task={task!r} is not available on "
                             f"{type(self).__name__}: "
                             f"{self.unsupported_tasks[task]}")
        now = self._clock()
        request_id = f"req-{next(self._ids)}"
        trace_start = self.tracer.now() if self.tracer is not None else None
        if trace_id is None and self.tracer is not None:
            trace_id = request_id
        request = make_request(
            matrix, request_id=request_id,
            engine=engine or self.default_engine, now=now, timeout=timeout,
            trace_id=trace_id, **{**self.default_options, **options},
        )
        emit("serve.request.submitted",
             trace_id=request.trace_id or request.request_id,
             request_id=request.request_id, engine=request.engine,
             task=request.task)
        self.metrics.counter(f"task_{request.task}_requests").inc()
        handle = ResponseHandle(request.request_id)
        with self._pending_lock:
            self._pending[request.request_id] = handle
            if trace_start is not None:
                self._trace_starts[request.request_id] = trace_start
        if self.cache is not None:
            cached = self.cache.get(request.cache_key)
            if cached is not None:
                self.metrics.counter("cache_hits").inc()
                slo_observe("serve.admission", good=True)
                self._finish(request, SVDResponse.for_request(
                    request, "ok", result=cached, cache_hit=True,
                    total_s=self._clock() - now))
                return handle
            self.metrics.counter("cache_misses").inc()
        try:
            self._admit(request, handle, trace_start)
        except ServeError as exc:
            slo_observe("serve.admission", good=False)
            self._finish(request, SVDResponse.for_request(
                request, "rejected", error=str(exc)))
            exc.handle = handle
            raise
        self.metrics.counter("requests_submitted").inc()
        slo_observe("serve.admission", good=True)
        return handle

    def submit_many(self, matrices, *, on_error: str = "raise",
                    **kwargs) -> list[ResponseHandle]:
        """Submit a sequence of matrices; returns handles in input order.

        ``on_error="continue"`` keeps submitting past rejections: the
        failed positions still receive handles (already fulfilled with
        status ``"rejected"``), so a partial failure never scrambles
        the input/handle correspondence.
        """
        if on_error not in ("raise", "continue"):
            raise ValueError(f"on_error must be 'raise' or 'continue', "
                             f"got {on_error!r}")
        handles: list[ResponseHandle] = []
        for a in matrices:
            try:
                handles.append(self.submit(a, **kwargs))
            except ServeError as exc:
                if on_error == "raise":
                    raise
                handle = getattr(exc, "handle", None)
                if handle is None:  # e.g. ServerClosed: no handle was made
                    handle = ResponseHandle(f"req-rejected-{next(self._ids)}")
                    handle._fulfil(SVDResponse(
                        request_id=handle.request_id, status="rejected",
                        error=str(exc), engine=self.default_engine,
                    ))
                handles.append(handle)
        return handles

    def result(self, handle: ResponseHandle | str,
               timeout: float | None = None) -> SVDResponse:
        """Wait for a response, by handle or by request id."""
        if isinstance(handle, str):
            with self._pending_lock:
                found = self._pending.get(handle)
            if found is None:
                raise KeyError(f"unknown or already-collected request {handle!r}")
            handle = found
        return handle.result(timeout)

    # ---- the per-tier hook and the outcome recorder ---------------------

    def _admit(self, request: SVDRequest, handle: ResponseHandle,
               trace_start: float | None) -> None:
        """Hand a cache-missing request to the tier (raise to reject)."""
        raise NotImplementedError

    def _open_root(self, request: SVDRequest):
        """Open *request*'s ``serve.request`` root span at submit time."""
        with self._pending_lock:
            start = self._trace_starts.pop(request.request_id, None)
        return self.tracer.start_span(
            "serve.request", trace_id=request.trace_id, start=start,
            request_id=request.request_id, engine=request.engine)

    def _finish(self, request: SVDRequest, response: SVDResponse,
                root=None, *, announce: bool = True) -> None:
        """Record one request's outcome and fulfil its handle.

        The one terminal path of every request on every tier: caches an
        ok result, counts the status, judges the ``serve.request`` SLO
        (a rejection is judged by ``serve.admission`` instead), emits
        the terminal event (``serve.request.rejected`` or
        ``serve.request.done``), ends the root span (*root*, else one
        opened at submit time), and fulfils the pending handle.
        ``announce=False`` skips the event and span for a response whose
        own layer already logged them (a shard worker's replay).
        """
        status = response.status
        if response.ok and self.cache is not None and not response.cache_hit:
            self.cache.put(request.cache_key, response.result)
        self.metrics.counter(_OUTCOME_COUNTERS[status]).inc()
        if response.ok:
            slo_observe("serve.request", value=response.total_s)
        elif status != "rejected":
            slo_observe("serve.request", good=False)
        if announce:
            fields = dict(trace_id=request.trace_id or request.request_id,
                          request_id=request.request_id,
                          engine=request.engine)
            if status == "rejected":
                emit("serve.request.rejected", error=response.error, **fields)
            else:
                emit("serve.request.done", status=status,
                     cache_hit=response.cache_hit,
                     engine_used=response.engine,
                     batch_size=response.batch_size,
                     latency_s=response.total_s, **fields)
            if self.tracer is not None:
                if root is None:
                    root = self._open_root(request)
                root.set_attrs(status=status, cache_hit=response.cache_hit,
                               engine_used=response.engine,
                               batch_size=response.batch_size).end()
        with self._pending_lock:
            handle = self._pending.pop(request.request_id, None)
            self._trace_starts.pop(request.request_id, None)
        if handle is not None:
            handle._fulfil(response)
