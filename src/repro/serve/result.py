"""Typed responses from the SVD serving layer.

A :class:`SVDResponse` pairs the decomposition outcome with the serving
metadata operators care about: where the time went (queue vs service),
whether the result came from cache, how large the dispatched batch was,
and which engine actually ran (the scheduler may degrade ``hw`` to
``core`` under failure or deadline pressure).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.result import SVDResult
from repro.serve.request import DeadlineExceeded, ServeError

__all__ = ["STATUSES", "SVDResponse"]

#: Terminal states a request can reach.
STATUSES = ("ok", "error", "timeout", "rejected")


@dataclass
class SVDResponse:
    """Outcome of one served decomposition.

    Attributes
    ----------
    request_id : str
        Matches the submitted request.
    status : str
        One of :data:`STATUSES`: ``"ok"`` (result present), ``"error"``
        (solver failure), ``"timeout"`` (deadline passed first) or
        ``"rejected"`` (backpressure refused admission).
    result : SVDResult or None
        The decomposition, present iff ``status == "ok"``.
    error : str or None
        Failure description for non-ok statuses.
    engine : str
        Engine that produced the result (after any degradation).
    cache_hit : bool
        Whether the result was served from the cache.
    batch_size : int
        Size of the micro-batch this request was dispatched in
        (0 for cache hits and rejected/expired requests).
    queued_s : float
        Time spent waiting between submission and dispatch.
    service_s : float
        Time spent inside the solver dispatch.
    total_s : float
        Submission-to-completion wall time.
    trace_id : str or None
        Correlation id of this request's spans when the server was
        constructed with a tracer (matches the ``trace_id`` attribute
        on the ``serve.request`` span tree), else None.
    shard : int or None
        Id of the worker shard that served the request, when it came
        through :class:`repro.serve.shard.ShardedSVDServer`; ``None``
        for single-process serving and front-cache hits.
    cpu_s : float
        Process CPU seconds attributed to this request (the batch's
        dispatch CPU split evenly across its requests); 0.0 for cache
        hits and failed requests.  The same value feeds the
        ``request_cpu_seconds`` metric family
        (:func:`repro.obs.prof.record_request_cpu`).
    """

    request_id: str
    status: str = "ok"
    result: SVDResult | None = None
    error: str | None = None
    engine: str = "core"
    cache_hit: bool = False
    batch_size: int = 0
    queued_s: float = 0.0
    service_s: float = 0.0
    total_s: float = 0.0
    trace_id: str | None = None
    shard: int | None = None
    cpu_s: float = 0.0

    @classmethod
    def for_request(cls, request, status: str, **fields) -> "SVDResponse":
        """The response to *request*, carrying its id and trace id.

        ``engine`` defaults to the requested engine; pass the engine
        that actually ran when it differs.
        """
        fields.setdefault("engine", request.engine)
        return cls(request_id=request.request_id, status=status,
                   trace_id=request.trace_id, **fields)

    @property
    def ok(self) -> bool:
        """Whether the request completed with a result."""
        return self.status == "ok"

    @property
    def health(self):
        """Numerical-health report of the underlying run, when present.

        ``None`` for non-ok responses and for results produced before
        health monitoring existed (e.g. deserialized caches).
        """
        return getattr(self.result, "health", None)

    def unwrap(self) -> SVDResult:
        """Return the result, raising a serving error for non-ok statuses.

        ``"timeout"`` raises :class:`repro.serve.request.DeadlineExceeded`;
        other failures raise :class:`repro.serve.request.ServeError`.
        """
        if self.ok:
            assert self.result is not None
            return self.result
        message = f"request {self.request_id} {self.status}: {self.error}"
        if self.status == "timeout":
            raise DeadlineExceeded(message)
        raise ServeError(message)
