"""Production serving layer: micro-batching SVD-as-a-service.

The paper's target workloads — robust PCA over video, LSI indexing,
streaming PCA — issue *streams* of decompositions against one shared
engine.  This package supplies the host-side machinery between
"library call" and "service": typed requests and responses, a bounded
admission queue with backpressure, a micro-batching scheduler that
coalesces compatible requests into worker-pool dispatches, an LRU
result cache keyed by content digests, retry/graceful-degradation
helpers, and a metrics registry — all tied together by
:class:`~repro.serve.server.SVDServer`.

Quickstart
----------
>>> import numpy as np
>>> from repro.serve import SVDServer
>>> with SVDServer() as srv:
...     handles = srv.submit_many([np.eye(2), np.eye(3)], compute_uv=False)
...     sizes = [len(h.result(timeout=30.0).result.s) for h in handles]
>>> sizes
[2, 3]
"""

from repro.serve.cache import CacheStats, ResultCache, result_nbytes
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.queue import QueueClosed, QueueFull, RequestQueue
from repro.serve.request import (
    ENGINES,
    DeadlineExceeded,
    ServeError,
    SVDRequest,
    make_request,
)
from repro.serve.result import SVDResponse
from repro.serve.retry import EngineExecutor, RetryPolicy, retry_call
from repro.serve.scheduler import Batch, BatchConfig, MicroBatcher
from repro.serve.server import ResponseHandle, ServerClosed, SVDServer
from repro.serve.shard import (  # noqa: E402 - must follow serve.server
    AsyncSVDServer,
    ShardedSVDServer,
    ShardSaturated,
)

__all__ = [
    "ENGINES",
    "AsyncSVDServer",
    "Batch",
    "BatchConfig",
    "CacheStats",
    "Counter",
    "DeadlineExceeded",
    "EngineExecutor",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MicroBatcher",
    "QueueClosed",
    "QueueFull",
    "RequestQueue",
    "ResponseHandle",
    "ResultCache",
    "RetryPolicy",
    "SVDRequest",
    "SVDResponse",
    "SVDServer",
    "ServeError",
    "ServerClosed",
    "ShardSaturated",
    "ShardedSVDServer",
    "result_nbytes",
    "retry_call",
    "make_request",
]
