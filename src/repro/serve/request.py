"""Typed requests for the SVD serving layer.

A :class:`SVDRequest` is one decomposition a client wants: the matrix,
the solver options, the engine to run on, and an optional deadline.
Requests are what flows through the queue and scheduler; they carry the
two keys the serving layer batches and caches by:

* :attr:`SVDRequest.batch_key` — shape + dtype + engine + options.
  Requests with equal batch keys are *compatible*: they can be coalesced
  into one micro-batch and dispatched through
  :func:`repro.core.batch.batch_svd` together.
* :attr:`SVDRequest.cache_key` — a content digest of the matrix bytes
  plus the batch key, so the result cache returns hits only for
  bit-identical inputs decomposed with identical options.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.registry import METHODS
from repro.util.hashing import digest
from repro.util.validation import as_float_matrix, check_in_choices

__all__ = ["ENGINES", "TASKS", "ServeError", "DeadlineExceeded", "SVDRequest",
           "make_request"]

#: Execution engines a request may target: ``"core"`` (the default
#: solver configuration), any engine registered in
#: :mod:`repro.core.registry` by name, or the cycle-modelled FPGA
#: accelerator ("hw").  Derived from the registry so serve's vocabulary
#: can never drift from the core dispatch.
ENGINES = ("core", *METHODS, "hw")

#: Request tasks: a full decomposition ("svd", the default), a rank-k
#: truncation ("topk_svd" — carries ``rank`` and optionally ``driver``
#: from :data:`repro.stream.drivers.TOPK_DRIVERS`), or a hosted-LSI
#: retrieval ("lsi_query" — carries ``index`` and ``top_k``; the
#: matrix payload is the term-space query vector).  The task and its
#: parameters travel inside :attr:`SVDRequest.options`, so batch keys,
#: cache keys and the shard wire format are unchanged — plain "svd"
#: requests build byte-identical requests to before.
TASKS = ("svd", "topk_svd", "lsi_query")


class ServeError(RuntimeError):
    """Base class for serving-layer failures."""


class DeadlineExceeded(ServeError):
    """A request's deadline passed before its result was produced."""


@dataclass(frozen=True)
class SVDRequest:
    """One decomposition job flowing through the serving layer.

    Attributes
    ----------
    request_id : str
        Server-assigned identifier, unique within a server lifetime.
    matrix : numpy.ndarray
        Validated C-contiguous float64 input (via
        :func:`repro.util.validation.as_float_matrix`).
    options : tuple of (str, object)
        Solver options as a sorted tuple of pairs — hashable, so it can
        participate in the batch key.
    engine : str
        One of :data:`ENGINES` — ``"core"``, a registry engine name
        (``"reference"``, ``"blocked"``, ...) or ``"hw"``.
    submitted_at : float
        Clock reading when the request entered the server.
    deadline : float or None
        Absolute clock time after which the result is worthless; the
        scheduler drops expired requests and may degrade the engine
        under deadline pressure.
    trace_id : str or None
        Tracing correlation id assigned at submission when the server
        has a tracer; spans of this request's lifecycle carry it, and
        it is echoed on the response.
    """

    request_id: str
    matrix: np.ndarray = field(repr=False)
    options: tuple = ()
    engine: str = "core"
    submitted_at: float = 0.0
    deadline: float | None = None
    trace_id: str | None = field(default=None, compare=False)

    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape, for grouping and reporting."""
        return self.matrix.shape

    @property
    def task(self) -> str:
        """The request task (:data:`TASKS`); "svd" unless set in options."""
        return dict(self.options).get("task", "svd")

    @property
    def batch_key(self) -> tuple:
        """Compatibility key: requests sharing it may share a micro-batch."""
        return (self.matrix.shape, self.matrix.dtype.str, self.engine,
                self.options)

    @property
    def cache_key(self) -> str:
        """Content digest keying the result cache (matrix + options + engine)."""
        return digest(self.matrix,
                      extra={"engine": self.engine, "options": self.options})

    def expired(self, now: float) -> bool:
        """Whether *now* is past the deadline (False when no deadline)."""
        return self.deadline is not None and now > self.deadline

    def remaining(self, now: float) -> float:
        """Seconds until the deadline (``inf`` when no deadline)."""
        if self.deadline is None:
            return float("inf")
        return self.deadline - now


def _validate_task_options(options: dict, engine: str, shape: tuple) -> dict:
    """Pop and validate the task-level options; return what to re-insert.

    Mutates *options* in place (removing the task keys so the
    remaining dict is pure solver vocabulary for
    :class:`~repro.core.svd.HestenesJacobiSVD`), and returns the
    canonical task entries to fold back into the request's options
    tuple.  Plain ``task="svd"`` contributes nothing, keeping legacy
    requests' batch and cache keys byte-identical.
    """
    from repro.util.validation import check_positive_int

    task = options.pop("task", "svd")
    rank = options.pop("rank", None)
    driver = options.pop("driver", None)
    index = options.pop("index", None)
    top_k = options.pop("top_k", None)
    check_in_choices(task, TASKS, name="task")
    out: dict = {}
    if task == "svd":
        for name, value in (("rank", rank), ("driver", driver),
                            ("index", index), ("top_k", top_k)):
            if value is not None:
                raise ValueError(
                    f"{name} is only valid with task='topk_svd' or "
                    f"task='lsi_query', not the default task='svd'"
                )
        return out
    if task == "topk_svd":
        if index is not None or top_k is not None:
            raise ValueError("index/top_k are lsi_query options, not topk_svd")
        if rank is None:
            raise ValueError("task='topk_svd' requires rank=")
        rank = check_positive_int(rank, name="rank")
        if rank > min(shape):
            raise ValueError(f"rank={rank} exceeds min(m, n)={min(shape)}")
        if engine == "hw":
            raise ValueError(
                "task='topk_svd' needs singular vectors; the hardware-"
                "faithful 'hw' engine emits singular values only — "
                "use 'core' or a registry engine"
            )
        if driver is not None:
            from repro.stream.drivers import TOPK_DRIVERS

            check_in_choices(driver, TOPK_DRIVERS, name="driver")
            out["driver"] = driver
        out["task"] = task
        out["rank"] = rank
        return out
    # task == "lsi_query"
    if rank is not None or driver is not None:
        raise ValueError("rank/driver are topk_svd options, not lsi_query")
    if engine != "core":
        raise ValueError(
            "task='lsi_query' resolves against an in-process index; "
            f"engine must be 'core', got {engine!r}"
        )
    if not index or not isinstance(index, str):
        raise ValueError("task='lsi_query' requires index=<registered name>")
    from repro.stream.serving import get_index, index_version

    hosted = get_index(index)  # raises KeyError naming registered indexes
    expected = hosted.term_space.shape[0]
    if int(np.prod(shape)) != expected:
        raise ValueError(
            f"lsi_query matrix must be the term-space query vector "
            f"({expected} entries for index {index!r}), got shape {shape}"
        )
    out["task"] = task
    out["index"] = index
    out["top_k"] = check_positive_int(top_k if top_k is not None else 3,
                                      name="top_k")
    # The index version keys the cache: add_documents bumps it, so
    # query results cached against the old state stop matching.
    out["index_version"] = index_version(index)
    return out


def make_request(
    matrix,
    *,
    request_id: str,
    engine: str = "core",
    now: float = 0.0,
    timeout: float | None = None,
    trace_id: str | None = None,
    **options,
) -> SVDRequest:
    """Validate inputs and build an :class:`SVDRequest`.

    Parameters
    ----------
    matrix : array_like
        The input matrix; coerced to C-contiguous float64.
    request_id : str
        Identifier assigned by the caller (normally the server).
    engine : str
        One of :data:`ENGINES`.
    now : float
        Current clock reading; stored as ``submitted_at`` and used to
        convert *timeout* into an absolute deadline.
    timeout : float or None
        Relative deadline in seconds; ``None`` means no deadline.
    trace_id : str or None
        Tracing correlation id (normally server-assigned).
    **options
        Solver options, validated eagerly by constructing a
        :class:`repro.core.svd.HestenesJacobiSVD` so typos fail at
        submission, not inside a worker thread.  An ``engine_opts``
        mapping is canonicalized to a sorted tuple of pairs so the
        request stays hashable for batching and caching.  A ``task``
        option (:data:`TASKS`) selects rank-k truncation
        (``task="topk_svd"`` with ``rank`` and an optional ``driver``)
        or hosted-index retrieval (``task="lsi_query"`` with ``index``
        and ``top_k``); task parameters are validated here and travel
        in the options tuple.
    """
    from repro.core.svd import HestenesJacobiSVD

    check_in_choices(engine, ENGINES, name="engine")
    arr = as_float_matrix(matrix, name="matrix")
    task_options = _validate_task_options(options, engine, arr.shape)
    HestenesJacobiSVD(**options)  # eager option-name validation
    if options.get("precision") is not None:
        # Validate the precision *value* and the target engine's support
        # here at submission: a worker-side failure would surface as a
        # degraded/error response long after the client could fix the
        # call, and the typed error names the fix.
        from repro.core.registry import PRECISIONS, resolve_engine

        check_in_choices(options["precision"], PRECISIONS, name="precision")
        if options["precision"] != "fp64":
            method = engine if engine in METHODS else options.get(
                "method", "blocked")
            supported = (
                engine != "hw"
                and method in METHODS
                and "precision" in resolve_engine(method).options_schema
            )
            if not supported:
                raise ValueError(
                    f"precision={options['precision']!r} is not supported "
                    f"by engine {engine!r} (method {method!r}); use "
                    f'engine/method "vectorized" for reduced precision'
                )
    if options.get("engine_opts"):
        # Validate contents against the engine that will actually run:
        # a registry engine named directly, or the core path's method.
        from repro.core.registry import resolve_engine

        method = engine if engine in METHODS else options.get("method",
                                                              "blocked")
        resolve_engine(method).validate_options(dict(options["engine_opts"]))
    if isinstance(options.get("engine_opts"), dict):
        options["engine_opts"] = tuple(sorted(options["engine_opts"].items()))
    options.update(task_options)
    if isinstance(matrix, np.ndarray) and np.shares_memory(arr, matrix):
        arr = arr.copy()  # snapshot: the caller may mutate theirs after submit
    arr.setflags(write=False)
    deadline = None if timeout is None else now + float(timeout)
    return SVDRequest(
        request_id=request_id,
        matrix=arr,
        options=tuple(sorted(options.items())),
        engine=engine,
        submitted_at=now,
        deadline=deadline,
        trace_id=trace_id,
    )
