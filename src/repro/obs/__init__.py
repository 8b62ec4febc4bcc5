"""Observability: span tracing and per-sweep telemetry.

The paper's evaluation is all about *where cycles go* — per-sweep
rotation/update overlap (Table I, Figs 7-11) — and a serving deployment
needs the same visibility per request.  This package supplies it
without any external dependency:

* :class:`~repro.obs.tracer.Tracer` — a context-variable based tracer
  with nested :func:`~repro.obs.tracer.span` scopes carrying a name,
  attributes, monotonic start time and duration.  Installing a tracer
  via :func:`~repro.obs.tracer.use_tracer` makes every instrumented
  layer emit spans: the core engines (``core.sweep`` / ``core.round`` /
  ``core.finalize``), the hardware cycle model (``hw.estimate`` and its
  modeled per-sweep children, so modeled and measured time can be
  overlaid), and the serving layer (``serve.request`` →
  ``serve.queue_wait`` / ``serve.batch`` → ``serve.engine``).
* :mod:`~repro.obs.metrics` — process-wide labeled Counter / Gauge /
  Histogram instruments with a default global registry
  (:func:`~repro.obs.metrics.get_registry`), which the serving layer
  records into.
* :mod:`~repro.obs.health` — numerical-health monitors: per-sweep
  NaN/Inf guards in every engine, a :class:`~repro.obs.health.HealthReport`
  attached to each ``SVDResult``, and an optional fail-fast mode.
* :mod:`~repro.obs.exporters` — Chrome ``chrome://tracing`` JSON,
  an indented text tree, and Prometheus text exposition of a
  :class:`repro.obs.metrics.MetricsRegistry` (label-aware).
* :mod:`~repro.obs.prof` — continuous profiling: a sampling profiler
  attributing Python stacks to span phases
  (:class:`~repro.obs.prof.SampleProfiler`), tracemalloc peak-heap
  attribution for the streaming tier
  (:func:`~repro.obs.prof.heap_phase`), and per-request CPU cost
  metrics (:func:`~repro.obs.prof.record_request_cpu`) — the input
  data for ``repro prof-compare`` phase-share gating.

The disabled path (no tracer installed, or a
:class:`~repro.obs.tracer.NullTracer`) is a single context-variable
read per instrumented scope and is budgeted at <= 5% overhead on the
engine hot path (enforced by ``benchmarks/bench_obs.py``).

Example
-------
>>> from repro.obs import Tracer, use_tracer, span
>>> tracer = Tracer()
>>> with use_tracer(tracer):
...     with span("outer", layer="demo") as outer:
...         with span("inner") as inner:
...             _ = inner.set_attr("pairs", 4)
>>> [s.name for s in tracer.spans]
['inner', 'outer']
>>> tracer.spans[0].parent_id == tracer.spans[1].span_id
True
"""

from repro.obs.events import (
    Event,
    EventLog,
    emit,
    get_event_log,
    use_event_log,
)
from repro.obs.events import context as event_context
from repro.obs.exporters import (
    chrome_trace_events,
    metrics_to_prometheus,
    profile_counter_events,
    render_span_tree,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.prof import (
    AllocationProfiler,
    Profile,
    SampleProfiler,
    get_alloc_profiler,
    get_profiler,
    heap_phase,
    profiling_active,
    record_request_cpu,
    request_cpu_total,
    shape_label,
    use_alloc_profiler,
    use_profiler,
)
from repro.obs.recorder import (
    FlightRecorder,
    get_recorder,
    trigger_dump,
    use_recorder,
)
from repro.obs.slo import (
    SLO,
    SLOEngine,
    default_objectives,
    get_slo_engine,
    use_slo_engine,
)
from repro.obs.health import (
    HealthError,
    HealthReport,
    fail_fast,
    health_from_result,
    set_fail_fast,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.tracer import (
    DETAIL_LEVELS,
    NOOP_SPAN,
    NullTracer,
    Span,
    Tracer,
    current_span,
    current_tracer,
    noop_span,
    round_detail,
    span,
    use_tracer,
)

__all__ = [
    "AllocationProfiler",
    "Counter",
    "DETAIL_LEVELS",
    "Event",
    "EventLog",
    "FlightRecorder",
    "Gauge",
    "HealthError",
    "HealthReport",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NullTracer",
    "Profile",
    "SLO",
    "SLOEngine",
    "SampleProfiler",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "current_span",
    "current_tracer",
    "default_objectives",
    "emit",
    "event_context",
    "fail_fast",
    "get_alloc_profiler",
    "get_event_log",
    "get_profiler",
    "get_recorder",
    "get_registry",
    "get_slo_engine",
    "health_from_result",
    "heap_phase",
    "metrics_to_prometheus",
    "noop_span",
    "profile_counter_events",
    "profiling_active",
    "record_request_cpu",
    "render_span_tree",
    "request_cpu_total",
    "round_detail",
    "set_fail_fast",
    "set_registry",
    "shape_label",
    "span",
    "to_chrome_trace",
    "trigger_dump",
    "use_alloc_profiler",
    "use_event_log",
    "use_profiler",
    "use_recorder",
    "use_registry",
    "use_slo_engine",
    "use_tracer",
    "write_chrome_trace",
]
