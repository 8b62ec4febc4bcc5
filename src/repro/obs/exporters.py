"""Span and metrics exporters: Chrome trace JSON, text tree, Prometheus.

Three output formats, all dependency-free:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  Trace Event format (open the file at ``chrome://tracing`` or in
  Perfetto).  Each span becomes one complete ("X") event; span ids,
  parent ids and the trace id ride along in ``args`` so request flows
  can be filtered.
* :func:`render_span_tree` — an indented text rendering of the span
  forest for terminals and test output.
* :func:`metrics_to_prometheus` — Prometheus text exposition of a
  :class:`repro.obs.metrics.MetricsRegistry` (counters, gauges, and
  standard cumulative-bucket histograms with ``_sum``/``_count``).
"""

from __future__ import annotations

import json

__all__ = [
    "chrome_trace_events",
    "profile_counter_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_span_tree",
    "metrics_to_prometheus",
]


def _spans_of(tracer_or_spans) -> list:
    spans = getattr(tracer_or_spans, "spans", tracer_or_spans)
    return [sp if isinstance(sp, dict) else sp.to_dict() for sp in spans]


def _jsonable(value):
    """Coerce an attribute to something json.dumps accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


def chrome_trace_events(tracer_or_spans, *, pid: int = 1) -> list[dict]:
    """Spans as Chrome Trace Event dicts (complete events, µs units).

    Timestamps are rebased to the earliest span start so the trace
    begins at t=0 regardless of the tracer's clock origin.
    """
    spans = _spans_of(tracer_or_spans)
    if not spans:
        return []
    origin = min(sp["start"] for sp in spans)
    events = []
    for sp in spans:
        args = {k: _jsonable(v) for k, v in sp["attrs"].items()}
        args["span_id"] = sp["span_id"]
        if sp["parent_id"] is not None:
            args["parent_id"] = sp["parent_id"]
        if sp["trace_id"] is not None:
            args["trace_id"] = sp["trace_id"]
        events.append(
            {
                "name": sp["name"],
                "cat": sp["name"].split(".", 1)[0],
                "ph": "X",
                "ts": (sp["start"] - origin) * 1e6,
                "dur": sp["duration"] * 1e6,
                "pid": pid,
                "tid": sp["thread_id"],
                "args": args,
            }
        )
    events.sort(key=lambda e: e["ts"])
    return events


def profile_counter_events(profile, *, pid: int = 1,
                           origin: float | None = None) -> list[dict]:
    """A sampling profile's timeline as Chrome counter ("C") events.

    Each profiler tick becomes one counter sample whose series are the
    span phases observed that tick — rendered by Chrome/Perfetto as a
    stacked area chart ("samples by phase") aligned under the span
    track when the profile and the spans share a clock (both default
    to ``time.perf_counter``; pass the span track's *origin* to line
    the timelines up).
    """
    timeline = getattr(profile, "timeline", profile)
    if not timeline:
        return []
    base = min(t for t, _ in timeline) if origin is None else origin
    events = []
    for t, phases in timeline:
        events.append(
            {
                "name": "prof.samples",
                "cat": "prof",
                "ph": "C",
                "ts": (t - base) * 1e6,
                "pid": pid,
                "args": {str(k): v for k, v in sorted(phases.items())},
            }
        )
    events.sort(key=lambda e: e["ts"])
    return events


def to_chrome_trace(tracer_or_spans, *, profile=None) -> dict:
    """The full Chrome trace document (``{"traceEvents": [...]}``).

    When *profile* (a :class:`repro.obs.prof.Profile`) is given, its
    tick timeline is appended as a ``prof.samples`` counter track
    rebased to the same origin as the spans, so the phase breakdown
    renders directly under the request flow.
    """
    events = chrome_trace_events(tracer_or_spans)
    if profile is not None:
        spans = _spans_of(tracer_or_spans)
        origin = min(sp["start"] for sp in spans) if spans else None
        events.extend(profile_counter_events(profile, origin=origin))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(path, tracer_or_spans, *, profile=None) -> str:
    """Serialize :func:`to_chrome_trace` to *path*; returns the path."""
    doc = to_chrome_trace(tracer_or_spans, profile=profile)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return str(path)


def render_span_tree(tracer_or_spans, *, attrs: bool = True) -> str:
    """Indented text rendering of the span forest (roots first).

    Spans whose parent was never recorded (e.g. round spans under a
    sweep-detail tracer) render as roots.
    """
    spans = _spans_of(tracer_or_spans)
    if not spans:
        return "(no spans recorded)"
    by_id = {sp["span_id"]: sp for sp in spans}
    children: dict = {}
    roots = []
    for sp in sorted(spans, key=lambda s: (s["start"], s["span_id"])):
        parent = sp["parent_id"]
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(sp)
        else:
            roots.append(sp)
    lines: list[str] = []

    def walk(sp, depth):
        extra = ""
        if attrs and sp["attrs"]:
            pairs = ", ".join(f"{k}={v!r}" for k, v in sorted(sp["attrs"].items()))
            extra = f"  [{pairs}]"
        trace = f"  trace={sp['trace_id']}" if sp["trace_id"] else ""
        lines.append(
            f"{'  ' * depth}{sp['name']}  {sp['duration'] * 1e3:.3f} ms"
            f"{trace}{extra}"
        )
        for child in children.get(sp["span_id"], []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def _metric_name(name: str) -> str:
    safe = "".join(c if c.isalnum() else "_" for c in name)
    return f"repro_{safe}"


def _escape_label_value(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_pairs(labels: dict, extra: dict | None = None) -> str:
    """Render ``{k="v",...}`` for the merged label sets (may be empty)."""
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in merged.items()
    )
    return "{" + inner + "}"


def _format_le(bound: float) -> str:
    """Render a bucket upper bound as Prometheus renders it."""
    if bound == float("inf"):
        return "+Inf"
    return f"{bound:g}"


def metrics_to_prometheus(registry) -> str:
    """Prometheus text exposition of a MetricsRegistry.

    Counters render as ``repro_<name>[{labels}] <value>``; gauges
    likewise; histograms expand to the standard cumulative shape —
    one ``_bucket{le="..."}`` line per bound (each count includes every
    smaller bucket, ending in ``le="+Inf"`` equal to the total count)
    plus ``_sum`` and ``_count``, under a ``# TYPE ... histogram``
    header, so ``histogram_quantile()`` works on the scrape.  Labeled
    instrument families emit one sample line per child, sharing a
    single ``# TYPE`` (and, when declared, ``# HELP``) header;
    registries attached as collectors are included under their
    ``<collector>.`` prefix.
    """
    collect = getattr(registry, "collect", None)
    families = collect() if callable(collect) else _families_from_snapshot(
        registry.snapshot()
    )
    lines: list[str] = []
    for fam in families:
        metric = _metric_name(fam["name"])
        if fam.get("help"):
            lines.append(f"# HELP {metric} {fam['help']}")
        lines.append(f"# TYPE {metric} {fam['kind']}")
        for labels, value in fam["samples"]:
            if fam["kind"] == "histogram":
                buckets = value.get("buckets") or [
                    (float("inf"), value["count"])
                ]
                for bound, cum in buckets:
                    lines.append(
                        f"{metric}_bucket"
                        f"{_label_pairs(labels, {'le': _format_le(bound)})} "
                        f"{cum}"
                    )
                total = value.get("sum", value["mean"] * value["count"])
                lines.append(
                    f"{metric}_sum{_label_pairs(labels)} {total:g}"
                )
                lines.append(
                    f"{metric}_count{_label_pairs(labels)} {value['count']}"
                )
            elif fam["kind"] == "counter":
                lines.append(f"{metric}{_label_pairs(labels)} {value}")
            else:
                lines.append(f"{metric}{_label_pairs(labels)} {value:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def _families_from_snapshot(snap: dict) -> list[dict]:
    """Fallback family list for registries exposing only ``snapshot()``."""
    families = []
    for kind, key in (("counter", "counters"), ("gauge", "gauges"),
                      ("histogram", "histograms")):
        for name, value in snap.get(key, {}).items():
            families.append(
                {"name": name, "kind": kind, "help": "",
                 "samples": [({}, value)]}
            )
    return families
