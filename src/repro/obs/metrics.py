"""Process-wide labeled metrics: counters, gauges, histograms, registry.

Promoted from the serving layer's old metrics module and generalized
into the library-wide instrumentation layer:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — the three
  instrument kinds, each optionally declared with **label names**.  A
  labeled instrument is a *family*: ``family.labels(engine="blocked")``
  returns (and caches) the child bound to those label values, so
  per-engine / per-status streams share one declaration.
* :class:`MetricsRegistry` — named instrument ownership, a nested
  :meth:`~MetricsRegistry.snapshot` dict, a fixed-width text report,
  and a structured :meth:`~MetricsRegistry.collect` feed the Prometheus
  exporter consumes (:func:`repro.obs.exporters.metrics_to_prometheus`).
* A **default global registry** (:func:`get_registry`) every layer of
  the library reports into: engine health monitors
  (:mod:`repro.obs.health`), the hardware timing model, and — via
  :meth:`~MetricsRegistry.register_collector` — each live
  :class:`repro.serve.server.SVDServer`'s per-instance registry.
  ``repro stats`` renders it; ``repro stats --prom`` exposes it in
  Prometheus text format.

No external dependency; every instrument is thread-safe.  Histograms
keep a bounded reservoir of recent observations for linear-interpolated
quantile estimates (p50/p95/p99) alongside exact count/sum/min/max, so
memory stays constant under sustained traffic.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager

from repro.obs.instruments import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    _label_suffix,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]


class MetricsRegistry:
    """Named instrument registry with snapshot and text rendering.

    Instruments are singletons by name; re-requesting a name with
    different label names raises.  Other registries (e.g. a live
    server's per-instance metrics) can be attached as *collectors* —
    their instruments appear in this registry's snapshot/collect output
    under a ``<collector>.`` name prefix, held by weak reference so a
    dropped server never pins its metrics in the global view.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[str, weakref.ref] = {}

    def _get_or_create(self, table: dict, cls, name: str, labelnames,
                       **kwargs):
        with self._lock:
            inst = table.get(name)
            if inst is None:
                inst = cls(name, labelnames=labelnames, **kwargs)
                table[name] = inst
            elif inst.labelnames != tuple(labelnames):
                raise ValueError(
                    f"{name} already registered with labels "
                    f"{inst.labelnames}, requested {tuple(labelnames)}"
                )
            return inst

    def counter(self, name: str, *, help: str = "", labelnames=()) -> Counter:
        """Get or create the counter (family) *name*."""
        return self._get_or_create(self._counters, Counter, name, labelnames,
                                   help=help)

    def gauge(self, name: str, *, help: str = "", labelnames=()) -> Gauge:
        """Get or create the gauge (family) *name*."""
        return self._get_or_create(self._gauges, Gauge, name, labelnames,
                                   help=help)

    def histogram(self, name: str, window: int = 2048, *, help: str = "",
                  labelnames=()) -> Histogram:
        """Get or create the histogram (family) *name*."""
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = Histogram(name, window, help=help,
                                 labelnames=labelnames)
                self._histograms[name] = inst
            elif inst.labelnames != tuple(labelnames):
                raise ValueError(
                    f"{name} already registered with labels "
                    f"{inst.labelnames}, requested {tuple(labelnames)}"
                )
            return inst

    # ---- collectors -----------------------------------------------------

    def register_collector(self, name: str, registry) -> str:
        """Attach another registry's instruments under a name prefix.

        Returns the (uniquified) collector name to pass to
        :meth:`unregister_collector`.  The reference is weak: a
        collector that is garbage-collected silently drops out.
        """
        with self._lock:
            unique = name
            n = 1
            while unique in self._collectors:
                n += 1
                unique = f"{name}-{n}"
            self._collectors[unique] = weakref.ref(registry)
            return unique

    def unregister_collector(self, name: str) -> None:
        """Detach a collector (no-op if absent)."""
        with self._lock:
            self._collectors.pop(name, None)

    def _live_collectors(self) -> list[tuple[str, "MetricsRegistry"]]:
        with self._lock:
            refs = list(self._collectors.items())
        out = []
        for name, ref in refs:
            reg = ref()
            if reg is not None:
                out.append((name, reg))
        return out

    # ---- output ---------------------------------------------------------

    def _flat(self, family) -> list[tuple[str, object]]:
        """(display name, instrument) rows: children for labeled families."""
        if family.labelnames:
            return [
                (family.name + _label_suffix(bound), child)
                for bound, child in family.children()
            ]
        return [(family.name, family)]

    def snapshot(self) -> dict:
        """Nested dict of every instrument's current state.

        Unlabeled instruments appear under their plain name; labeled
        families expand to one entry per child, keyed
        ``name{label="value",...}``.  Attached collectors' instruments
        are merged in under ``<collector>.<name>`` keys.
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        snap = {
            "counters": {
                key: inst.value
                for fam in counters for key, inst in self._flat(fam)
            },
            "gauges": {
                key: inst.value
                for fam in gauges for key, inst in self._flat(fam)
            },
            "histograms": {
                key: inst.summary()
                for fam in histograms for key, inst in self._flat(fam)
            },
        }
        for name, reg in self._live_collectors():
            sub = reg.snapshot()
            for kind in ("counters", "gauges", "histograms"):
                for key, value in sub.get(kind, {}).items():
                    snap[kind][f"{name}.{key}"] = value
        for kind in ("counters", "gauges", "histograms"):
            snap[kind] = dict(sorted(snap[kind].items()))
        return snap

    def collect(self, *, prefix: str = "") -> list[dict]:
        """Structured samples for exposition, one dict per family.

        Each entry: ``{"name", "kind", "help", "samples"}`` where
        ``samples`` is a list of ``(labels-dict, value-or-summary)``.
        Collector instruments are included with their prefix applied.
        """
        with self._lock:
            families = [
                *(("counter", f) for f in self._counters.values()),
                *(("gauge", f) for f in self._gauges.values()),
                *(("histogram", f) for f in self._histograms.values()),
            ]
        out = []
        for kind, fam in families:
            if fam.labelnames:
                pairs = fam.children()
            else:
                pairs = [({}, fam)]
            if kind == "histogram":
                samples = []
                for bound, inst in pairs:
                    s = inst.summary()
                    s["sum"] = inst.stream_sum
                    s["buckets"] = inst.cumulative_buckets()
                    samples.append((bound, s))
            else:
                samples = [(bound, inst.value) for bound, inst in pairs]
            out.append({
                "name": prefix + fam.name,
                "kind": kind,
                "help": fam.help,
                "samples": samples,
            })
        for name, reg in self._live_collectors():
            out.extend(reg.collect(prefix=f"{prefix}{name}."))
        return out

    def render_text(self) -> str:
        """Fixed-width human-readable report of the snapshot."""
        snap = self.snapshot()
        lines = []
        if snap["counters"]:
            lines.append("counters:")
            for name, value in snap["counters"].items():
                lines.append(f"  {name:<32s} {value:>12,}")
        if snap["gauges"]:
            lines.append("gauges:")
            for name, value in snap["gauges"].items():
                lines.append(f"  {name:<32s} {value:>12g}")
        if snap["histograms"]:
            lines.append("histograms:")
            for name, s in snap["histograms"].items():
                lines.append(
                    f"  {name:<32s} n={s['count']:<7d} mean={s['mean']:.6g} "
                    f"p50={s['p50']:.6g} p95={s['p95']:.6g} "
                    f"p99={s['p99']:.6g} max={s['max']:.6g}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"


# ---- the process-wide default registry ----------------------------------

_registry_lock = threading.Lock()
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every layer reports into."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the global registry; returns the previous one."""
    global _REGISTRY
    with _registry_lock:
        previous, _REGISTRY = _REGISTRY, registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Install *registry* as the global default for a ``with`` block.

    Process-global (unlike :func:`repro.obs.use_tracer`, which is
    context-local): intended for tests and scoped measurement, not for
    concurrent per-thread registries.
    """
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
