"""Deprecated alias of :mod:`repro.obs.metrics`; import from there.

The serving layer's counters/gauges/histograms were promoted to the
process-wide observability package (labels, a default global registry,
Prometheus exposition).  This module re-exports the same objects so
``from repro.serve.metrics import MetricsRegistry`` keeps working for
one deprecation cycle; importing it emits a ``DeprecationWarning``.
Nothing in the repository imports it any more.
"""

from __future__ import annotations

import warnings

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

warnings.warn(
    "repro.serve.metrics is deprecated; import Counter, Gauge, Histogram "
    "and MetricsRegistry from repro.obs.metrics instead",
    DeprecationWarning,
    stacklevel=2,
)
