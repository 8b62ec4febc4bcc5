"""Constants and result records shared by the workloads."""

from __future__ import annotations

from dataclasses import dataclass, field

# The stop rule every operation sends (the equal-criterion protocol of
# the mixed-precision comparison): relative off-diagonal <= 1e-12,
# with 30 sweeps as a backstop.  Sending it explicitly keeps the
# figures time-to-accuracy, independent of the library's defaults.
STOP = {"tol": 1e-12, "metric": "relative", "max_sweeps": 30}

# Latency charged to an operation that failed, timed out or was
# refused: it misses any latency limit.
MISS_LATENCY_S = 60.0


@dataclass
class Window:
    """What one measured window produced, after its answers were checked.

    ``e2e`` and ``layer`` map end-to-end and per-layer metric names to
    values (``e2e["goodput_ops_s"]`` also feeds the tracing overhead); ``notes`` are printed before the result line and
    ``failures`` name each operation that failed.
    """

    attempted: int
    failed: int
    e2e: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
