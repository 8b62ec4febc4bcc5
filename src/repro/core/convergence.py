"""Convergence metrics, stopping criteria and per-sweep traces.

The paper evaluates convergence as the *mean absolute deviation from
zero of the covariances* after each sweep (Figs 10-11) and runs a fixed
six sweeps "believed sufficient for achieving convergence with certain
thresholds".  The library supports both regimes:

* fixed sweep count (hardware-faithful), and
* threshold-based early stopping on any supported metric.

:func:`run_sweeps` is the one sweep loop every Jacobi engine runs:
the engine supplies its round kernel and its metric, the driver owns
the sweep numbering, budget, stop rule, trace record, NaN/Inf guard
and ``core.sweep`` span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs import noop_span, round_detail, span
from repro.obs.health import sweep_guard
from repro.util.numerics import (
    frobenius_off_diagonal,
    mean_abs_off_diagonal,
    relative_off_diagonal,
)
from repro.util.validation import check_in_choices, check_positive_int

__all__ = [
    "METRICS",
    "ConvergenceCriterion",
    "ConvergenceTrace",
    "measure",
    "run_sweeps",
]

#: Supported convergence metrics, keyed by name:
#:
#: ``mean_abs``  - mean |D_ij|, i<j (the paper's Figs 10-11 metric)
#: ``off_fro``   - Frobenius norm of the strict upper triangle
#: ``relative``  - off_fro / ||D||_F (scale free)
#: ``max_abs``   - max |D_ij|, i<j
METRICS = ("mean_abs", "off_fro", "relative", "max_abs")


def measure(d: np.ndarray, metric: str = "mean_abs") -> float:
    """Evaluate one convergence metric on a covariance matrix *d*."""
    check_in_choices(metric, METRICS, name="metric")
    if metric == "mean_abs":
        return mean_abs_off_diagonal(d)
    if metric == "off_fro":
        return frobenius_off_diagonal(d)
    if metric == "relative":
        return relative_off_diagonal(d)
    n = d.shape[0]
    if n < 2:
        return 0.0
    iu = np.triu_indices(n, k=1)
    return float(np.max(np.abs(d[iu])))


@dataclass(frozen=True)
class ConvergenceCriterion:
    """Stopping rule for the sweep loop.

    Attributes
    ----------
    max_sweeps : int
        Hard cap on sweeps (the paper uses 6).
    tol : float or None
        Early-stop threshold on *metric*; ``None`` disables early
        stopping, reproducing the fixed-sweep hardware behaviour.
    metric : str
        One of :data:`METRICS`.
    """

    max_sweeps: int = 6
    tol: float | None = None
    metric: str = "mean_abs"

    def __post_init__(self) -> None:
        check_positive_int(self.max_sweeps, name="max_sweeps")
        check_in_choices(self.metric, METRICS, name="metric")
        if self.tol is not None and not (self.tol >= 0.0):
            raise ValueError(f"tol must be >= 0 or None, got {self.tol}")

    def satisfied(self, value: float) -> bool:
        """True when *value* (the current metric) meets the threshold."""
        return self.tol is not None and value <= self.tol


@dataclass
class ConvergenceTrace:
    """Per-sweep record of a decomposition run.

    ``values[k]`` is the metric *after* sweep k+1 (``values[0]`` may
    optionally hold the pre-iteration value when the caller records it
    with ``sweep_index=0``).  Used directly to regenerate Figs 10-11.
    """

    metric: str = "mean_abs"
    sweeps: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    rotations: list[int] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)
    converged: bool = False

    def record(
        self, sweep_index: int, value: float, rotations: int = 0, skipped: int = 0
    ) -> None:
        """Append one sweep's measurements."""
        self.sweeps.append(int(sweep_index))
        self.values.append(float(value))
        self.rotations.append(int(rotations))
        self.skipped.append(int(skipped))

    @property
    def n_sweeps(self) -> int:
        """Number of completed sweeps recorded (excludes a sweep-0 entry)."""
        return sum(1 for s in self.sweeps if s > 0)

    @property
    def final_value(self) -> float:
        """Metric value after the last recorded sweep (inf when empty)."""
        return self.values[-1] if self.values else float("inf")

    def series(self) -> tuple[list[int], list[float]]:
        """(sweep indices, metric values) — plotting-ready for Fig 10/11."""
        return list(self.sweeps), list(self.values)

    def to_csv(self, path=None) -> str:
        """CSV rendering of the trace (one row per recorded sweep).

        Columns: ``sweep,<metric>,rotations,skipped`` — exactly the
        data behind the paper's Figs 10-11 convergence curves, in a
        form any plotting tool ingests directly.  When *path* is given
        the CSV is also written there; the text is returned either way.

        >>> t = ConvergenceTrace()
        >>> t.record(0, 0.5); t.record(1, 0.01, 3, 1)
        >>> print(t.to_csv(), end="")
        sweep,mean_abs,rotations,skipped
        0,0.5,0,0
        1,0.01,3,1
        """
        lines = [f"sweep,{self.metric},rotations,skipped"]
        for sweep, value, rot, skip in zip(
            self.sweeps, self.values, self.rotations, self.skipped
        ):
            lines.append(f"{sweep},{value!r},{rot},{skip}")
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text


def run_sweeps(
    sweep: Callable,
    metric_value: Callable[[], float],
    *,
    method: str,
    criterion: ConvergenceCriterion,
    trace: ConvergenceTrace,
    start: int = 0,
    last: int | None = None,
    stop: Callable[[], bool] | None = None,
    **span_attrs,
) -> tuple[int, bool]:
    """Run Algorithm 1's sweep loop around an engine's round kernel.

    Sweeps are numbered ``start + 1`` through *last* (default
    ``criterion.max_sweeps``).  Each one runs inside a ``core.sweep``
    span (attributes ``method``, ``sweep`` and any *span_attrs*): it
    calls ``sweep(index, rspan) -> (rotations, skipped)`` with
    ``rspan`` the span factory for per-round ``core.round`` scopes
    (a no-op unless the ambient tracer asks for round detail), then
    ``metric_value()``, records both in *trace* and runs
    :func:`repro.obs.health.sweep_guard` on the value.

    The loop converges when a sweep performs no rotation or the value
    satisfies *criterion*; otherwise the optional ``stop()`` hook may
    end it early without convergence.  Returns ``(sweeps_done,
    converged)`` with ``sweeps_done`` absolute (``start`` when no sweep
    ran).
    """
    last = criterion.max_sweeps if last is None else last
    rspan = span if round_detail() else noop_span
    sweeps_done = start
    for index in range(start + 1, last + 1):
        with span("core.sweep", method=method, sweep=index, **span_attrs) as sp:
            rotations, skipped = sweep(index, rspan)
            sweeps_done = index
            value = metric_value()
            trace.record(index, value, rotations, skipped)
            sweep_guard(method, index, value)
            sp.set_attrs(rotations=rotations, skipped=skipped, off_diagonal=value)
        if rotations == 0 or criterion.satisfied(value):
            return sweeps_done, True
        if stop is not None and stop():
            break
    return sweeps_done, False
