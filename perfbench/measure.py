"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import os
import resource
import statistics

import numpy as np


def pctl(values, q: float) -> float:
    """The *q*-quantile (0..1) of *values*, linear interpolation."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


def fast(times) -> float:
    """Lower quartile of *times*: how long one takes on the fast host state.

    The benchmark host alternates between a fast state and one about
    30% slower, in episodes of 5-40 s (other tenants: process CPU time
    slows along with wall time, so it is not scheduling).  A mean or a
    median over a 20 s run reads whatever mix of the two states the run
    caught; the lower quartile of many short timings reads the fast
    state as soon as a quarter of them caught it.  A slower program
    moves every timing, and so this figure too.
    """
    return pctl(times, 0.25)


def _hwm_kb(pid: int) -> int | None:
    """Peak resident set (VmHWM) of *pid* in KiB, if readable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(pids=()) -> float:
    """Peak resident memory of this process plus *pids*, in MiB."""
    own = _hwm_kb(os.getpid())
    if own is None:  # ru_maxrss is KiB on Linux
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    others = (_hwm_kb(pid) for pid in pids)
    return (own + sum(kb for kb in others if kb)) / 1024.0


def jacobi_flops(m: int, n: int, sweeps: int, compute_uv: bool = True) -> float:
    """Computed flop count of one-sided Jacobi on an m x n matrix.

    Per column pair and sweep: three length-m dot products (6m), the
    rotation of two length-m columns (6m), and of two length-n columns
    of V when factors are kept (6n).  A model, not a hardware counter.
    """
    if m < n:
        m, n = n, m
    per_pair = 12 * m + (6 * n if compute_uv else 0)
    return float(sweeps * n * (n - 1) / 2 * per_pair)
