"""Single-threaded load generator: open-loop Poisson phases, closed-loop saturation.

The generator is the calling thread alone; completions arrive through
``ResponseHandle.add_done_callback`` on the server's own threads.
Every request is timed from when it was *due*, so a stalled generator
charges its lateness to the requests it delayed, and the lateness
itself is reported (``lag``) to tell an invalid run from a slow program.
"""

from __future__ import annotations

import threading
import time

import numpy as np

# A run whose generator is later than this at the 90th percentile
# measured the generator, not the program: it is reported invalid.
LAG_LIMIT_S = 0.05


class InvalidRun(RuntimeError):
    """The run measured the load generator, not the program."""


class Record:
    """One request: when it was due, submitted, answered, and the answer."""

    __slots__ = ("matrix", "due", "start", "submitted", "done", "response",
                 "error")

    def __init__(self, matrix, due: float) -> None:
        self.matrix = matrix
        self.due = due
        self.start = self.submitted = self.done = None
        self.response = None
        self.error = None


class _Tracker:
    """Counts outstanding requests; completion callbacks land here."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.outstanding = 0

    def send(self, server, rec: Record, opts: dict) -> None:
        rec.start = time.perf_counter()
        try:
            handle = server.submit(rec.matrix, **opts)
        except Exception as exc:  # rejection (ServeError) or a bad submit
            rec.submitted = rec.done = time.perf_counter()
            rec.error = exc
            return
        rec.submitted = time.perf_counter()
        with self.cond:
            self.outstanding += 1
        handle.add_done_callback(lambda resp: self._finish(rec, resp))

    def _finish(self, rec: Record, resp) -> None:
        rec.done = time.perf_counter()
        rec.response = resp
        with self.cond:
            self.outstanding -= 1
            self.cond.notify_all()

    def wait_below(self, limit: int, deadline: float) -> bool:
        with self.cond:
            while self.outstanding >= limit:
                left = deadline - time.perf_counter()
                if left <= 0:
                    return False
                self.cond.wait(left)
        return True


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float):
    """Arrival offsets of a Poisson process of *rate* over *seconds*.

    At least the first arrival is kept, so a short phase is never empty.
    """
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
    offsets = np.cumsum(gaps)
    return offsets[:max(1, int(np.sum(offsets < seconds)))]


def open_loop(server, matrices, offsets, opts: dict, drain_s: float):
    """Submit ``matrices[i]`` at ``offsets[i]`` from now; wait for all."""
    tracker = _Tracker()
    t0 = time.perf_counter() + 0.01
    records = [Record(a, t0 + off) for a, off in zip(matrices, offsets)]
    for rec in records:
        delay = rec.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        tracker.send(server, rec, opts)
    tracker.wait_below(1, time.perf_counter() + drain_s)
    return records


def closed_loop(server, make_matrix, outstanding: int, seconds: float,
                opts: dict, drain_s: float):
    """Keep *outstanding* requests in flight for *seconds*; then drain.

    A request is due the moment a slot frees.  Returns the records and
    the window's ``(start, end)``.
    """
    tracker = _Tracker()
    records = []
    start = time.perf_counter()
    end = start + seconds
    while True:
        if not tracker.wait_below(outstanding, end):
            break
        now = time.perf_counter()
        if now >= end:
            break
        rec = Record(make_matrix(len(records)), now)
        records.append(rec)
        tracker.send(server, rec, opts)
    tracker.wait_below(1, time.perf_counter() + drain_s)
    return records, (start, end)
