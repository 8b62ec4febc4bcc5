"""In-memory spans recorded around the calls into each layer.

The benchmark keeps its own spans rather than using ``repro.obs``, so
a change to the library's observability cannot change what the
benchmark measures.  A span is ``(id, name, start, end, parent,
trace)``; spans of one operation share a trace id.  Self time is a
span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager


class Spans:
    """Span store; a disabled store records nothing and costs one branch."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def add(self, name: str, start: float, end: float, *,
            parent: int | None = None, trace: int | None = None) -> int | None:
        """Record a finished span; returns its id (``None`` when disabled)."""
        if not self.enabled:
            return None
        span_id = next(self._ids)
        self.records.append((span_id, name, start, end, parent, trace))
        return span_id

    @contextmanager
    def span(self, name: str, *, trace: int | None = None):
        """Time a block; nested blocks in one thread become children."""
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent, parent_trace = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        trace = trace if trace is not None else parent_trace
        stack.append((span_id, trace))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.records.append((span_id, name, start, end, parent, trace))

    def dump(self, path) -> None:
        """Write every span as JSON lines."""
        keys = ("id", "name", "start", "end", "parent", "trace")
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def analyse(records) -> dict:
    """Per span name: count, total and self seconds; plus coverage.

    ``coverage`` is the share of root-span (operation) time that child
    (layer) spans cover, clipped to each root's interval.
    """
    by_id = {rec[0]: rec for rec in records}
    children: dict[int, list] = {}
    for rec in records:
        if rec[4] is not None and rec[4] in by_id:
            children.setdefault(rec[4], []).append(rec)
    out: dict[str, dict] = {}
    root_total = root_covered = 0.0
    for span_id, name, start, end, parent, _ in records:
        kids = [(max(k[2], start), min(k[3], end))
                for k in children.get(span_id, ())]
        kids = [(s, e) for s, e in kids if e > s]
        covered = _covered(kids)
        row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered
        if parent is None:
            root_total += end - start
            root_covered += covered
    return {"spans": out,
            "coverage": root_covered / root_total if root_total else 0.0}
