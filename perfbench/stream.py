"""``stream``: ``StreamingMerger`` over a synthetic term-document corpus.

Loads ``stream`` (``MatrixSource`` blocks, the merger's compress and
merge steps) and ``core`` through the solver the benchmark injects:
hundreds of tall-skinny block compresses and small merges rather than
one large decomposition.  ``serve`` and ``shard`` sit idle.  This is
the path ``LsiIndex.add_documents`` runs on.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.core.svd import hestenes_svd
from repro.stream import StreamingMerger, SyntheticCorpusSource

from perfbench import accuracy
from perfbench.common import MISS_LATENCY_S, STOP, Window
from perfbench.measure import fast, jacobi_flops, pctl, peak_rss_mb
from perfbench.spans import Spans, analyse

RANK = 8
TERMS, DOCS, BLOCK = 64, 50_000, 1024
# Blocks behind the exact counts (core.sweeps) and the heap probe.
FIRST_BLOCKS = 8
# Consecutive blocks of a pass timed as one segment (about a second).
SEGMENT_BLOCKS = 8


class TimedSolver:
    """The merger's inner solver: the default engine under the stop rule.

    Each call is timed and filed as a block *compress* (tall input, more
    rows than the corpus has terms) or a rank *merge*.
    """

    engine = "blocked"

    def __init__(self, spans) -> None:
        self.spans = spans
        self.calls = {"compress": [], "merge": []}  # (seconds, sweeps, flops)

    def __call__(self, a, compute_uv=True):
        kind = "compress" if a.shape[0] > TERMS else "merge"
        with self.spans.span(f"stream.solver.{kind}"):
            start = time.perf_counter()
            res = hestenes_svd(a, compute_uv=compute_uv, **STOP)
            took = time.perf_counter() - start
        self.calls[kind].append((took, res.sweeps, jacobi_flops(*a.shape, res.sweeps)))
        return res

    def all_calls(self):
        return self.calls["compress"] + self.calls["merge"]


class Stream:
    """The ``stream`` workload; ``smoke`` shrinks the corpus."""

    name = "stream"
    library = ("repro.core.svd", "repro.stream")  # modules whose import counts as set-up

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        docs, block = (4096, 512) if smoke else (DOCS, BLOCK)
        self.source = SyntheticCorpusSource(TERMS, docs, block_size=block,
                                            seed=seed)

    def setup(self) -> float:
        """Build a merger and absorb one block into it."""
        start = time.perf_counter()
        merger = StreamingMerger(RANK, TimedSolver(Spans(False)))
        merger.absorb_block(self.source.block_array(0))
        return time.perf_counter() - start

    def close(self) -> None:
        pass

    def _pass(self, spans, trace: int, deadline: float) -> "_Pass":
        """Absorb blocks until the corpus ends or *deadline* passes.

        A pass stopped early is checked against LAPACK on the columns
        it absorbed; it always takes two blocks, so it merges once.
        """
        p = _Pass(TimedSolver(spans))
        merger = StreamingMerger(RANK, p.solver)
        blocks = self.source.blocks()
        prev = None
        with spans.span("op", trace=trace):
            while len(p.latencies) < 2 or time.perf_counter() < deadline:
                t0 = time.perf_counter()
                if prev is not None:
                    p.gaps.append(t0 - prev)
                with spans.span("stream.source"):
                    block = next(blocks, None)
                if block is None:
                    break
                with spans.span("stream.absorb"):
                    merger.absorb_block(block)
                p.latencies.append(time.perf_counter() - t0)
                p.cols.append(block.shape[1])
                # The same block through LAPACK, timed right after it.
                with spans.span("lapack.block"):
                    p.lapack.append(accuracy.lapack_svd(block, reps=1)[1])
                prev = time.perf_counter()
                if len(p.latencies) == FIRST_BLOCKS:
                    p.first_sweeps = sum(c[1] for c in p.solver.all_calls())
        p.merger = merger
        return p

    def measure(self, seconds: float, spans) -> Window:
        """Run passes over the corpus until *seconds* are spent.

        Peak memory is read after the first pass: later passes repeat
        its work, while the answers of finished passes, each holding a
        ``Vt`` as wide as the columns it saw, are kept for checking by
        the benchmark, not the program.
        """
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(self._pass(spans, len(passes), deadline))
            if len(passes) == 1:
                rss = peak_rss_mb()
        return self._report(passes, rss, spans)

    def _peak_heap_mb(self) -> float:
        """Peak traced heap while absorbing the first FIRST_BLOCKS blocks.

        Kept out of the traced window: tracemalloc slows the
        allocation-heavy Jacobi rounds about threefold.
        """
        merger = StreamingMerger(RANK, TimedSolver(Spans(False)))
        tracemalloc.start()
        try:
            for i in range(min(FIRST_BLOCKS, self.source.n_blocks)):
                merger.absorb_block(self.source.block_array(i))
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def _report(self, passes, rss, spans) -> Window:
        dense = self.source.dense()
        refs = {}  # columns absorbed -> LAPACK singular values
        (_, refs[dense.shape[1]], _), lapack_s = accuracy.lapack_svd(dense, reps=3)
        failures, lat = [], []
        for i, p in enumerate(passes):
            cols = p.merger.cols_seen_
            if cols not in refs:
                (_, refs[cols], _), _ = accuracy.lapack_svd(dense[:, :cols], reps=1)
            why = accuracy.check_topk(dense[:, :cols], p.merger.result(),
                                      refs[cols], RANK)
            if why:
                failures.append(f"pass {i} ({cols} columns): {why}")
            p.ok = not why
            lat.extend([MISS_LATENCY_S] * len(p.latencies) if why else p.latencies)
        n = dense.shape[1]
        cols = sum(p.merger.cols_seen_ for p in passes)
        ok_cols = sum(p.merger.cols_seen_ for p in passes if p.ok)
        # Seconds per column over segments of SEGMENT_BLOCKS blocks, for
        # the program and for LAPACK on the same blocks.
        per_col, lapack_per_col = [], []
        for p in passes:
            for i in range(0, len(p.cols), SEGMENT_BLOCKS):
                seg = slice(i, i + SEGMENT_BLOCKS)
                per_col.append(sum(p.latencies[seg]) / sum(p.cols[seg]))
                lapack_per_col.append(sum(p.lapack[seg]) / sum(p.cols[seg]))
        w = Window(attempted=cols, failed=cols - ok_cols,
                   failures=failures)
        w.e2e = {
            # Passing share of the columns, per second at the
            # fast-state segment rate.
            "goodput_ops_s": ok_cols / cols / fast(per_col),
            "ok_frac": ok_cols / cols,
            "lapack_ratio": fast(per_col) / fast(lapack_per_col),
            # Per-block ingest latency: read one block, fold it in.
            "latency_p50_s": pctl(lat, 0.5),
            "latency_p90_s": pctl(lat, 0.9),
            # One closed-loop caller: every block runs unloaded.
            "idle_latency_p50_s": pctl(lat, 0.5),
            "peak_rss_mb": rss,
        }
        calls = [c for p in passes for c in p.solver.all_calls()]
        solver_s = sum(c[0] for c in calls)
        per_pass = n / cols  # scale totals to one pass over the corpus

        def solver_time(kind):
            return sum(c[0] for p in passes for c in p.solver.calls[kind]) * per_pass

        w.layer = {
            "stream.compress_solver_s": solver_time("compress"),
            "stream.merge_solver_s": solver_time("merge"),
            "stream.merges": sum(p.merger.merges_ for p in passes) * per_pass,
            "core.sweeps": passes[0].first_sweeps,
            "core.sweep_s": solver_s / sum(c[1] for c in calls),
            "core.gflop_s_computed": sum(c[2] for c in calls) / solver_s / 1e9,
            "lapack.s": lapack_s,
            "gen.lag_p90_s": pctl([g for p in passes for g in p.gaps], 0.9),
        }
        if spans.enabled:
            found = analyse(spans.records)["spans"]
            w.layer["stream.source_s"] = found["stream.source"]["self_s"] * per_pass
            w.layer["stream.absorb_s"] = found["stream.absorb"]["self_s"] * per_pass
            w.layer["stream.peak_heap_mb"] = self._peak_heap_mb()
        return w


class _Pass:
    """One pass over the corpus: its solver, merger and block timings."""

    def __init__(self, solver: TimedSolver) -> None:
        self.solver = solver
        self.merger = None
        self.latencies: list[float] = []  # per block: read and absorb
        self.cols: list[int] = []  # per block
        self.lapack: list[float] = []  # per block: LAPACK on the same block
        self.gaps: list[float] = []
        self.first_sweeps = 0
        self.ok = False
