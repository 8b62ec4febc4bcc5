"""``serve`` and ``shard``: open-loop Poisson traffic, then closed-loop saturation.

``serve`` sends unique small requests over three shapes to an
in-process ``SVDServer`` with its defaults.  ``shard`` sends the same
mix, with a quarter of requests drawn from a small hot set, to a
``ShardedSVDServer`` on ``default_shards()`` worker processes.

Each window cycles CYCLES times through its phases: a light Poisson
rate (unloaded latency), a heavy Poisson rate at half to two-thirds of
saturation (loaded latency) and, after each of those, a closed loop
holding a fixed number of requests in flight (goodput).  The rates are
constants measured once on a 2-core x86 host with single-threaded
OpenBLAS (saturation on the mix: serve 19-28 req/s; shard 38-46 req/s
with the hot set, its routing sending every shape to one worker); they
are never derived per run.
"""

from __future__ import annotations

import time

import numpy as np

from repro.serve import ShardedSVDServer, SVDServer

from perfbench import accuracy
from perfbench.common import MISS_LATENCY_S, STOP, Window
from perfbench.loadgen import (LAG_LIMIT_S, InvalidRun, closed_loop, open_loop,
                                poisson_offsets)
from perfbench.measure import fast, jacobi_flops, median, pctl, peak_rss_mb

SHAPES = ((32, 16), (48, 24), (64, 32))
# Share of each window spent in each phase segment, run as CYCLES
# interleaved rounds.  A closed-loop segment keeps the batch pattern it
# starts with (answers of one batch free their slots together), so its
# rate swings by up to 2x from segment to segment: two short segments
# per round give goodput sixteen samples of that swing.
PHASES = (("light", 0.25), ("saturation", 0.25), ("heavy", 0.25),
          ("saturation", 0.25))
CYCLES = 8
# In-flight requests of the saturation phase: below the shard router's
# admission limit (32 per shard) even if every request lands on one shard.
OUTSTANDING = 16
# Wait for the answers of one phase segment.  Answers take well under
# a second; only the first segment left unanswered waits this long.
DRAIN_S = 10.0
OPTS = {**STOP, "compute_uv": True}


class _Serving:
    """Shared workload logic; subclasses build the server and name the layer."""

    name = ""
    library = ("repro.serve",)  # modules whose import counts as set-up
    rates: dict = {}
    hot_share = 0.0

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        self.seed = seed
        # A smoke window of a second runs one round, so that each of
        # its closed-loop segments is long enough to see answers.
        self.cycles = 1 if smoke else CYCLES
        self.server = None
        self.windows = 0  # each window draws fresh inputs and a fresh hot set
        self.hot = []

    # -- inputs -------------------------------------------------------------

    def _matrix(self, tag: int, index: int) -> np.ndarray:
        """Request *index* of a phase, with probability ``hot_share`` a hot key.

        Each run of three consecutive requests holds every shape once, in
        a random order: the mix is balanced in every window, without the
        lock-step a fixed cycle causes in the micro-batcher.
        """
        block = np.random.default_rng([self.seed, tag, index // len(SHAPES)])
        shape = int(block.permutation(len(SHAPES))[index % len(SHAPES)])
        rng = np.random.default_rng([self.seed, tag, index])
        if self.hot_share and rng.random() < self.hot_share:
            return self.hot[shape + len(SHAPES) * int(rng.integers(2))]
        return rng.standard_normal(SHAPES[shape])

    # -- lifecycle ----------------------------------------------------------

    def _build(self):
        raise NotImplementedError

    def setup(self) -> float:
        """Construct the server and answer one request of each shape."""
        start = time.perf_counter()
        self.server = self._build()
        rng = np.random.default_rng([self.seed, 8])
        handles = [self.server.submit(rng.standard_normal(shape), **OPTS)
                   for shape in SHAPES for _ in range(2)]
        for h in handles:
            h.result(timeout=DRAIN_S)
        return time.perf_counter() - start

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def _pids(self):
        return ()

    # -- measurement --------------------------------------------------------

    def measure(self, seconds: float, spans) -> Window:
        """Run ``self.cycles`` rounds of the phases; check answers after each.

        Cycling spreads every phase over the whole window, so a few
        seconds of outside load do not land on one phase alone.
        Checking right after each phase keeps the LAPACK reference
        timings close in time to the program's, so drift in machine
        speed mostly cancels in ``lapack_ratio``.
        """
        phases = {phase: [] for phase, _ in PHASES}  # phase -> records
        windows = []  # closed-loop (records, start, end) segments
        verdict, lapack_t = {}, {}
        self.windows += 1
        rng = np.random.default_rng([self.seed, 9, self.windows])
        self.hot = [rng.standard_normal(SHAPES[i % len(SHAPES)]) for i in range(6)]
        drain = DRAIN_S
        for cycle in range(self.cycles):
            for i, (phase, share) in enumerate(PHASES):
                tag = 100 * self.windows + 10 * cycle + i
                dur = seconds * share / self.cycles
                if phase == "saturation":
                    recs, (t0, t1) = closed_loop(
                        self.server, lambda k: self._matrix(tag, k),
                        OUTSTANDING, dur, OPTS, drain)
                    windows.append((recs, t0, t1))
                else:
                    rng = np.random.default_rng([self.seed, tag])
                    offsets = poisson_offsets(rng, self.rates[phase], dur)
                    mats = [self._matrix(tag, k) for k in range(len(offsets))]
                    recs = open_loop(self.server, mats, offsets, OPTS, drain)
                for rec in recs:
                    verdict[id(rec)] = self._check(rec, lapack_t)
                phases[phase].extend(recs)
                if any(r.done is None for r in recs):
                    # The server stopped answering: later segments
                    # count their requests as failed without waiting.
                    drain = 0.0
        rss = peak_rss_mb(self._pids())
        return self._report(phases, windows, verdict, lapack_t, rss, spans)

    def _report(self, phases, windows, verdict, lapack_t, rss, spans) -> Window:
        """Metrics of one window; *verdict* maps id(record) to its failure."""
        failures = [f"{phase}: {verdict[id(r)]}" for phase, recs
                    in phases.items() for r in recs if verdict[id(r)]]
        for phase, recs in phases.items():
            for i, rec in enumerate(recs):
                if rec.done is None:
                    continue
                root = spans.add("op", rec.due, rec.done, trace=(phase, i))
                spans.add(f"{self.name}.submit", rec.start, rec.submitted,
                          parent=root, trace=(phase, i))
                spans.add(f"{self.name}.pending", rec.submitted, rec.done,
                          parent=root, trace=(phase, i))

        def latencies(recs):
            return [MISS_LATENCY_S if verdict[id(r)] else r.done - r.due
                    for r in recs]

        # Each closed-loop segment counts answers that passed the check
        # and arrived inside it, up to its last such answer, so the rate
        # carries measured time rather than the fixed segment length.
        per_answer, lapack_per_answer = [], []
        for recs, t0, t1 in windows:
            ok = [r for r in recs if not verdict[id(r)] and r.done <= t1]
            if ok:
                per_answer.append((max(r.done for r in ok) - t0) / len(ok))
                lapack_per_answer.append(
                    sum(lapack_t[id(r)] for r in ok) / len(ok))
        every = [r for recs in phases.values() for r in recs]
        lag_p90 = pctl([r.start - r.due for p in ("light", "heavy")
                        for r in phases[p]], 0.9)
        if lag_p90 > LAG_LIMIT_S:
            raise InvalidRun(f"generator lag p90 {lag_p90:.4f}s exceeds "
                             f"{LAG_LIMIT_S}s; the run measured the generator")
        ok_share = 1.0 - len(failures) / len(every)
        w = Window(attempted=len(every), failed=len(failures),
                   failures=failures)
        w.e2e = {
            # Passing share of the requests, per second of a closed-loop
            # answer at the fast-state segment rate.
            "goodput_ops_s": ok_share / fast(per_answer) if per_answer else 0.0,
            "ok_frac": ok_share,
            # Closed-loop seconds per answer against LAPACK's on the
            # same inputs, both at the fast-state segment.  With no
            # good answer, charge the miss value.
            "lapack_ratio": fast(per_answer) / fast(lapack_per_answer)
            if per_answer else MISS_LATENCY_S,
            "latency_p50_s": pctl(latencies(phases["heavy"]), 0.5),
            "latency_p90_s": pctl(latencies(phases["heavy"]), 0.9),
            "idle_latency_p50_s": pctl(latencies(phases["light"]), 0.5),
            "peak_rss_mb": rss,
        }
        w.layer = self._layer(phases, verdict, lapack_t)
        w.layer["gen.lag_p90_s"] = lag_p90
        return w

    def _check(self, rec, lapack_t) -> str | None:
        if rec.error is not None:
            return f"refused: {rec.error!r}"
        if rec.response is None:
            return f"no answer within {DRAIN_S}s"
        if rec.response.status != "ok" or rec.response.result is None:
            return f"status {rec.response.status}: {rec.response.error}"
        (_, s_ref, _), t = accuracy.lapack_svd(rec.matrix)
        lapack_t[id(rec)] = t
        return accuracy.check_full(rec.matrix, rec.response.result, s_ref)

    def _layer(self, phases, verdict, lapack_t) -> dict:
        light, heavy, sat = (phases[p] for p in ("light", "heavy", "saturation"))

        def served(recs):
            """Checked answers the engine computed (not cache hits)."""
            return [r for r in recs
                    if not verdict[id(r)] and not r.response.cache_hit]

        every = [r for recs in phases.values() for r in recs]
        answered = [r.response for r in every if r.response is not None]
        sat_resp = [r.response for r in served(sat)]
        engine_s = sum(r.service_s / r.batch_size for r in sat_resp)
        sweeps = sum(r.result.sweeps for r in sat_resp)
        flops = sum(jacobi_flops(*r.matrix.shape, r.response.result.sweeps)
                    for r in served(sat))
        return {
            "serve.submit_s": median([r.submitted - r.start for r in light]),
            # Submit call to answer in hand, less the server's own queue
            # and service time: admission and delivery overhead.
            "serve.residual_s": median(
                [r.done - r.start - r.response.queued_s - r.response.service_s
                 for r in served(light)]),
            "serve.queue_wait_p50_s": pctl(
                [r.response.queued_s for r in served(heavy)], 0.5),
            "serve.queue_wait_p90_s": pctl(
                [r.response.queued_s for r in served(heavy)], 0.9),
            "serve.service_s": median([r.service_s for r in sat_resp]),
            "serve.batch_size": float(np.mean([r.batch_size for r in sat_resp])),
            "serve.engine_s_per_req": engine_s / len(sat_resp),
            "serve.cpu_s_per_req": float(np.mean([r.cpu_s for r in sat_resp])),
            "serve.cache_hit_frac": sum(r.cache_hit for r in answered)
            / len(answered),
            # Exact for a seed on serve; on shard, front-cache hits
            # depend on completion order.
            "core.sweeps": sum(r.response.result.sweeps for r in served(heavy)),
            "core.sweep_s": engine_s / sweeps,
            "core.gflop_s_computed": flops / engine_s / 1e9,
            "lapack.s": float(np.mean(list(lapack_t.values()))),
        }


class Serve(_Serving):
    """The ``serve`` workload: one in-process ``SVDServer``, default settings."""

    name = "serve"
    rates = {"light": 6.0, "heavy": 14.0}

    def _build(self):
        return SVDServer()


class Shard(_Serving):
    """The ``shard`` workload: ``ShardedSVDServer`` on ``default_shards()``."""

    name = "shard"
    rates = {"light": 6.0, "heavy": 20.0}
    hot_share = 0.25

    def _build(self):
        return ShardedSVDServer()

    def _pids(self):
        return [s["pid"] for s in self.server.stats()["shards"] if s["pid"]]

    def _layer(self, phases, verdict, lapack_t) -> dict:
        layer = super()._layer(phases, verdict, lapack_t)
        every = [r for recs in phases.values() for r in recs]
        resp = [r.response for r in every if r.response is not None]
        served = [r for r in resp if r.ok and not r.cache_hit]
        # Front-cache hits carry no shard id; worker-side hits do.
        front = sum(r.cache_hit and r.shard is None for r in resp) / len(resp)
        inner = sum(r.cache_hit and r.shard is not None for r in resp) / len(resp)
        per_shard = {}
        for r in served:
            per_shard[r.shard] = per_shard.get(r.shard, 0) + 1
        n_shards = len(self.server.stats()["shards"])
        counts = [per_shard.get(i, 0) for i in range(n_shards)]
        layer.update({
            "shard.transport_s": median(
                [r.total_s - r.queued_s - r.service_s for r in served]),
            "shard.cache_hit_frac": front,
            "shard.rejected_frac": sum(r.error is not None for r in every)
            / len(every),
            "shard.balance": max(counts) / max(min(counts), 1),
            "serve.cache_hit_frac": inner,
        })
        return layer
