"""``solve``: one closed-loop caller running a seeded list of decompositions.

Loads ``core`` (the engines behind ``hestenes_svd``) and ``lapack`` (the
reference); ``serve``, ``shard`` and ``stream`` sit idle.  Each round
runs one fresh matrix of every case; rounds repeat until the window's
seconds are spent, so a partial window still has the full case mix.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.svd import hestenes_svd

from perfbench import accuracy
from perfbench.common import MISS_LATENCY_S, STOP, Window
from perfbench.measure import fast, jacobi_flops, median, pctl, peak_rss_mb

# (name, shape, hestenes_svd keywords).  "blocked" is the default
# engine, so its case passes no method.
CASES = (
    ("vec_fp64_256", (256, 256),
     {"method": "vectorized", "engine_opts": {"precision": "fp64"}}),
    ("vec_mixed_256", (256, 256),
     {"method": "vectorized", "engine_opts": {"precision": "mixed"}}),
    ("vec_fp64_512x128", (512, 128),
     {"method": "vectorized", "engine_opts": {"precision": "fp64"}}),
    ("vec_mixed_512x128", (512, 128),
     {"method": "vectorized", "engine_opts": {"precision": "mixed"}}),
    ("blocked_128", (128, 128), {}),
)
# Range probe: 64x32 inputs scaled by 2**e near the ends of the float64
# range, on the default engine.  LAPACK handles all of them.
RANGE_SHAPE = (64, 32)
RANGE_EXPONENTS = (-600, -500, 500, 600)


class Solve:
    """The ``solve`` workload; ``smoke`` shrinks every shape eightfold."""

    name = "solve"
    library = ("repro.core.svd",)  # modules whose import counts as set-up

    def __init__(self, seed: int, *, smoke: bool = False, svd=None) -> None:
        self.seed = seed
        self.div = 8 if smoke else 1
        self.svd = svd or hestenes_svd
        self.windows = 0  # each window draws fresh matrices

    def _shape(self, shape):
        return tuple(max(2, d // self.div) for d in shape)

    def _matrix(self, tag: int, index: int, shape) -> np.ndarray:
        rng = np.random.default_rng([self.seed, tag, index])
        return rng.standard_normal(self._shape(shape))

    def setup(self) -> float:
        """Warm every case's engine and shape with a one-sweep call."""
        start = time.perf_counter()
        for i, (_, shape, kw) in enumerate(CASES):
            a = self._matrix(1, i, shape)
            self.svd(a, compute_uv=True, **{**kw, **STOP, "max_sweeps": 1})
        return time.perf_counter() - start

    def close(self) -> None:
        pass

    def measure(self, seconds: float, spans) -> Window:
        """Run rounds until *seconds* of decomposition time are spent.

        Each answer is checked as soon as it returns, outside its timing,
        so memory stays flat however many rounds run.
        """
        ops = []  # (case index, round, seconds, sweeps, failure, lapack seconds)
        self.windows += 1
        busy, rounds, gaps = 0.0, 0, []
        ready = None
        while busy < seconds:
            for i, (name, shape, kw) in enumerate(CASES):
                a = self._matrix(10 * self.windows, rounds * len(CASES) + i, shape)
                with spans.span("op", trace=len(ops)):
                    with spans.span("core.hestenes_svd"):
                        t0 = time.perf_counter()
                        try:
                            out = self.svd(a, compute_uv=True, **kw, **STOP)
                        except Exception as exc:  # counted as a failure
                            out = exc
                        t1 = time.perf_counter()
                if ready is not None:
                    gaps.append(t0 - ready)
                (_, s_ref, _), t_ref = accuracy.lapack_svd(a)
                if isinstance(out, Exception):
                    why, sweeps = f"raised {out!r}", 0
                else:
                    why, sweeps = accuracy.check_full(a, out, s_ref), out.sweeps
                ops.append((i, rounds, t1 - t0, sweeps, why, t_ref))
                busy += t1 - t0
                ready = time.perf_counter()
            rounds += 1
        rss = peak_rss_mb()
        return self._report(ops, gaps, rss)

    def _report(self, ops, gaps, rss) -> Window:
        failures = [f"{CASES[i][0]}: {why}" for i, _, _, _, why, _ in ops if why]
        lat = [MISS_LATENCY_S if why else t for _, _, t, _, why, _ in ops]
        case_s = {name: median([op[2] for op in ops if op[0] == i])
                  for i, (name, _, _) in enumerate(CASES)}
        case_ref = [median([op[5] for op in ops if op[0] == i])
                    for i in range(len(CASES))]
        # One round of the case list at each case's fast-state time
        # (lower quartile over rounds), for the program and for LAPACK.
        round_s = sum(fast([op[2] for op in ops if op[0] == i])
                      for i in range(len(CASES)))
        round_ref = sum(fast([op[5] for op in ops if op[0] == i])
                        for i in range(len(CASES)))
        ok_share = 1.0 - len(failures) / len(ops)
        engine_t = sum(op[2] for op in ops)
        sweeps = sum(op[3] for op in ops)
        flops = sum(jacobi_flops(*self._shape(CASES[i][1]), sw)
                    for i, _, _, sw, _, _ in ops)
        misses = self._range_probe()
        w = Window(attempted=len(ops), failed=len(failures),
                   failures=failures)
        w.e2e = {
            # Passing share of the operations, per second of a round.
            "goodput_ops_s": ok_share * len(CASES) / round_s,
            "ok_frac": ok_share,
            "lapack_ratio": round_s / round_ref,
            "latency_p50_s": pctl(lat, 0.5),
            "latency_p90_s": pctl(lat, 0.9),
            # A single closed-loop caller never queues behind itself.
            "idle_latency_p50_s": pctl(lat, 0.5),
            "peak_rss_mb": rss,
        }
        w.layer = {f"core.case.{k}.s": v for k, v in case_s.items()}
        w.layer.update({
            "core.sweeps": sum(op[3] for op in ops if op[1] == 0),
            "core.sweep_s": engine_t / sweeps if sweeps else 0.0,
            "core.gflop_s_computed": flops / engine_t / 1e9,
            "core.range_misses": len(misses),
            "lapack.s": sum(case_ref) / len(case_ref),
            "gen.lag_p90_s": pctl(gaps, 0.9) if gaps else 0.0,
        })
        shape = "x".join(map(str, self._shape(RANGE_SHAPE)))
        w.notes.append(
            f"range probe ({shape} scaled by 2^e, default engine): "
            f"{len(misses)} of {len(RANGE_EXPONENTS)} miss the accuracy bound"
            + "".join(f"\n  {m}" for m in misses))
        return w

    def _range_probe(self) -> list[str]:
        """Scaled inputs the default engine answers wrongly (not timed)."""
        misses = []
        for i, e in enumerate(RANGE_EXPONENTS):
            a = self._matrix(3, i, RANGE_SHAPE) * 2.0 ** e
            (_, s_ref, _), _ = accuracy.lapack_svd(a, reps=1)
            with np.errstate(all="ignore"):
                try:
                    why = accuracy.check_full(
                        a, self.svd(a, compute_uv=True, **STOP), s_ref)
                except Exception as exc:  # a crash is a miss too
                    why = f"raised {exc!r}"
            if why:
                misses.append(f"2^{e}: {why}")
        return misses
