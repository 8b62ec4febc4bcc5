"""Run one workload of the time-to-accuracy benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` splits the window into an untraced and a traced half and
prints every per-layer metric.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (environment, failures, spans) go to ``.perfbench_out/``.
"""

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 3
HASH_SEED = "0"
EXIT_NO_PROGRAM, EXIT_INVALID = 2, 3


def _load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# Workload name -> (module, class).  Only the chosen module is imported,
# so each workload's set-up time counts the library modules it loads.
WORKLOADS = {
    "solve": ("perfbench.solve", "Solve"),
    "serve": ("perfbench.serving", "Serve"),
    "shard": ("perfbench.serving", "Shard"),
    "stream": ("perfbench.stream", "Stream"),
}


def _library_path() -> str | None:
    """The checkout's ``src`` directory, or ``None`` when it has no library."""
    src = os.path.join(ROOT, "src")
    return src if os.path.isfile(os.path.join(src, "repro", "__init__.py")) else None


def _workload_class(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


def import_seconds(modules) -> float:
    """Median time to import NumPy and *modules* in a fresh interpreter.

    The running process can import a module only once, so the import
    part of set-up is repeated in child processes (same environment,
    same ``sys.path``), each waited for.
    """
    code = ("import time; t = time.perf_counter(); import numpy; "
            + "".join(f"import {m}; " for m in modules)
            + "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        smoke: bool = False):
    """Set up, measure and check one workload; returns the result record."""
    from perfbench import env
    from perfbench.spans import Spans, analyse

    contract = _load_contract()
    cls = _workload_class(workload)
    import_s = import_seconds(cls.library)
    wl = cls(seed, smoke=smoke)
    setups = []
    try:
        for rep in range(SETUP_REPS):
            if rep:
                wl.close()
            setups.append(wl.setup())
        if trace:
            base = wl.measure(seconds / 2, Spans(False))
            spans = Spans(True)
            window = wl.measure(seconds / 2, spans)
            values = {**window.e2e, **window.layer}
            untraced, traced = (w.e2e["goodput_ops_s"] for w in (base, window))
            values["obs.trace_overhead_frac"] = (
                untraced / traced - 1.0 if traced else 0.0)
            values["obs.span_coverage_frac"] = analyse(spans.records)["coverage"]
            runs = (base, window)
        else:
            spans = None
            window = wl.measure(seconds, Spans(False))
            values = {**window.e2e, **window.layer,
                      "setup_s": import_s + statistics.median(setups)}
            runs = (window,)
    finally:
        try:
            wl.close()
        finally:
            env.stop_children()
    known = {m["name"] for m in contract["end_to_end"] + contract["per_layer"]}
    if set(values) - known:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(set(values) - known)}")
    wanted = contract["per_layer" if trace else "end_to_end"]
    if not trace and {m["name"] for m in wanted} - set(values):
        raise RuntimeError("end-to-end metrics not measured: " + ", ".join(
            sorted({m["name"] for m in wanted} - set(values))))
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    return {
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
        "env": env.describe(),
        "setup_reps_s": setups,
        "import_s": import_s,
        "notes": list(dict.fromkeys(n for r in runs for n in r.notes)),
        "failures": [f for r in runs for f in r.failures],
        "spans": spans,
    }


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The shard router picks a worker by hash() of a key holding
        # strings; pin string hashing so routing repeats run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    src = _library_path()
    if src is None or not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        print(f"perfbench: {ROOT} is not a checkout of the repository "
              f"(needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return EXIT_NO_PROGRAM
    # Replace perfbench/ (the script's directory) so its module names
    # shadow nothing; spawned shard workers inherit the path.
    sys.path[0:1] = [src, ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, ROOT, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    from perfbench import env

    env.pin_threads()
    from perfbench.loadgen import InvalidRun

    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  smoke=args.smoke)
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return EXIT_INVALID
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = out.pop("spans")
    if spans is not None:
        spans.dump(stem + ".spans.jsonl")
    with open(stem + ".json", "w") as fh:
        json.dump(out, fh, indent=1)
    for note in out["notes"]:
        print(note)
    for failure in out["failures"][:20]:
        print(f"FAILED {failure}")
    print("env " + json.dumps(out["env"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
