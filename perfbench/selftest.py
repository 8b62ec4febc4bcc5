"""Self-tests of the benchmark: ``python3 -m pytest perfbench/selftest.py``.

They run small-size windows through the real command line, so they
take about a minute.  Run them from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path[0:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench import accuracy  # noqa: E402
from perfbench.run import WORKLOADS as RUNNABLE  # noqa: E402
from perfbench.spans import Spans, analyse  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)
# Every workload run.py offers, including those BENCHMARK.json leaves out.
WORKLOADS = sorted(RUNNABLE)


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _smoke(workload, seed, trace):
    out = _cli("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    result = _smoke(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_two_seeds_give_different_inputs_and_the_same_metric_set():
    from perfbench.serving import Serve
    from perfbench.solve import Solve
    from perfbench.stream import Stream

    a, b = Solve(1, smoke=True), Solve(2, smoke=True)
    assert not np.array_equal(a._matrix(10, 0, (8, 8)), b._matrix(10, 0, (8, 8)))
    a, b = Serve(1, smoke=True), Serve(2, smoke=True)
    assert not np.array_equal(a._matrix(10, 0), b._matrix(10, 0))
    a, b = Stream(1, smoke=True), Stream(2, smoke=True)
    assert not np.array_equal(a.source.block_array(0), b.source.block_array(0))
    one, two = _smoke("solve", 1, 0), _smoke("solve", 2, 0)
    assert set(one["metrics"]) == set(two["metrics"])


def test_a_solver_returning_perturbed_values_is_counted_failed():
    from repro.core.result import SVDResult

    from perfbench.solve import Solve

    def perturbed(a, compute_uv=True, **_):
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        return SVDResult(s=s * (1 + 1e-6), u=u, vt=vt, sweeps=1)

    window = Solve(1, smoke=True, svd=perturbed).measure(0.001, Spans(False))
    assert window.attempted >= 1
    assert window.failed == window.attempted
    assert window.e2e["goodput_ops_s"] == 0.0
    assert all("singular-value error" in f for f in window.failures)


def test_accuracy_checks_accept_lapack_and_reject_wrong_factors():
    from repro.core.result import SVDResult

    a = np.random.default_rng(0).standard_normal((12, 6)) * 2.0 ** 600
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    assert accuracy.check_full(a, SVDResult(s=s, u=u, vt=vt), s) is None
    assert "residual" in accuracy.check_full(a, SVDResult(s=s, u=u[:, ::-1], vt=vt), s)
    assert "non-finite" in accuracy.check_full(
        a, SVDResult(s=s * np.inf, u=u, vt=vt), s)


def test_self_time_subtracts_children_and_coverage_counts_roots():
    spans = Spans(True)
    root = spans.add("op", 0.0, 10.0)
    spans.add("layer", 1.0, 4.0, parent=root)
    spans.add("layer", 3.0, 6.0, parent=root)  # overlaps the first child
    found = analyse(spans.records)
    assert found["spans"]["op"]["self_s"] == pytest.approx(5.0)
    assert found["spans"]["layer"]["count"] == 2
    assert found["coverage"] == pytest.approx(0.5)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _cli("--workload", "solve", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def _session_pids(sid):
    """Pids, zombies included, whose session id is *sid*."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getsid(int(entry)) == sid:
                    pids.append(int(entry))
            except OSError:
                pass
    return pids


def test_shard_run_leaves_no_process_behind():
    # The run leads its own session, so anything it started, even if
    # reparented after the run exits, still carries the session id.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "shard", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    _, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err
    assert _session_pids(proc.pid) == []
