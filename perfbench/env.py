"""Pin the BLAS thread pools and record the environment of a run.

:func:`pin_threads` must run before NumPy is imported anywhere in the
process: OpenBLAS reads its thread count once, at load.  Spawned shard
workers inherit the pinned variables through the environment.
:func:`stop_children` ends and reaps every process a run started.
"""

from __future__ import annotations

import os
import platform
import signal
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Force single-threaded BLAS for this process and its children."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for name in THREAD_VARS:
        os.environ[name] = "1"


def describe() -> dict:
    """BLAS vendor/version, thread settings, core count, Python/NumPy."""
    import numpy as np

    deps = np.__config__.CONFIG.get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def _child_pids() -> list[int]:
    """Pids of this process's live or unreaped children, from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(timeout: float = 10.0) -> None:
    """Stop every child process of this run and wait until each has ended.

    Shared memory makes ``multiprocessing`` start a resource-tracker
    process that otherwise outlives the run; it is stopped the way
    CPython stops it (close its pipe, wait for it).  Worker processes
    are joined, and any child still left is terminated and reaped.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    mp = sys.modules.get("multiprocessing")
    if mp is not None:
        for proc in mp.active_children():
            proc.join(timeout)
    for pid in _child_pids():
        for sig in (None, signal.SIGTERM, signal.SIGKILL):
            if sig is not None:
                os.kill(pid, sig)
            if _reaped(pid, timeout / 2):
                break


def _reaped(pid: int, seconds: float) -> bool:
    """Wait up to *seconds* for child *pid* to end; True once it is reaped."""
    deadline = time.monotonic() + seconds
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
