"""Subprocess test: a partition pool leaves no traceback and no process behind.

A fresh interpreter runs one ``ProcessExecutor(2)`` wave through the
process-wide shared executor, reports the pids of its pool workers and
of multiprocessing's resource tracker, and tears the pool down with
:func:`~repro.partition.pool.shutdown_shared_executors`.  The script
runs in its own process because the tracker reports only at
interpreter exit; once it has exited, none of the reported processes
may still run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

_SCRIPT = """
import json
import multiprocessing
from multiprocessing import resource_tracker

from repro.circuits.epfl import epfl_benchmark
from repro.partition.parallel import partition_optimize
from repro.partition.pool import shared_process_executor, shutdown_shared_executors

if __name__ == "__main__":
    _optimized, report = partition_optimize(
        epfl_benchmark("int2float"), "rw", jobs=2, max_gates=60,
        executor=shared_process_executor(2),
    )
    pids = [child.pid for child in multiprocessing.active_children()]
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    if tracker is not None:
        pids.append(tracker)
    shutdown_shared_executors()
    print(json.dumps({"merged": report.regions_merged, "pids": pids}))
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` names a live process (zombies awaiting a reaper count as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as stream:
            return stream.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_pool_wave_and_shutdown_leave_no_traceback_and_no_child(tmp_path) -> None:
    script = tmp_path / "pool_wave.py"
    script.write_text(_SCRIPT)
    environment = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    environment["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    # Files, not pipes: ``run`` then returns when the script itself
    # exits, not when the last process holding its stdio does.
    stdout_path, stderr_path = tmp_path / "stdout", tmp_path / "stderr"
    with open(stdout_path, "w") as stdout, open(stderr_path, "w") as stderr:
        completed = subprocess.run(
            [sys.executable, str(script)], stdout=stdout, stderr=stderr, env=environment, timeout=120
        )
    errors = stderr_path.read_text()
    assert completed.returncode == 0, errors
    assert "Traceback" not in errors, errors
    report = json.loads(stdout_path.read_text().strip().splitlines()[-1])
    assert report["merged"] > 0
    assert len(report["pids"]) >= 2, "the wave spawned no pool workers"
    # The resource tracker exits when it reads EOF from its pipe; give it
    # a moment to notice that the parent is gone.
    deadline = time.monotonic() + 5.0
    while any(_running(pid) for pid in report["pids"]) and time.monotonic() < deadline:
        time.sleep(0.05)
    leftover = [pid for pid in report["pids"] if _running(pid)]
    assert not leftover, f"processes outlived their parent: {leftover}"
