"""Subprocess test: the shared exact-table segment leaves no tracker noise.

A fresh interpreter publishes the exact-enumeration blob, attaches it
from a two-worker spawned pool (the partition and service pools' start
method) and unpublishes it.  Spawned workers share the parent's
``resource_tracker``, so an attach that unregistered the segment used to
remove the parent's own registration, and the tracker printed a
``KeyError`` traceback when the parent later unlinked it.  The script
runs in its own process because the tracker reports only at interpreter
exit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from multiprocessing import shared_memory

_SCRIPT = """
import json
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from repro.rewriting.shared import (
    attach_shared_library,
    publish_shared_library,
    unpublish_shared_library,
)

if __name__ == "__main__":
    descriptor = publish_shared_library()
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        attached = list(pool.map(attach_shared_library, [descriptor, descriptor]))
    unpublish_shared_library()
    print(json.dumps({"kind": descriptor.kind, "name": descriptor.name, "attached": attached}))
"""


def test_spawned_attach_leaves_no_tracker_traceback(tmp_path) -> None:
    script = tmp_path / "attach_from_pool.py"
    script.write_text(_SCRIPT)
    environment = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    environment["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=environment,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "Traceback" not in completed.stderr, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["kind"] == "shm"
    assert report["attached"] == [True, True]
    try:
        leftover = shared_memory.SharedMemory(name=report["name"])
    except FileNotFoundError:
        return
    leftover.close()
    leftover.unlink()
    raise AssertionError(f"segment {report['name']} outlived its publisher")
