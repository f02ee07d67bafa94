"""Subprocess smoke test: `repro serve` with a real process worker pool.

This is the one test that exercises the production pool path -- spawned
worker processes warming their own libraries, manager-queue event
streaming back across the process boundary -- end to end through the
console entry point, and the graceful SIGTERM stop that takes the worker
processes down with the server.  CI runs the same scenario as a
workflow step.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import re
import subprocess
import sys
import time

from repro.service import JobRequest, SynthesisServer, fetch_json, submit

_BANNER = re.compile(r"http://[\w.]+:(\d+)")


def _children(pid: int) -> list[int]:
    """PIDs of the direct children of ``pid`` (Linux ``/proc``)."""
    with open(f"/proc/{pid}/task/{pid}/children") as handle:
        return [int(child) for child in handle.read().split()]


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie waiting to be reaped counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # The state follows the parenthesised command name.
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def test_serve_subprocess_with_process_workers(tmp_path, adder_text: str) -> None:
    log_path = tmp_path / "serve.log"
    environment = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    environment["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    with open(log_path, "w") as log:
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.harness.cli",
                "serve",
                "--port",
                "0",
                "--workers",
                "1",
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=environment,
        )
    try:
        port = None
        deadline = time.time() + 60
        while time.time() < deadline:
            match = _BANNER.search(log_path.read_text())
            if match:
                port = int(match.group(1))
                break
            assert process.poll() is None, f"server died:\n{log_path.read_text()}"
            time.sleep(0.2)
        assert port is not None, f"no listening banner:\n{log_path.read_text()}"

        health = fetch_json("/healthz", port=port, timeout=30)
        assert health["mode"] == "process" and health["workers"] == 1

        request = JobRequest(circuit=adder_text, script="resyn2")
        outcome = submit(request, port=port, timeout=120)
        assert outcome.status == "ok", outcome.message
        assert len(outcome.pass_events) == len(outcome.flow["passes"])

        again = submit(request, port=port, timeout=120)
        assert again.cached

        metrics = fetch_json("/metrics", port=port, timeout=30)
        assert metrics["cache"]["hits"] == 1

        # SIGTERM is a graceful stop: the pool worker, the manager and the
        # resource tracker all exit with the server.
        children = _children(process.pid)
        assert children, "the process-mode server runs no worker processes"
        process.terminate()
        assert process.wait(timeout=30) == 0, log_path.read_text()
        deadline = time.time() + 30
        while time.time() < deadline and any(_alive(child) for child in children):
            time.sleep(0.2)
        assert not [child for child in children if _alive(child)]
    finally:
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover - cleanup path
                process.kill()


def test_close_terminates_a_job_that_outlives_the_grace() -> None:
    """A hung job cannot keep a stopping server alive: after the grace its worker is terminated."""

    async def scenario() -> tuple[float, list[multiprocessing.process.BaseProcess]]:
        before = set(multiprocessing.active_children())
        server = SynthesisServer(port=0, workers=1)
        await server.start()
        assert server._pool is not None
        server._pool.submit(time.sleep, 90)
        deadline = time.monotonic() + 60
        while len(set(multiprocessing.active_children()) - before) < 2 and time.monotonic() < deadline:
            await asyncio.sleep(0.1)
        # The manager and the pool worker.
        children = list(set(multiprocessing.active_children()) - before)
        assert len(children) == 2
        started = time.monotonic()
        await server.close(grace=1.0)
        return time.monotonic() - started, children

    elapsed, children = asyncio.run(scenario())
    assert elapsed < 30
    assert not [child for child in children if child.is_alive()]
