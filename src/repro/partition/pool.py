"""Region executors: inline, thread pool, and the restartable process pool.

All three expose the same tiny surface (:class:`RegionExecutor`): run a
wave of region payloads -- one payload per region, each one job of
:func:`~repro.partition.worker.run_partition_job` -- and return one
outcome dict per payload, **in payload order** -- the parent merges in
region-index order regardless of which worker finished first, which is
what makes ``jobs=4`` commit the exact sequence ``jobs=1`` does.

Failure handling lives here so the driver never sees an exception from
a worker, only a typed outcome:

* a worker that raises comes back as ``{"status": "worker_crashed"}``;
* a hung worker comes back as ``{"status": "worker_timeout"}``.  The
  pool executors collect results as they complete and give up only
  when ``timeout`` seconds pass with no region completing, so a hang
  holds the wave for one ``timeout`` after the last healthy region, not
  for the whole wave's budget.  In process mode the hung children are
  terminated with their pool, and the regions still queued behind them
  re-run on a fresh pool -- a wedged child never wedges the flow;
* hard worker death in process mode (``os._exit``) breaks the whole
  ``ProcessPoolExecutor``; the executor rebuilds the pool and retries
  the affected payloads **one at a time** in isolation, so exactly the
  region that kills its worker is reported crashed and its innocent
  wave neighbours still complete.  Every rebuild increments
  ``restarts`` (surfaced as the ``ppart_worker_restarts`` counter).

Process pools are expensive to start: each spawned worker imports the
package and enumerates the exact rewrite tables once in its initializer
(:func:`~repro.rewriting.library.warm_worker`, about 0.2-0.3 s, in parallel
across workers).  :func:`shared_process_executor` therefore keeps one
pool per worker count alive for the whole process and hands it to every
``ppart`` invocation -- the same warm-worker reuse pattern the
synthesis service uses.
"""

from __future__ import annotations

import atexit
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Any, Protocol

from ..rewriting.library import warm_worker
from .worker import run_partition_job

__all__ = [
    "RegionExecutor",
    "InlineExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "shared_process_executor",
    "shutdown_shared_executors",
]


def _failure(payload: dict[str, Any], status: str, message: str) -> dict[str, Any]:
    return {"region": int(payload.get("region", -1)), "status": status, "message": message}


def _collect(
    futures: list[Future[dict[str, Any]]],
    payloads: list[dict[str, Any]],
    timeout: float | None,
) -> tuple[list[dict[str, Any]], list[int], list[int]]:
    """Gather one wave's outcomes, in payload order, as the jobs complete.

    Waits for the next completion at most ``timeout`` seconds (``None``:
    forever).  When that passes with no region completing, the wave has
    stalled: every unfinished job is cancelled and comes back as
    ``worker_timeout``.  A region is thus timed out only after it has
    run ``timeout`` seconds since its worker slot freed up, however many
    regions queued before it.

    Also returns the indices whose job broke with the pool (hard worker
    death, reported ``worker_crashed``) and the unfinished indices in
    payload order.  Jobs start in submission order, so the first
    ``jobs`` unfinished payloads are the ones that held the workers; any
    after them never started.
    """
    outcomes: list[dict[str, Any]] = [{} for _ in futures]
    broken: list[int] = []
    index_of = {future: index for index, future in enumerate(futures)}
    pending = set(futures)
    while pending:
        done, pending = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
        if not done:
            break
        for future in done:
            index = index_of[future]
            try:
                outcomes[index] = future.result()
            except (BrokenProcessPool, CancelledError):
                broken.append(index)
                outcomes[index] = _failure(payloads[index], "worker_crashed", "worker process died")
            except Exception as error:
                outcomes[index] = _failure(
                    payloads[index], "worker_crashed", f"{type(error).__name__}: {error}"
                )
    unfinished = sorted(index_of[future] for future in pending)
    for index in unfinished:
        futures[index].cancel()
        outcomes[index] = _failure(
            payloads[index], "worker_timeout", f"no region completed within {timeout}s"
        )
    return outcomes, sorted(broken), unfinished


class RegionExecutor(Protocol):
    """Anything that runs region payloads, one job each, to outcomes in payload order."""

    #: Worker-pool restarts performed while serving waves (0 where the
    #: concept does not apply).
    restarts: int

    def map_regions(
        self, payloads: list[dict[str, Any]], timeout: float | None = None
    ) -> list[dict[str, Any]]: ...  # pragma: no cover - protocol


class InlineExecutor:
    """Sequential in-process execution: ``jobs=1``, the deterministic reference.

    ``timeout`` is not enforced (there is no second thread to watch the
    clock); the worker's own :class:`~repro.resilience.Budget` deadline
    bounds each region instead.
    """

    def __init__(self) -> None:
        self.restarts = 0

    def map_regions(
        self, payloads: list[dict[str, Any]], timeout: float | None = None
    ) -> list[dict[str, Any]]:
        outcomes: list[dict[str, Any]] = []
        for payload in payloads:
            try:
                outcomes.append(run_partition_job(payload))
            except Exception as error:
                outcomes.append(
                    _failure(payload, "worker_crashed", f"{type(error).__name__}: {error}")
                )
        return outcomes


class ThreadExecutor:
    """Thread-pool execution: concurrency without process isolation.

    Used by the tests (including the chaos fuzz suite, where
    ``crash-soft`` faults stand in for hard death) and useful for
    debugging; no restarts -- a raising thread worker harms nothing.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.restarts = 0
        self._pool = ThreadPoolExecutor(max_workers=jobs, thread_name_prefix="repro-part")

    def map_regions(
        self, payloads: list[dict[str, Any]], timeout: float | None = None
    ) -> list[dict[str, Any]]:
        futures = [self._pool.submit(run_partition_job, payload) for payload in payloads]
        # Threads cannot be killed, so regions queued behind hung
        # workers would never run: they time out with them.
        return _collect(futures, payloads, timeout)[0]

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


class ProcessExecutor:
    """Spawned, warmed, restartable ``ProcessPoolExecutor`` over regions."""

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.restarts = 0
        self._context = get_context("spawn")
        self._pool: ProcessPoolExecutor | None = None

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=self._context, initializer=warm_worker
            )
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down hard (terminates hung children) and count it."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self.restarts += 1
        try:
            for process in list(getattr(pool, "_processes", {}).values()):
                process.terminate()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down without counting a restart (normal teardown)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- execution ------------------------------------------------------

    def map_regions(
        self, payloads: list[dict[str, Any]], timeout: float | None = None
    ) -> list[dict[str, Any]]:
        pool = self._ensure_pool()
        futures = [pool.submit(run_partition_job, payload) for payload in payloads]
        outcomes, broken, unfinished = _collect(futures, payloads, timeout)
        if broken or unfinished:
            # A dead worker broke the pool, or hung ones occupy it.
            self._kill_pool()
        # Regions queued behind the hung ones never ran: run them again.
        unstarted = unfinished[self.jobs :]
        if unstarted:
            rerun = self.map_regions([payloads[index] for index in unstarted], timeout)
            for index, outcome in zip(unstarted, rerun):
                outcomes[index] = outcome
        for index in broken:
            outcomes[index] = self._retry_single(payloads[index], timeout)
        return outcomes

    def _retry_single(self, payload: dict[str, Any], timeout: float | None) -> dict[str, Any]:
        """Re-run one region payload alone in a fresh pool."""
        pool = self._ensure_pool()
        try:
            return pool.submit(run_partition_job, payload).result(timeout=timeout)
        except FuturesTimeoutError:
            self._kill_pool()
            return _failure(payload, "worker_timeout", f"no result within {timeout}s")
        except (BrokenProcessPool, CancelledError):
            self._kill_pool()
            return _failure(payload, "worker_crashed", "worker process died")
        except Exception as error:  # pragma: no cover - defensive
            return _failure(payload, "worker_crashed", f"{type(error).__name__}: {error}")


#: Long-lived warmed process pools, one per worker count, shared by every
#: ``ppart`` invocation of this process (CLI flags, service jobs, tests).
_SHARED_EXECUTORS: dict[int, ProcessExecutor] = {}


def shared_process_executor(jobs: int) -> ProcessExecutor:
    """The process-wide warmed executor for ``jobs`` workers."""
    executor = _SHARED_EXECUTORS.get(jobs)
    if executor is None:
        executor = ProcessExecutor(jobs)
        _SHARED_EXECUTORS[jobs] = executor
    return executor


def shutdown_shared_executors() -> None:
    """Tear down every shared pool (tests, benchmarks, interpreter exit)."""
    for executor in _SHARED_EXECUTORS.values():
        executor.close()
    _SHARED_EXECUTORS.clear()


atexit.register(shutdown_shared_executors)
