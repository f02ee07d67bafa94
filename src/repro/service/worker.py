"""Worker-side job execution: warmed shared libraries, one flow per job.

Workers are plain functions so they run identically in a
``ProcessPoolExecutor`` (the server's default: one OS process per
worker, true parallelism) and in a thread pool (``--workers 0``, used by
the tests and for debugging).

:func:`warm_worker` (defined next to the library it warms, in
:mod:`repro.rewriting.library`) is the pool initializer: it pays the
cache warm-up that dominates a cold CLI invocation **once per worker
process** -- the
exact-enumeration NPN structure library
(:func:`~repro.rewriting.library.default_library`) and the NPN canonical
tables -- so every job dispatched to that worker reuses them.  The
libraries are only ever read after warm-up (structures are memoised
per NPN class and new classes are appended, never mutated in place), so
sharing them across the jobs a worker executes sequentially -- or, in
thread mode, across concurrent jobs -- is safe.

:func:`execute_job` runs one job end to end under its own
:class:`~repro.resilience.Budget` deadline and a transactional
:class:`~repro.rewriting.passes.PassManager` (``on_error="rollback"``
by default, optional verification-gated commits), so a crashing,
over-budget or verification-failing job produces a typed result without
poisoning the worker for its neighbours.  Per-pass progress is pushed
into the ``events`` queue as it happens (a ``multiprocessing`` manager
queue from the process pool, a plain ``queue.Queue`` in thread mode);
the final result is the function's return value.
"""

from __future__ import annotations

import traceback
from typing import Any, Mapping, Protocol

from ..io import ParseError, write_aiger, write_blif
from ..networks.klut import KLutNetwork
from ..resilience import Budget, BudgetExceeded, VerificationFailed
from ..rewriting.library import warm_worker
from ..rewriting.passes import FlowStatistics, PassManager, PassStatistics
from .jobs import JobRequest, JobValidationError, event_pass

__all__ = ["warm_worker", "execute_job", "EventSink"]


class EventSink(Protocol):
    """Anything with a ``put`` accepting one JSON-ready event dict."""

    def put(self, item: dict[str, Any]) -> None: ...  # pragma: no cover - protocol


def _job_status(flow: FlowStatistics) -> str:
    """Typed status of a completed (non-raising) flow run."""
    if flow.verified is False:
        return "verify_failed"
    if flow.budget_exhausted:
        return "budget"
    if flow.failed_passes:
        return "pass_failed"
    return "ok"


def _serialize_output(network: Any) -> tuple[str, str]:
    """Output text and its format for the result payload."""
    if isinstance(network, KLutNetwork):
        return write_blif(network), "blif"
    return write_aiger(network).decode("ascii"), "aag"


def execute_job(
    job_id: str, payload: Mapping[str, Any], events: "EventSink | None" = None
) -> dict[str, Any]:
    """Run one job; returns the JSON-ready result payload.

    Never raises (short of interpreter death): every failure mode comes
    back as a payload with a typed ``status`` (see
    :data:`~repro.service.jobs.STATUS_EXIT_CODES`) and a ``message``.
    ``events`` receives one ``pass`` event per settled pass while the
    flow runs.
    """
    warm_worker()
    try:
        request = JobRequest.from_payload(payload)
        network = request.parse_network()
    except (JobValidationError, ParseError) as error:
        return {"status": "invalid", "message": str(error)}
    except ValueError as error:
        return {"status": "invalid", "message": str(error)}

    try:
        manager = PassManager(
            request.effective_script(),
            seed=request.seed,
            num_patterns=request.num_patterns,
            conflict_limit=request.conflict_limit,
            lut_size=request.lut_size,
            on_error=request.on_error,
            verify_commit=request.verify_commit,
            pass_timeout=request.pass_timeout,
        )
    except ValueError as error:
        return {"status": "invalid", "message": str(error)}

    def emit(stats: PassStatistics) -> None:
        if events is not None:
            events.put(event_pass(job_id, stats.as_dict()))

    budget = Budget(wall_clock=request.timeout) if request.timeout is not None else None
    try:
        optimized, flow = manager.run(
            network, verify=request.verify, budget=budget, progress=emit
        )
    except BudgetExceeded as error:
        return {"status": "budget", "message": str(error)}
    except VerificationFailed as error:
        return {"status": "verify_failed", "message": str(error)}
    except Exception as error:  # a pass raised under on_error="raise"
        return {
            "status": "pass_failed",
            "message": f"{type(error).__name__}: {error}",
            "traceback": traceback.format_exc(limit=8),
        }

    status = _job_status(flow)
    result: dict[str, Any] = {
        "status": status,
        "flow": flow.as_dict(),
    }
    if status in ("ok", "pass_failed"):
        output, output_format = _serialize_output(optimized)
        result["output"] = output
        result["output_format"] = output_format
    if status != "ok":
        reasons = "; ".join(
            f"{stats.name}: {stats.failure}" for stats in flow.failed_passes
        )
        result["message"] = reasons or f"flow finished with status {status!r}"
    return result
