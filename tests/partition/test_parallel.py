"""The partition-parallel driver: merge-back correctness and determinism."""

from __future__ import annotations

import os

import pytest

from repro.circuits.epfl import epfl_benchmark
from repro.circuits.random_logic import random_aig
from repro.networks.structural_hash import structural_hash
from repro.partition.parallel import partition_optimize
from repro.partition.pool import ThreadExecutor, shutdown_shared_executors
from repro.resilience import Budget
from repro.sweeping.cec import check_combinational_equivalence


def _assert_equivalent(reference, candidate) -> None:
    outcome = check_combinational_equivalence(reference, candidate)
    assert outcome.status == "equivalent"
    assert outcome.equivalent


@pytest.mark.parametrize("strategy", ["window", "level"])
def test_inline_partition_optimize_reduces_and_preserves_function(strategy: str) -> None:
    aig = epfl_benchmark("int2float")
    optimized, report = partition_optimize(aig, "rw; rf", jobs=1, max_gates=80, strategy=strategy)
    assert optimized.num_gates < aig.num_gates
    assert report.regions_built == len(report.regions) > 1
    assert report.regions_merged >= 1
    assert report.regions_rolled_back == 0
    _assert_equivalent(aig, optimized)
    # The input network is never mutated.
    assert aig.num_gates == epfl_benchmark("int2float").num_gates


def test_jobs_do_not_change_the_result_thread_pool() -> None:
    """jobs=1 inline and jobs=4 threads commit the identical sequence."""
    aig = epfl_benchmark("mem_ctrl")
    inline, _ = partition_optimize(aig, "rw; rf", jobs=1, max_gates=150)
    executor = ThreadExecutor(4)
    try:
        pooled, report = partition_optimize(
            aig, "rw; rf", jobs=4, max_gates=150, executor=executor
        )
    finally:
        executor.close()
    assert report.regions_rolled_back == 0
    assert structural_hash(inline) == structural_hash(pooled)


def test_jobs_do_not_change_the_result_process_pool() -> None:
    """jobs=1 inline and jobs=2 spawned processes agree structurally."""
    aig = epfl_benchmark("int2float")
    inline, _ = partition_optimize(aig, "rw", jobs=1, max_gates=60)
    try:
        pooled, report = partition_optimize(aig, "rw", jobs=2, max_gates=60)
    finally:
        shutdown_shared_executors()
    assert report.worker_restarts == 0
    assert structural_hash(inline) == structural_hash(pooled)
    _assert_equivalent(aig, pooled)


def test_repeated_runs_are_reproducible() -> None:
    aig = random_aig(num_pis=12, num_gates=400, num_pos=10, seed=11)
    first, _ = partition_optimize(aig, "rw; rf", jobs=1, max_gates=70)
    second, _ = partition_optimize(aig, "rw; rf", jobs=1, max_gates=70)
    assert structural_hash(first) == structural_hash(second)


def test_solver_windows_do_not_change_a_fraig_result() -> None:
    """Retiring each region's solver window every two queries changes no merge."""
    aig = epfl_benchmark("mem_ctrl")
    fresh, _ = partition_optimize(aig, "fraig", jobs=1, max_gates=300)
    windowed, report = partition_optimize(aig, "fraig", jobs=1, max_gates=300, window_size=2)
    details = report.as_details()
    assert details["sat_windows_opened"] > report.regions_built
    assert structural_hash(windowed) == structural_hash(fresh)


def test_choice_merge_keeps_subject_graph_and_records_choices() -> None:
    aig = epfl_benchmark("int2float")
    optimized, report = partition_optimize(aig, "rw", jobs=1, max_gates=80, merge="choice")
    # Choice mode is additive: every original gate survives.
    assert optimized.num_gates >= aig.num_gates
    assert report.choices_recorded >= 1
    assert report.as_details()["ppart_choices_recorded"] == float(report.choices_recorded)
    _assert_equivalent(aig, optimized)


def test_per_partition_sat_counters_surface_in_details() -> None:
    """A fraig-bearing script reports per-region CDCL counters."""
    aig = epfl_benchmark("int2float")
    _, report = partition_optimize(aig, "rw; fraig", jobs=1, max_gates=120)
    ok_regions = [r for r in report.regions if r.status in ("merged", "unchanged")]
    assert ok_regions
    assert any(r.details.get("sat_calls", 0) > 0 for r in ok_regions)
    details = report.as_details()
    assert details["sat_calls"] == sum(r.details.get("sat_calls", 0.0) for r in report.regions)
    dicts = report.partition_dicts()
    assert [d["index"] for d in dicts] == [r.index for r in report.regions]


def test_pre_expired_budget_raises_like_any_pass() -> None:
    aig = epfl_benchmark("int2float")
    from repro.resilience import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        partition_optimize(aig, "rw", jobs=1, max_gates=60, budget=Budget(wall_clock=0.0))


def test_budget_exhaustion_mid_merge_degrades_gracefully() -> None:
    """A deadline lost after dispatch skips remaining merges without raising."""
    import time

    from repro.partition.pool import InlineExecutor

    class SlowExecutor:
        """Runs the regions, then burns the flow deadline before merge."""

        restarts = 0

        def map_regions(self, payloads, timeout=None):
            outcomes = InlineExecutor().map_regions(payloads)
            time.sleep(0.3)
            return outcomes

    aig = epfl_benchmark("int2float")
    budget = Budget(wall_clock=0.25)
    optimized, report = partition_optimize(
        aig, "rw", jobs=1, max_gates=60, budget=budget, executor=SlowExecutor()
    )
    assert report.regions_skipped == report.regions_built
    # Nothing committed: the result is the input, function preserved.
    assert structural_hash(optimized) == structural_hash(aig)


def test_conflict_pool_is_charged_by_workers() -> None:
    aig = epfl_benchmark("int2float")
    budget = Budget(conflicts=1_000_000)
    _, report = partition_optimize(aig, "rw; fraig", jobs=1, max_gates=120, budget=budget)
    assert report.regions_merged + sum(
        1 for r in report.regions if r.status == "unchanged"
    ) == report.regions_built
    assert budget.conflicts_spent >= 0


def test_invalid_arguments_are_rejected() -> None:
    aig = random_aig(num_pis=4, num_gates=30, num_pos=2, seed=2)
    with pytest.raises(ValueError):
        partition_optimize(aig, "rw", jobs=0)
    with pytest.raises(ValueError):
        partition_optimize(aig, "rw", merge="overwrite")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs >= 2 CPUs to matter")
def test_process_pool_reuse_does_not_restart_workers() -> None:
    aig = epfl_benchmark("ctrl")
    try:
        _, first = partition_optimize(aig, "rw", jobs=2, max_gates=40)
        _, second = partition_optimize(aig, "rw", jobs=2, max_gates=40)
    finally:
        shutdown_shared_executors()
    assert first.worker_restarts == 0
    assert second.worker_restarts == 0


class _RecordingExecutor:
    """Runs every payload inline and records what the driver dispatched."""

    restarts = 0

    def __init__(self) -> None:
        self.calls: list[tuple[list[dict], float | None]] = []

    def map_regions(self, payloads, timeout=None):
        from repro.partition.pool import InlineExecutor

        self.calls.append((list(payloads), timeout))
        return InlineExecutor().map_regions(payloads)


def test_each_active_region_is_dispatched_as_one_job() -> None:
    aig = epfl_benchmark("int2float")
    executor = _RecordingExecutor()
    inline, _ = partition_optimize(aig, "rw", jobs=1, max_gates=60)
    optimized, report = partition_optimize(aig, "rw", jobs=2, max_gates=60, executor=executor)
    # One wave call, one payload per region with visible outputs, in
    # region-index order; dead cones never reach a worker.
    assert len(executor.calls) == 1
    payloads, _timeout = executor.calls[0]
    active = [r.index for r in report.regions if r.outputs]
    assert [int(payload["region"]) for payload in payloads] == active
    assert all(isinstance(payload["wire"], bytes) for payload in payloads)
    assert structural_hash(optimized) == structural_hash(inline)


def test_no_collection_timeout_without_a_deadline() -> None:
    aig = epfl_benchmark("int2float")
    executor = _RecordingExecutor()
    partition_optimize(aig, "rw", jobs=2, max_gates=60, executor=executor)
    payloads, timeout = executor.calls[0]
    assert timeout is None
    assert all("deadline" not in payload for payload in payloads)


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_collection_timeout_is_region_deadline_plus_grace(jobs: int) -> None:
    from repro.partition import parallel as parallel_module

    aig = epfl_benchmark("int2float")
    executor = _RecordingExecutor()
    region_timeout = 7.0
    partition_optimize(
        aig, "rw", jobs=jobs, max_gates=60, executor=executor, region_timeout=region_timeout
    )
    payloads, timeout = executor.calls[0]
    assert len(payloads) > 4
    # Each region job gets the region deadline; the executor times a
    # worker out once a region deadline plus the grace passes with no
    # region completing, however many waves the pool width implies.
    assert all(payload["deadline"] == region_timeout for payload in payloads)
    assert timeout == pytest.approx(region_timeout + parallel_module._TIMEOUT_GRACE)
