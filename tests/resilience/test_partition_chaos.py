"""Partition chaos fuzz: worker faults hit exactly their own partition.

Every seed decomposes a redundant random workload, injects one worker
fault (soft crash, plain exception, hang past the collection deadline,
or a garbage result -- well-formed but non-equivalent) into a rotating
subset of regions, and asserts the blast radius: only the faulted
regions end up non-merged, every healthy region still commits, no
exception escapes, and the final network is CEC-equivalent to the
input.  Thread executors stand in for process pools (a raising thread
is observationally a dead worker, without paying a process spawn per
seed); one real spawned-pool crash test at the end covers the
``os._exit`` path and the pool-restart accounting.
"""

from __future__ import annotations

import os

import pytest

from repro.circuits.random_logic import random_aig
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import Aig
from repro.partition import parallel as parallel_module
from repro.partition.parallel import partition_optimize
from repro.partition.pool import ThreadExecutor, shutdown_shared_executors
from repro.partition.regions import partition_network
from repro.sweeping.cec import check_combinational_equivalence

SEEDS = list(range(24))

#: Worker fault modes exercised by the rotating plans.  ``crash-soft``
#: stands in for hard worker death (an exception crossing the executor
#: boundary), ``timeout`` hangs past the collection deadline,
#: ``garbage`` returns a well-formed but non-equivalent network that
#: must die at parent-side verification.
FAULTS = ["crash-soft", "exception", "timeout", "garbage"]

MAX_GATES = 25


def _workload(seed: int) -> Aig:
    base = random_aig(num_pis=8, num_gates=120, num_pos=6, seed=seed)
    workload, _report = inject_redundancy(
        base,
        duplication_fraction=0.2,
        constant_cones=1,
        near_miss_count=1,
        cut_size=3,
        seed=seed + 1,
    )
    return workload


@pytest.mark.parametrize("seed", SEEDS)
def test_worker_fault_blast_radius_is_one_partition(seed: int, monkeypatch):
    monkeypatch.setattr(parallel_module, "_TIMEOUT_GRACE", 1.5)
    aig = _workload(seed)
    regions = partition_network(aig, max_gates=MAX_GATES)
    assert len(regions) >= 3, "workload too small to partition meaningfully"
    fault = FAULTS[seed % len(FAULTS)]
    # Rotate one or two faulted regions across the seeds.  Only regions
    # with visible outputs are eligible: dead cones are never dispatched
    # to a worker, so a fault planted there would never fire.
    eligible = [region.index for region in regions if region.outputs]
    assert len(eligible) >= 3
    faulted = {eligible[seed % len(eligible)]: fault}
    if seed % 2:
        faulted[eligible[(seed // 2 + 1) % len(eligible)]] = fault

    executor = ThreadExecutor(3)
    try:
        optimized, report = partition_optimize(
            aig,
            "rw; rf",
            # The injected executor bounds real concurrency at 3.  The
            # collection timeout, region_timeout + grace = 3.0s, stays
            # safely below the injected 10s hang -- otherwise the
            # sleeping worker wakes up and innocently merges.
            jobs=len(regions),
            max_gates=MAX_GATES,
            executor=executor,
            region_timeout=1.5,
            fault_plan=faulted,
            fault_sleep=10.0,
        )
    finally:
        executor.close()

    by_index = {region.index: region for region in report.regions}
    for index, region_report in by_index.items():
        if index in faulted:
            # The faulted partition never commits...
            if fault == "garbage":
                assert region_report.status == "rolled_back"
                assert "not equivalent" in (region_report.failure or "")
            else:
                assert region_report.status == "worker_failed"
        else:
            # ...and every healthy partition is unaffected.
            assert region_report.status in ("merged", "unchanged"), (
                f"region {index}: {region_report.status} ({region_report.failure})"
            )
    assert report.regions_rolled_back == len(faulted)

    outcome = check_combinational_equivalence(aig, optimized)
    assert outcome.status == "equivalent"
    assert outcome.equivalent


def test_all_workers_faulted_returns_the_input(monkeypatch):
    monkeypatch.setattr(parallel_module, "_TIMEOUT_GRACE", 2.0)
    aig = _workload(99)
    regions = partition_network(aig, max_gates=MAX_GATES)
    executor = ThreadExecutor(2)
    try:
        optimized, report = partition_optimize(
            aig,
            "rw",
            jobs=2,
            max_gates=MAX_GATES,
            executor=executor,
            fault_plan={region.index: "exception" for region in regions},
        )
    finally:
        executor.close()
    assert report.regions_merged == 0
    # Every dispatched region failed; dead cones were never dispatched.
    assert report.regions_rolled_back == sum(1 for region in regions if region.outputs)
    from repro.networks.structural_hash import structural_hash

    assert structural_hash(optimized) == structural_hash(aig)


def test_hung_region_at_pool_width_costs_only_itself(monkeypatch):
    """Default dispatch with as many jobs as workers: a hang is one region."""
    monkeypatch.setattr(parallel_module, "_TIMEOUT_GRACE", 1.5)
    aig = _workload(32)
    regions = partition_network(aig, max_gates=MAX_GATES)
    eligible = [region.index for region in regions if region.outputs]
    assert len(eligible) >= 4
    faulted = eligible[0]
    executor = ThreadExecutor(2)
    try:
        optimized, report = partition_optimize(
            aig,
            "rw",
            jobs=2,
            max_gates=MAX_GATES,
            executor=executor,
            region_timeout=0.4,
            fault_plan={faulted: "timeout"},
            fault_sleep=10.0,
        )
    finally:
        executor.close()
    by_index = {region.index: region for region in report.regions}
    assert by_index[faulted].status == "worker_failed"
    for index, region_report in by_index.items():
        if index != faulted:
            assert region_report.status in ("merged", "unchanged"), (
                f"region {index}: {region_report.status} ({region_report.failure})"
            )
    assert report.regions_rolled_back == 1
    outcome = check_combinational_equivalence(aig, optimized)
    assert outcome.equivalent


def test_hung_region_is_timed_out_one_deadline_after_the_last_healthy_region(monkeypatch):
    """A hang holds the flow for one region deadline plus grace, not for every wave.

    Two threads serve 18 regions (nine waves); the first region hangs.
    The executor must give up on it one ``region_timeout + grace`` after
    the last healthy region completes -- a shared deadline of
    ``region_timeout * waves + grace`` would hold the flow for about
    5 s instead.
    """
    import time

    from repro.partition import pool as pool_module

    region_timeout = grace = 0.5
    monkeypatch.setattr(parallel_module, "_TIMEOUT_GRACE", grace)
    healthy_done: list[float] = []
    run_job = pool_module.run_partition_job

    def timed_job(payload):
        outcome = run_job(payload)
        if "fault" not in payload:
            healthy_done.append(time.monotonic())
        return outcome

    monkeypatch.setattr(pool_module, "run_partition_job", timed_job)
    aig = _workload(32)
    regions = partition_network(aig, max_gates=MAX_GATES)
    eligible = [region.index for region in regions if region.outputs]
    assert len(eligible) >= 12
    faulted = eligible[0]
    executor = ThreadExecutor(2)
    try:
        optimized, report = partition_optimize(
            aig,
            "rw",
            jobs=2,
            max_gates=MAX_GATES,
            executor=executor,
            region_timeout=region_timeout,
            fault_plan={faulted: "timeout"},
            fault_sleep=10.0,
        )
        returned = time.monotonic()
    finally:
        executor.close()
    by_index = {region.index: region for region in report.regions}
    assert by_index[faulted].status == "worker_failed"
    for index in eligible:
        if index != faulted:
            assert by_index[index].status in ("merged", "unchanged"), (
                f"region {index}: {by_index[index].status} ({by_index[index].failure})"
            )
    assert len(healthy_done) == len(eligible) - 1
    held = returned - max(healthy_done)
    assert held < region_timeout + grace + 0.75, f"flow held {held:.2f}s after the last healthy region"
    outcome = check_combinational_equivalence(aig, optimized)
    assert outcome.equivalent


@pytest.mark.parametrize("fault", ["crash-soft", "exception"])
def test_soft_fault_on_a_single_worker_costs_only_its_own_region(fault: str) -> None:
    """Every region queues through one worker; one faults; the rest commit."""
    aig = _workload(31)
    regions = partition_network(aig, max_gates=MAX_GATES)
    eligible = [region.index for region in regions if region.outputs]
    assert len(eligible) >= 4
    faulted = eligible[1]
    executor = ThreadExecutor(1)
    try:
        optimized, report = partition_optimize(
            aig,
            "rw",
            jobs=1,
            max_gates=MAX_GATES,
            executor=executor,
            fault_plan={faulted: fault},
        )
    finally:
        executor.close()
    by_index = {region.index: region for region in report.regions}
    assert by_index[faulted].status == "worker_failed"
    for index in eligible:
        if index != faulted:
            assert by_index[index].status in ("merged", "unchanged"), (
                f"region {index}: {by_index[index].status} ({by_index[index].failure})"
            )
    assert report.regions_rolled_back == 1
    outcome = check_combinational_equivalence(aig, optimized)
    assert outcome.equivalent


def test_executor_width_does_not_change_the_result() -> None:
    """Pool width is a transport decision: every width commits the same network."""
    from repro.networks.structural_hash import structural_hash

    aig = _workload(33)
    inline, _report = partition_optimize(aig.clone(), "rw; rf", jobs=1, max_gates=MAX_GATES)
    hashes = {structural_hash(inline)}
    for width in (1, 2, 4):
        executor = ThreadExecutor(width)
        try:
            optimized, report = partition_optimize(
                aig.clone(),
                "rw; rf",
                jobs=width,
                max_gates=MAX_GATES,
                executor=executor,
            )
        finally:
            executor.close()
        assert report.regions_rolled_back == 0
        hashes.add(structural_hash(optimized))
    assert len(hashes) == 1


@pytest.mark.skipif(os.name != "posix", reason="hard worker death uses os._exit")
def test_real_process_crash_restarts_pool_and_degrades_gracefully():
    """A worker dying via ``os._exit`` only loses its own partition."""
    aig = _workload(7)
    regions = partition_network(aig, max_gates=MAX_GATES)
    assert len(regions) >= 3
    try:
        optimized, report = partition_optimize(
            aig,
            "rw",
            jobs=2,
            max_gates=MAX_GATES,
            fault_plan={regions[1].index: "crash"},
        )
    finally:
        shutdown_shared_executors()
    assert report.worker_restarts >= 1
    by_index = {region.index: region for region in report.regions}
    assert by_index[regions[1].index].status == "worker_failed"
    healthy = [r for i, r in by_index.items() if i != regions[1].index]
    assert all(r.status in ("merged", "unchanged") for r in healthy)
    outcome = check_combinational_equivalence(aig, optimized)
    assert outcome.equivalent


def test_hung_process_workers_are_killed_and_queued_regions_rerun(monkeypatch):
    """Both spawned workers hang: their regions time out, the queue behind them still runs."""
    from repro.partition.pool import ProcessExecutor

    monkeypatch.setattr(parallel_module, "_TIMEOUT_GRACE", 5.0)
    aig = _workload(7)
    regions = partition_network(aig, max_gates=MAX_GATES)
    eligible = [region.index for region in regions if region.outputs]
    assert len(eligible) >= 4
    hung = set(eligible[:2])
    executor = ProcessExecutor(2)
    try:
        optimized, report = partition_optimize(
            aig,
            "rw",
            jobs=2,
            max_gates=MAX_GATES,
            executor=executor,
            region_timeout=1.0,
            fault_plan={index: "timeout" for index in hung},
            fault_sleep=60.0,
        )
    finally:
        executor.close()
    assert report.worker_restarts == 1
    by_index = {region.index: region for region in report.regions}
    for index in eligible:
        if index in hung:
            assert by_index[index].status == "worker_failed"
        else:
            assert by_index[index].status in ("merged", "unchanged"), (
                f"region {index}: {by_index[index].status} ({by_index[index].failure})"
            )
    outcome = check_combinational_equivalence(aig, optimized)
    assert outcome.equivalent
