"""Partition scale smoke: a synthetic workload through the full big path.

One structured-random network, large enough that the decomposition
produces many regions, pushed through the exact pipeline the
million-gate driver uses: streaming region extraction, binary wire
dispatch (one job per region), a real two-worker spawned pool whose
workers warm their own exact tables, per-region solver windows,
merge-back.  Correctness
is checked by bitwise simulation against the input (the per-region
merges are each verification-gated inside ``partition_optimize``; the
simulation cross-check catches merge-order bugs end to end without
paying a full CEC on thousands of gates).

This file is the CI partition-scale leg; it must stay well inside the
pytest timeout on a 2-CPU runner.
"""

from __future__ import annotations

import pytest

from repro.circuits.random_logic import random_aig
from repro.partition.parallel import partition_optimize
from repro.partition.pool import shutdown_shared_executors
from repro.simulation.bitwise import aig_po_signatures, simulate_aig
from repro.simulation.patterns import PatternSet

NUM_GATES = 2000
MAX_GATES = 250


@pytest.fixture(autouse=True)
def _teardown_pools():
    yield
    shutdown_shared_executors()


def test_scale_smoke_two_worker_pool():
    aig = random_aig(num_pis=32, num_gates=NUM_GATES, num_pos=16, seed=19)
    assert aig.num_ands >= NUM_GATES

    optimized, report = partition_optimize(
        aig,
        "rw; rf",
        jobs=2,
        max_gates=MAX_GATES,
        window_size=4,
    )

    # The big-path machinery actually engaged: several regions shipped
    # as binary payloads, with a real wire-byte volume...
    assert report.regions_built >= NUM_GATES // MAX_GATES
    assert report.wire_bytes > 0
    assert report.worker_restarts == 0
    # ...and every region came back with a terminal status of its own.
    assert [region.index for region in report.regions] == list(range(report.regions_built))
    for region in report.regions:
        assert region.status in ("merged", "unchanged"), (
            f"region {region.index}: {region.status} ({region.failure})"
        )
    assert report.regions_merged >= 1
    assert optimized.num_gates < aig.num_gates

    patterns = PatternSet.random(aig.num_pis, num_patterns=256, seed=3)
    before = aig_po_signatures(aig, simulate_aig(aig, patterns))
    after = aig_po_signatures(optimized, simulate_aig(optimized, patterns))
    assert before == after
