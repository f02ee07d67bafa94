"""Pinned sweep results: a change to the candidate loop must not move them.

Both sweepers and the choice-recording sweep run through one loop
(:mod:`repro.sweeping.engine`).  For each of the 40 fuzz workloads of
``test_sweeper_fuzz`` at 32 patterns, ``engine_identity.json`` pins what
the three configurations produced before they shared that loop: the
structural hash, the gate and merge counts, the SAT calls by outcome and,
in record mode, a digest of every node's choice class and phase.
Regenerate the file only for a change that is meant to alter sweeps::

    PYTHONPATH=src python tests/sweeping/test_engine_identity.py > tests/sweeping/engine_identity.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Any

import pytest

from repro.circuits.random_logic import random_aig
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import Aig
from repro.networks.structural_hash import structural_hash
from repro.sweeping import FraigSweeper, StpSweeper

PINNED = Path(__file__).with_name("engine_identity.json")
SEEDS = list(range(40))
CONFIGS = {
    "fraig": lambda aig: FraigSweeper(aig, num_patterns=32),
    "stp": lambda aig: StpSweeper(aig, num_patterns=32),
    "choices": lambda aig: FraigSweeper(aig, num_patterns=32, record_choices=True),
}


def _workload(seed: int) -> Aig:
    # The same workload as ``test_sweeper_fuzz._workload``.
    base = random_aig(num_pis=6, num_gates=60, num_pos=5, seed=seed)
    workload, _report = inject_redundancy(
        base, duplication_fraction=0.25, constant_cones=1, near_miss_count=2, cut_size=3, seed=seed + 1
    )
    return workload


def _row(config: str, seed: int) -> dict[str, Any]:
    return _sweep_row(config, _workload(seed))


def _sweep_row(config: str, aig: Aig) -> dict[str, Any]:
    swept, stats = CONFIGS[config](aig).run()
    row: dict[str, Any] = {
        "structure": structural_hash(swept),
        "gates": stats.gates_after,
        "merges": stats.merges,
        "sat": [stats.satisfiable_sat_calls, stats.unsatisfiable_sat_calls, stats.undetermined_sat_calls],
    }
    if config == "choices":
        classes = [[swept.choice_repr(node), swept.choice_phase(node)] for node in range(swept.num_nodes)]
        row["choices"] = hashlib.sha256(json.dumps(classes).encode()).hexdigest()
    return row


def _pinned() -> dict[str, dict[str, Any]]:
    with PINNED.open() as handle:
        pinned: dict[str, dict[str, Any]] = json.load(handle)
    return pinned


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_matches_pinned_result(seed: int, config: str) -> None:
    assert _row(config, seed) == _pinned()[f"{config}/{seed}"]


def _grown_after_a_cached_order(seed: int) -> Aig:
    """A workload whose cached topological order was extended by new gates.

    ``add_and`` appends each new gate to a cached order, which then
    differs from the order a fresh computation gives.
    """
    aig = _workload(seed)
    aig.topological_order()
    rng = random.Random(seed)
    for _ in range(10):
        nodes = range(1, aig.num_nodes)
        literal = aig.add_and(
            Aig.literal(rng.choice(nodes), rng.random() < 0.5), Aig.literal(rng.choice(nodes), rng.random() < 0.5)
        )
        aig.add_po(literal)
    return aig


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_ignores_the_inputs_cached_order(seed: int, config: str) -> None:
    # A sweep depends on the network alone: a cached order on the input,
    # however it was built, must not reach the sweep's working copy.
    grown = _grown_after_a_cached_order(seed)
    cleared = grown.clone()
    cleared._topo_invalidate()
    assert cleared.node_entries == grown.node_entries
    assert _sweep_row(config, grown) == _sweep_row(config, cleared)


def test_record_mode_records_choices_and_never_substitutes() -> None:
    # The pins alone would not notice a record mode that records nothing.
    swept, stats = CONFIGS["choices"](_workload(0)).run()
    assert stats.merges == 0
    assert stats.extra["choices_recorded"] > 0
    assert swept.num_choice_classes > 0


if __name__ == "__main__":
    rows = [f'"{config}/{seed}": {json.dumps(_row(config, seed))}' for config in CONFIGS for seed in SEEDS]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")
