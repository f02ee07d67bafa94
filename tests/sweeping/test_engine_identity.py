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
    swept, stats = CONFIGS[config](_workload(seed)).run()
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


def test_record_mode_records_choices_and_never_substitutes() -> None:
    # The pins alone would not notice a record mode that records nothing.
    swept, stats = CONFIGS["choices"](_workload(0)).run()
    assert stats.merges == 0
    assert stats.extra["choices_recorded"] > 0
    assert swept.num_choice_classes > 0


if __name__ == "__main__":
    rows = [f'"{config}/{seed}": {json.dumps(_row(config, seed))}' for config in CONFIGS for seed in SEEDS]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")
