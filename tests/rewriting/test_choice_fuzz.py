"""Randomised invariants of choice-augmented networks (the satellite fuzz).

For each of 40 seeds a redundant random workload runs one of the
rotating ``choice``-carrying scripts; the result must stay
simulation-equivalent to the input (exhaustively -- the workloads are
small), every recorded class member must simulate to its
representative up to the recorded phase, ``compute_choices`` must leave
the PO-reachable subject logic structurally identical to the input's,
and mapping from a choice network must produce a k-LUT network that is
exhaustively equivalent to the source AIG and never worse than mapping
without the choices.  On small EPFL profiles the choices must make the
mapping strictly smaller.
"""

import pytest

from repro.circuits import epfl_benchmark
from repro.circuits.random_logic import random_aig
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import Aig, cleanup_dangling, structural_hash, technology_map
from repro.rewriting import compute_choices, optimize
from repro.simulation import (
    PatternSet,
    aig_po_signatures,
    klut_po_signatures,
    simulate_aig,
    simulate_klut_per_pattern,
)

SEEDS = list(range(40))

#: Rotating choice-carrying scripts: choices computed before, between
#: and after the structural/sweeping passes.
SCRIPTS = ["choice; rw; fraig", "rw; choice; fraig", "choice; fraig; rw"]


def _workload(seed: int) -> Aig:
    base = random_aig(num_pis=6, num_gates=40, num_pos=4, seed=seed)
    workload, _report = inject_redundancy(
        base,
        duplication_fraction=0.2,
        constant_cones=1,
        near_miss_count=1,
        cut_size=3,
        seed=seed + 1,
    )
    return workload


def _assert_simulates_like(aig: Aig, network, patterns: PatternSet) -> None:
    """Word-parallel check of a mapping against its source AIG."""
    aig_signatures = aig_po_signatures(aig, simulate_aig(aig, patterns))
    klut_signatures = klut_po_signatures(network, simulate_klut_per_pattern(network, patterns))
    assert aig_signatures == klut_signatures


def _exhaustive_node_values(aig: Aig, assignment: int) -> dict[int, bool]:
    values = {0: False}
    for position, pi in enumerate(aig.pis):
        values[pi] = bool(assignment & (1 << position))
    for node in aig.topological_order():
        fanin0, fanin1 = aig.fanins(node)
        value0 = values[fanin0 >> 1] ^ bool(fanin0 & 1)
        value1 = values[fanin1 >> 1] ^ bool(fanin1 & 1)
        values[node] = value0 and value1
    return values


def _exhaustively_equal(a: Aig, b: Aig) -> bool:
    for assignment in range(1 << a.num_pis):
        values = [bool(assignment & (1 << i)) for i in range(a.num_pis)]
        if a.evaluate(values) != b.evaluate(values):
            return False
    return True


@pytest.mark.parametrize("seed", SEEDS)
def test_choice_scripts_preserve_equivalence(seed):
    workload = _workload(seed)
    script = SCRIPTS[seed % len(SCRIPTS)]
    result, stats = optimize(workload, script=script, verify=True)
    assert stats.verified, f"{script}: flow verification failed"
    assert _exhaustively_equal(workload, result), f"{script}: exhaustive mismatch"


@pytest.mark.parametrize("seed", SEEDS)
def test_choice_members_simulate_to_their_representative(seed):
    workload = _workload(seed)
    augmented, report = compute_choices(workload)
    assert augmented.num_choice_classes == report.choice_classes
    members = [node for node in augmented.topological_order() if augmented.choice_repr(node) != node]
    if not members:
        pytest.skip("no choices recorded on this seed")
    for assignment in range(1 << augmented.num_pis):
        values = _exhaustive_node_values(augmented, assignment)
        for node in members:
            representative = augmented.choice_repr(node)
            assert (values[node] ^ augmented.choice_phase(node)) == values[representative], (
                f"member {node} diverges from representative {representative} "
                f"on assignment {assignment:b}"
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_choices_leave_the_subject_logic_structurally_identical(seed):
    workload = _workload(seed)
    augmented, _report = compute_choices(workload)
    subject = augmented.clone()
    subject.clear_choices()
    cleaned, _literal_map = cleanup_dangling(subject)
    reference, _literal_map = cleanup_dangling(workload)
    assert structural_hash(cleaned) == structural_hash(reference)


@pytest.mark.parametrize("seed", SEEDS[::4])
def test_choice_mapping_is_verified_and_never_worse(seed):
    workload = _workload(seed)
    augmented, _report = compute_choices(workload)
    plain = technology_map(workload, k=4)
    chosen = technology_map(augmented, k=4)
    assert chosen.stats.num_luts <= plain.stats.num_luts
    assert chosen.stats.depth <= plain.stats.depth
    assert not chosen.network.has_choices  # the mapped network is choice-free
    _assert_simulates_like(workload, chosen.network, PatternSet.exhaustive(workload.num_pis))


@pytest.mark.parametrize("name", ["ctrl", "adder", "router", "cavlc"])
def test_choice_mapping_strictly_shrinks_epfl_mappings(name):
    aig = epfl_benchmark(name)
    augmented, report = compute_choices(aig)
    assert report.choice_alternatives >= report.choice_classes > 0
    plain = technology_map(aig, k=6)
    chosen = technology_map(augmented, k=6)
    assert chosen.stats.num_luts < plain.stats.num_luts
    assert chosen.stats.depth <= plain.stats.depth
    _assert_simulates_like(aig, chosen.network, PatternSet.random(aig.num_pis, 256, 7))


@pytest.mark.parametrize("name", ["adder", "max", "cavlc"])
def test_compute_choices_on_epfl(name):
    aig = epfl_benchmark(name)
    augmented, report = compute_choices(aig)
    assert augmented.num_choice_classes == report.choice_classes > 0
    assert report.choice_alternatives >= report.choice_classes
    # additive: the subject logic is untouched
    assert augmented.num_pis == aig.num_pis
    assert augmented.pos == aig.pos
    result = simulate_aig(augmented, PatternSet.random(aig.num_pis, 256, 5))
    members = [node for node in augmented.gates() if augmented.choice_repr(node) != node]
    assert len(members) >= report.choice_alternatives
    for node in members:
        phase = result.mask if augmented.choice_phase(node) else 0
        assert result.signature(node) ^ phase == result.signature(augmented.choice_repr(node)), node


@pytest.mark.parametrize("name", ["adder", "max", "cavlc"])
def test_choice_aware_mapping_on_epfl(name):
    aig = epfl_benchmark(name)
    augmented, _report = compute_choices(aig)
    result = technology_map(augmented, k=6)
    assert result.stats.choice_classes > 0
    assert result.stats.used_choices > 0
    assert not result.network.has_choices
    _assert_simulates_like(aig, result.network, PatternSet.random(aig.num_pis, 256, 7))
