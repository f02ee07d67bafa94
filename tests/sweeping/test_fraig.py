"""Tests for the baseline FRAIG sweeper."""

import pytest

from repro.circuits.arithmetic import ripple_carry_adder
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import Aig
from repro.sat import CircuitSolver, EquivalenceStatus
from repro.sweeping import FraigSweeper, StpSweeper, check_combinational_equivalence, fraig_sweep


def _redundant_adder(width: int = 6, seed: int = 3) -> tuple[Aig, Aig]:
    base = ripple_carry_adder(width=width, name=f"adder{width}")
    workload, _report = inject_redundancy(
        base, duplication_fraction=0.3, constant_cones=2, seed=seed
    )
    return base, workload


class TestFraigSweeper:
    def test_recovers_injected_redundancy(self):
        base, workload = _redundant_adder()
        swept, stats = fraig_sweep(workload, num_patterns=64)
        assert swept.num_ands <= base.num_ands * 1.1
        assert stats.gates_before == workload.num_ands
        assert stats.gates_after == swept.num_ands
        assert stats.merges > 0

    def test_result_is_equivalent(self):
        _base, workload = _redundant_adder(seed=5)
        swept, _stats = fraig_sweep(workload, num_patterns=64)
        assert check_combinational_equivalence(workload, swept)

    def test_preserves_interface(self):
        _base, workload = _redundant_adder(seed=7)
        swept, _stats = fraig_sweep(workload, num_patterns=32)
        assert swept.num_pis == workload.num_pis
        assert swept.num_pos == workload.num_pos
        assert swept.pi_names == workload.pi_names

    def test_statistics_consistency(self):
        _base, workload = _redundant_adder(seed=9)
        _swept, stats = fraig_sweep(workload, num_patterns=32)
        assert stats.total_sat_calls == (
            stats.satisfiable_sat_calls + stats.unsatisfiable_sat_calls + stats.undetermined_sat_calls
        )
        assert stats.total_time >= stats.simulation_time
        assert stats.counterexamples_simulated == stats.satisfiable_sat_calls

    def test_does_not_modify_input_network(self):
        _base, workload = _redundant_adder(seed=11)
        gates_before = workload.num_ands
        reference = workload.clone()
        fraig_sweep(workload, num_patterns=32)
        assert workload.num_ands == gates_before
        for assignment in range(0, 1 << workload.num_pis, 977):
            values = [bool(assignment & (1 << i)) for i in range(workload.num_pis)]
            assert workload.evaluate(values) == reference.evaluate(values)

    def test_idempotent_on_clean_network(self, small_aig):
        swept_once, stats = fraig_sweep(small_aig, num_patterns=64)
        swept_twice, _ = fraig_sweep(swept_once, num_patterns=64)
        assert swept_twice.num_ands == swept_once.num_ands

    @pytest.mark.parametrize(
        "make",
        [
            lambda aig: FraigSweeper(aig, num_patterns=16, conflict_limit=1),
            lambda aig: StpSweeper(aig, num_patterns=16, window_leaves=0, conflict_limit=1),
        ],
        ids=["fraig", "stp"],
    )
    def test_undetermined_query_gives_up_on_the_candidate(self, make, monkeypatch):
        # One conflict leaves most queries UNDETERMINED.  Each such
        # candidate leaves its class: it is never substituted, and the
        # sweep still ends equivalent.
        _base, workload = _redundant_adder(seed=13)
        prove, substitute = CircuitSolver.prove_equivalence, Aig.substitute
        undetermined: set[int] = set()
        substituted: set[int] = set()

        def recording_prove(solver, literal_a, literal_b, conflict_limit=None):
            outcome = prove(solver, literal_a, literal_b, conflict_limit)
            if outcome.status is EquivalenceStatus.UNDETERMINED:
                undetermined.add(Aig.node_of(literal_a))
            return outcome

        def recording_substitute(aig, old_node, new_literal):
            substituted.add(old_node)
            return substitute(aig, old_node, new_literal)

        monkeypatch.setattr(CircuitSolver, "prove_equivalence", recording_prove)
        monkeypatch.setattr(Aig, "substitute", recording_substitute)
        swept, stats = make(workload).run()
        monkeypatch.undo()
        assert stats.undetermined_sat_calls >= 1
        assert undetermined
        assert not undetermined & substituted
        assert check_combinational_equivalence(workload, swept)

    def test_constant_nodes_are_removed(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        hidden_false = aig.add_and(x, aig.add_and(Aig.negate(a), c))
        aig.add_po(aig.add_or(hidden_false, x))
        swept, stats = fraig_sweep(aig, num_patterns=32)
        assert stats.constant_merges >= 1
        assert swept.num_ands <= 1


def test_fraig_sweep_of_sin():
    """The full sweep of the 10-input ``sin`` profile at 64 patterns shrinks it and stays equivalent."""
    from repro.circuits import epfl_benchmark

    aig = epfl_benchmark("sin")
    swept, stats = FraigSweeper(aig, num_patterns=64).run()
    assert swept.num_ands == stats.gates_after < aig.num_ands
    assert stats.sat_time <= stats.total_time
    from repro.simulation import PatternSet, aig_po_signatures, simulate_aig

    patterns = PatternSet.exhaustive(aig.num_pis)
    assert aig_po_signatures(swept, simulate_aig(swept, patterns)) == aig_po_signatures(
        aig, simulate_aig(aig, patterns)
    )
