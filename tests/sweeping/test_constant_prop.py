"""Tests for constant-candidate propagation."""

from repro.networks import Aig
from repro.sat import CircuitSolver
from repro.simulation import PatternSet, compute_local_truth_tables
from repro.sweeping import propagate_constant_candidates


def _aig_with_hidden_constants() -> tuple[Aig, int, int]:
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    x = aig.add_and(a, b)
    # (a & b) & (!a & c) is constant false but structurally hidden.
    hidden = aig.add_and(x, aig.add_and(Aig.negate(a), c))
    useful = aig.add_or(x, c)
    aig.add_po(hidden)
    aig.add_po(useful)
    return aig, Aig.node_of(hidden), Aig.node_of(useful)


class TestConstantPropagation:
    def test_hidden_constant_is_proved_and_substituted(self):
        aig, hidden_node, _useful = _aig_with_hidden_constants()
        patterns = PatternSet.random(3, 32, seed=1)
        solver = CircuitSolver(aig)
        report = propagate_constant_candidates(aig, patterns, solver)
        assert report.proved.get(hidden_node) is False
        assert report.substitutions >= 1
        # After substitution the first output is structurally constant false.
        for assignment in range(8):
            values = [bool(assignment & (1 << i)) for i in range(3)]
            assert aig.evaluate(values)[0] is False

    def test_non_constants_are_not_substituted(self):
        aig, _hidden, useful_node = _aig_with_hidden_constants()
        patterns = PatternSet.exhaustive(3)
        solver = CircuitSolver(aig)
        report = propagate_constant_candidates(aig, patterns, solver)
        assert useful_node not in report.proved

    def test_known_constants_skip_sat(self):
        aig, hidden_node, _useful = _aig_with_hidden_constants()
        patterns = PatternSet.random(3, 16, seed=2)
        solver = CircuitSolver(aig)
        report = propagate_constant_candidates(
            aig, patterns, solver, known_constants={hidden_node: False}
        )
        assert report.proved[hidden_node] is False
        # The known constant did not cost a SAT query of its own.
        assert all(node != hidden_node for node in report.disproved)

    def test_local_tables_avoid_sat_calls(self):
        aig, hidden_node, _useful = _aig_with_hidden_constants()
        patterns = PatternSet.random(3, 16, seed=3)
        solver = CircuitSolver(aig)
        tables = compute_local_truth_tables(aig)
        report = propagate_constant_candidates(aig, patterns, solver, local_table=tables.get)
        assert report.proved.get(hidden_node) is False
        assert report.exhaustive_proofs >= 1
        assert report.sat_calls == 0
        assert solver.num_queries == 0

    def test_counterexamples_disprove_lookalikes(self):
        # A node that is zero on most inputs but not constant: with few
        # patterns it looks constant and must be disproved.
        aig = Aig()
        pis = [aig.add_pi() for _ in range(6)]
        rare = aig.add_and_multi(pis)
        aig.add_po(rare)
        patterns = PatternSet.random(6, 8, seed=4)
        solver = CircuitSolver(aig)
        report = propagate_constant_candidates(aig, patterns, solver)
        rare_node = Aig.node_of(rare)
        assert rare_node in report.disproved or rare_node in report.proved
        if rare_node in report.disproved:
            assert report.counterexamples

    def test_substitute_flag_disables_rewrite(self):
        aig, hidden_node, _useful = _aig_with_hidden_constants()
        before = aig.clone()
        patterns = PatternSet.random(3, 16, seed=5)
        solver = CircuitSolver(aig)
        propagate_constant_candidates(aig, patterns, solver, substitute=False)
        for assignment in range(8):
            values = [bool(assignment & (1 << i)) for i in range(3)]
            assert aig.evaluate(values) == before.evaluate(values)
