"""Tests for the circuit-level SAT front-end used by the sweepers."""

import pytest

from repro.circuits.random_logic import random_aig
from repro.networks import Aig
from repro.sat import CircuitSolver, EquivalenceStatus
from repro.simulation import PatternSet, simulate_aig


class TestEquivalenceQueries:
    def test_structurally_equal_literal(self, small_aig):
        po = small_aig.pos[0]
        outcome = CircuitSolver(small_aig).prove_equivalence(po, po)
        assert outcome.status is EquivalenceStatus.EQUIVALENT
        assert outcome.is_equivalent

    def test_complementary_literals(self, small_aig):
        po = small_aig.pos[0]
        outcome = CircuitSolver(small_aig).prove_equivalence(po, Aig.negate(po))
        assert outcome.status is EquivalenceStatus.NOT_EQUIVALENT

    def test_functionally_equivalent_cones(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(aig.add_and(a, b), c)
        y = aig.add_and(a, aig.add_and(b, c))
        solver = CircuitSolver(aig)
        assert solver.prove_equivalence(x, y).is_equivalent
        assert solver.num_unsatisfiable == 1

    def test_counterexample_distinguishes(self, small_aig):
        solver = CircuitSolver(small_aig)
        outcome = solver.prove_equivalence(small_aig.pos[0], small_aig.pos[1])
        assert outcome.status is EquivalenceStatus.NOT_EQUIVALENT
        assert outcome.counterexample is not None
        values = small_aig.evaluate(outcome.counterexample)
        literal_a, literal_b = small_aig.pos[0], small_aig.pos[1]
        bit_a = values[0]
        bit_b = values[1]
        assert bit_a != bit_b

    def test_xor_vs_or_difference(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        x = aig.add_xor(a, b)
        y = aig.add_or(a, b)
        solver = CircuitSolver(aig)
        outcome = solver.prove_equivalence(x, y)
        assert outcome.status is EquivalenceStatus.NOT_EQUIVALENT
        # The only distinguishing pattern is a = b = 1.
        assert outcome.counterexample == (1, 1)

    def test_counters(self, small_aig):
        solver = CircuitSolver(small_aig)
        solver.prove_equivalence(small_aig.pos[0], small_aig.pos[1])
        solver.prove_equivalence(small_aig.pos[0], small_aig.pos[0])
        assert solver.num_queries == 2
        assert solver.total_sat_calls == 2
        assert solver.num_satisfiable == 1
        assert solver.num_unsatisfiable == 1


class TestConstantQueries:
    def test_hidden_constant_false(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        hidden = aig.add_and(x, Aig.negate(a))
        solver = CircuitSolver(aig)
        assert solver.prove_constant(hidden, False).is_equivalent
        assert solver.prove_constant(hidden, True).status is EquivalenceStatus.NOT_EQUIVALENT

    def test_non_constant_gives_counterexample(self, small_aig):
        solver = CircuitSolver(small_aig)
        outcome = solver.prove_constant(small_aig.pos[0], False)
        assert outcome.status is EquivalenceStatus.NOT_EQUIVALENT
        assert outcome.counterexample is not None
        assert small_aig.evaluate(outcome.counterexample)[0] is True

    def test_constant_literal_queries(self, small_aig):
        solver = CircuitSolver(small_aig)
        assert solver.prove_constant(0, False).is_equivalent
        assert solver.prove_constant(1, True).is_equivalent


def _and_gates_in_cones(aig, nodes):
    return {node for node in aig.tfi(list(nodes)) if aig.is_and(node)}


def _count_gate_clauses(solver):
    """Count the gate clauses ``_encode_cone`` hands to the CDCL solver."""
    counter = {"clauses": 0}
    add_clause = solver.solver.add_clause_trusted

    def counting(clause):
        counter["clauses"] += 1
        return add_clause(clause)

    solver.solver.add_clause_trusted = counting
    return counter


class TestLazyConeEncoding:
    """A query encodes only the queried cones, and no gate twice."""

    def test_constant_query_encodes_only_its_cone(self, small_aig):
        po_node = Aig.node_of(small_aig.pos[0])
        solver = CircuitSolver(small_aig)
        solver.prove_constant(small_aig.pos[0], False)
        assert solver._encoded == _and_gates_in_cones(small_aig, [po_node])
        assert solver._encoded < set(small_aig.gates())

    def test_equivalence_query_encodes_both_cones(self, small_aig):
        a, b = small_aig.pos
        solver = CircuitSolver(small_aig)
        solver.prove_equivalence(a, b)
        assert solver._encoded == _and_gates_in_cones(small_aig, [Aig.node_of(a), Aig.node_of(b)])

    def test_overlapping_query_adds_only_new_gates(self, small_aig):
        first_node = Aig.node_of(small_aig.pos[0])
        second_node = Aig.node_of(small_aig.pos[1])
        solver = CircuitSolver(small_aig)
        counter = _count_gate_clauses(solver)
        solver.prove_constant(small_aig.pos[0], True)
        first_cone = _and_gates_in_cones(small_aig, [first_node])
        assert counter["clauses"] == 3 * len(first_cone)
        counter["clauses"] = 0
        solver.prove_constant(small_aig.pos[1], False)
        both_cones = _and_gates_in_cones(small_aig, [first_node, second_node])
        new_gates = both_cones - first_cone
        # The second cone overlaps the first, so only its own gates are new.
        assert first_cone & _and_gates_in_cones(small_aig, [second_node])
        assert new_gates
        assert solver._encoded == both_cones
        assert counter["clauses"] == 3 * len(new_gates)

    @pytest.mark.parametrize("seed", range(3))
    def test_encoded_set_is_union_of_queried_cones(self, seed):
        aig = random_aig(num_pis=6, num_gates=60, num_pos=4, seed=seed)
        solver = CircuitSolver(aig)
        counter = _count_gate_clauses(solver)
        gates = list(aig.gates())
        queried: set[int] = set()
        for index in range(0, len(gates) - 1, 7):
            before = solver._solver_queries
            if index % 2:
                solver.prove_constant(Aig.literal(gates[index]), False)
                roots = [gates[index]]
            else:
                solver.prove_equivalence(Aig.literal(gates[index]), Aig.literal(gates[index + 1]))
                roots = [gates[index], gates[index + 1]]
            if solver._solver_queries > before:
                queried.update(roots)
            assert solver._encoded == _and_gates_in_cones(aig, queried)
            # Three clauses per gate in total: no gate was encoded twice.
            assert counter["clauses"] == 3 * len(solver._encoded)
        assert queried


class TestConflictLimit:
    def test_undetermined_outcome(self):
        # A multiplier-style equivalence is hard enough to exceed a
        # one-conflict budget.
        from repro.circuits.arithmetic import array_multiplier

        aig = array_multiplier(width=4)
        solver = CircuitSolver(aig, conflict_limit=1)
        outcome = solver.prove_equivalence(aig.pos[3], aig.pos[6], conflict_limit=1)
        assert outcome.status in (EquivalenceStatus.NOT_EQUIVALENT, EquivalenceStatus.UNDETERMINED)
        if outcome.status is EquivalenceStatus.UNDETERMINED:
            assert solver.num_undetermined == 1


class TestAgainstSimulation:
    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence_answers_match_exhaustive_simulation(self, seed):
        aig = random_aig(num_pis=5, num_gates=40, num_pos=4, seed=seed)
        solver = CircuitSolver(aig)
        exhaustive = simulate_aig(aig, PatternSet.exhaustive(5))
        gates = list(aig.gates())[:10]
        for i in range(0, len(gates) - 1, 2):
            node_a, node_b = gates[i], gates[i + 1]
            outcome = solver.prove_equivalence(Aig.literal(node_a), Aig.literal(node_b))
            truly_equal = exhaustive.signature(node_a) == exhaustive.signature(node_b)
            assert outcome.is_equivalent == truly_equal
