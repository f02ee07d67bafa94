"""Tests for the circuit-level SAT front-end used by the sweepers."""

import random

import pytest

from repro.circuits.random_logic import random_aig
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import Aig
from repro.sat import CircuitSolver, EquivalenceStatus
from repro.simulation import PatternSet, compute_local_truth_tables, compute_pi_supports, simulate_aig


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


def test_repeated_queries_on_sin_encode_each_gate_once():
    """Forty equivalence queries on one solver over the ``sin`` profile."""
    from repro.circuits import epfl_benchmark

    aig = epfl_benchmark("sin")
    gates = list(aig.gates())
    pairs = [(gates[i], gates[i + 1]) for i in range(0, 120, 3)]
    solver = CircuitSolver(aig, conflict_limit=500)
    counter = _count_gate_clauses(solver)
    for a, b in pairs:
        outcome = solver.prove_equivalence(Aig.literal(a), Aig.literal(b), 500)
        assert outcome.status is not EquivalenceStatus.UNDETERMINED
    assert solver.num_queries == len(pairs)
    assert solver._encoded <= _and_gates_in_cones(aig, [node for pair in pairs for node in pair])
    assert counter["clauses"] == 3 * len(solver._encoded)


def test_associative_and_trees_are_equivalent():
    """One UNSAT proof: a 12-input balanced AND tree against the same AND as a chain."""
    aig = Aig()
    pis = [aig.add_pi() for _ in range(12)]
    left = aig.add_and_multi(pis)
    right = pis[0]
    for pi in pis[1:]:
        right = aig.add_and(right, pi)
    aig.add_po(left)
    aig.add_po(right)
    assert left != right
    outcome = CircuitSolver(aig).prove_equivalence(left, right)
    assert outcome.is_equivalent
    assert not CircuitSolver(aig).prove_equivalence(left, Aig.negate(right)).is_equivalent


@pytest.mark.parametrize("name", ["cavlc", "dec", "i2c"])
@pytest.mark.parametrize("mode", ["fresh-encode", "persistent-window"])
def test_window_policies_on_epfl(mode, name):
    """60 sampled gate pairs per profile, each answer checked by simulation."""
    import random

    from repro.circuits import epfl_benchmark

    aig = epfl_benchmark(name)
    rng = random.Random(3)
    gates = list(aig.gates())
    pairs = [tuple(rng.sample(gates, 2)) for _ in range(60)]
    solver = CircuitSolver(aig, conflict_limit=1000, window_size=1 if mode == "fresh-encode" else None)
    result = simulate_aig(aig, PatternSet.random(aig.num_pis, 256, seed=1))
    for a, b in pairs:
        outcome = solver.prove_equivalence(Aig.literal(a), Aig.literal(b))
        assert outcome.status is not EquivalenceStatus.UNDETERMINED
        if outcome.is_equivalent:
            assert result.signature(a) == result.signature(b), (a, b)
        else:
            witness = simulate_aig(aig, PatternSet.from_patterns([outcome.counterexample]))
            assert witness.signature(a) != witness.signature(b), (a, b)
    if mode == "persistent-window":
        assert solver.window_reuse_rate > 0.9
    else:
        assert solver.window_reuses == 0


# ---------------------------------------------------------------------------
# Function-class lemmas: key-equal nodes reuse an encoded cone
# ---------------------------------------------------------------------------


def _redundant_aig(seed):
    base = random_aig(num_pis=7, num_gates=80, num_pos=5, seed=seed)
    aig, _report = inject_redundancy(base, duplication_fraction=0.3, constant_cones=1, cut_size=3, seed=seed + 1)
    return aig


def _function_lookup(aig):
    """The lookup the STP sweeper hands the solver: each node's exhaustive table."""
    supports = compute_pi_supports(aig, 16)
    tables = compute_local_truth_tables(aig, 16, supports)

    def lookup(node):
        table = tables.get(node)
        return None if table is None else (supports[node], table.bits)

    return lookup


def _lemma_queries(aig, seed):
    """Equivalent pairs (by exhaustive signature, either polarity) mixed with random pairs and constants."""
    rng = random.Random(seed)
    exhaustive = simulate_aig(aig, PatternSet.exhaustive(aig.num_pis))
    gates = list(aig.gates())
    full = (1 << (1 << aig.num_pis)) - 1
    groups: dict[int, list[int]] = {}
    for gate in gates:
        signature = exhaustive.signature(gate)
        groups.setdefault(min(signature, signature ^ full), []).append(gate)
    pairs = [pair for members in groups.values() for pair in zip(members, members[1:])]
    pairs += [tuple(rng.sample(gates, 2)) for _ in range(30)]
    rng.shuffle(pairs)
    queries = []
    for index, (a, b) in enumerate(pairs):
        inverted = exhaustive.signature(a) != exhaustive.signature(b)
        if index % 3 == 2:
            queries.append(("constant", Aig.literal(a), exhaustive.signature(a) == full))
        else:
            queries.append(("equivalence", Aig.literal(a), Aig.literal(b, inverted)))
    return queries


def _ask(solver, query):
    kind, literal, other = query
    if kind == "constant":
        return solver.prove_constant(literal, other)
    return solver.prove_equivalence(literal, other)


def _literal_value(aig, pattern, literal):
    value = simulate_aig(aig, PatternSet.from_patterns([pattern])).signature(Aig.node_of(literal)) & 1
    return value ^ Aig.is_complemented(literal)


class TestFunctionClassLemmas:
    """A solver given the exhaustive-table lookup answers exactly as one without it."""

    @pytest.mark.parametrize("seed", range(12))
    def test_same_status_and_genuine_counterexamples(self, seed):
        aig = _redundant_aig(seed)
        plain = CircuitSolver(aig)
        keyed = CircuitSolver(aig, function_class=_function_lookup(aig))
        for query in _lemma_queries(aig, seed):
            expected = _ask(plain, query)
            outcome = _ask(keyed, query)
            assert outcome.status is expected.status, query
            assert outcome.status is not EquivalenceStatus.UNDETERMINED
            if outcome.status is EquivalenceStatus.NOT_EQUIVALENT:
                kind, literal, other = query
                value = _literal_value(aig, outcome.counterexample, literal)
                if kind == "constant":
                    assert value != other, query
                else:
                    assert value != _literal_value(aig, outcome.counterexample, other), query
        assert plain.num_key_lemmas == 0
        assert keyed.num_key_lemmas > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_skipped_cones_hold_no_gate_clauses(self, seed):
        aig = _redundant_aig(seed)
        solver = CircuitSolver(aig, function_class=_function_lookup(aig))
        clauses = []
        add_clause = solver.solver.add_clause_trusted

        def recording(clause):
            clauses.append(tuple(clause))
            return add_clause(clause)

        solver.solver.add_clause_trusted = recording
        roots: set[int] = set()
        for query in _lemma_queries(aig, seed):
            before = solver._solver_queries
            _ask(solver, query)
            if solver._solver_queries > before:
                roots.add(Aig.node_of(query[1]))
                if query[0] == "equivalence":
                    roots.add(Aig.node_of(query[2]))
        node_of_variable = {variable: node for node, variable in solver._variables.items()}
        # Each gate's ternary clause ``(v, -l0, -l1)`` names it; no gate has two.
        ternary = [node_of_variable[clause[0]] for clause in clauses if len(clause) == 3]
        gate_encoded = set(ternary)
        assert len(ternary) == len(gate_encoded)
        lemma_nodes = solver._encoded - gate_encoded
        assert len(lemma_nodes) == solver.num_key_lemmas > 0
        # Gate clauses sit only on nodes reached from a query root without
        # passing through a lemma node: a skipped cone holds none.
        reached: set[int] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in reached or node not in gate_encoded:
                continue
            reached.add(node)
            stack.extend(aig.fanin_nodes(node))
        assert reached == gate_encoded
        frontier = roots | {fanin for node in gate_encoded for fanin in aig.fanin_nodes(node)}
        assert lemma_nodes <= frontier
        cones = _and_gates_in_cones(aig, roots)
        assert gate_encoded < cones
