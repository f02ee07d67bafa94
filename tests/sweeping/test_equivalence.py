"""Tests for the equivalence-class manager."""

import random

import pytest

from repro.circuits.random_logic import random_aig
from repro.networks import Aig
from repro.simulation import PatternSet, SimulationResult, simulate_aig, simulate_aig_nodes
from repro.sweeping import EquivalenceClasses
from repro.sweeping.equivalence import refine_with_counterexample
from repro.truthtable import TruthTable


def _result_for(aig: Aig, signatures: dict[int, int], num_patterns: int) -> SimulationResult:
    """A result with the given gate signatures; every other node reads 0."""
    words = [0] * aig.num_nodes
    for node, signature in signatures.items():
        words[node] = signature
    return SimulationResult(num_patterns, words)


def _literal_values(aig: Aig, bits: dict[int, int]) -> bytearray:
    """The literal-indexed array of one pattern with the given node bits."""
    values = bytearray(2 * aig.num_nodes)
    values[1] = 1
    for node, bit in bits.items():
        values[2 * node] = bit
        values[2 * node + 1] = bit ^ 1
    return values


def _two_class_aig() -> Aig:
    """An AIG with two pairs of functionally equivalent nodes."""
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    x1 = aig.add_and(aig.add_and(a, b), c)
    x2 = aig.add_and(a, aig.add_and(b, c))
    y1 = aig.add_or(a, b)
    y2 = aig.add_or(b, a)  # strashing merges this; build a different structure instead
    y2 = Aig.negate(aig.add_and(Aig.negate(a), Aig.negate(b)))
    aig.add_po(x1)
    aig.add_po(x2)
    aig.add_po(y1)
    aig.add_po(y2)
    return aig


class TestConstruction:
    def test_groups_by_canonical_signature(self):
        aig = _two_class_aig()
        result = simulate_aig(aig, PatternSet.exhaustive(3))
        classes = EquivalenceClasses.from_simulation(aig, result)
        assert classes.num_classes >= 1
        for cls in classes.classes():
            signatures = {result.canonical(n)[0] for n in cls.members if n != 0}
            assert len(signatures) == 1

    def test_complemented_nodes_share_a_class(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        # g1 computes a (redundantly), g2 computes !a: complement candidates.
        g1 = aig.add_and(a, aig.add_or(a, b))
        g2 = aig.add_and(Aig.negate(a), aig.add_or(Aig.negate(a), b))
        aig.add_po(g1)
        aig.add_po(g2)
        result = simulate_aig(aig, PatternSet.exhaustive(2))
        classes = EquivalenceClasses.from_simulation(aig, result)
        assert classes.same_class(Aig.node_of(g1), Aig.node_of(g2))
        assert classes.relative_polarity(Aig.node_of(g1), Aig.node_of(g2)) is True

    def test_constant_class(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        hidden_false = aig.add_and(x, Aig.negate(a))
        aig.add_po(hidden_false)
        aig.add_po(x)
        result = simulate_aig(aig, PatternSet.exhaustive(2))
        classes = EquivalenceClasses.from_simulation(aig, result)
        constant_class = classes.constant_class()
        assert constant_class is not None
        assert Aig.node_of(hidden_false) in constant_class.members
        assert constant_class.polarity[Aig.node_of(hidden_false)] is False

    def test_singletons_are_dropped(self, small_aig):
        result = simulate_aig(small_aig, PatternSet.exhaustive(small_aig.num_pis))
        classes = EquivalenceClasses.from_simulation(small_aig, result)
        for cls in classes.classes():
            assert cls.size >= 2

    def test_restricted_node_set(self):
        aig = _two_class_aig()
        result = simulate_aig(aig, PatternSet.exhaustive(3))
        subset = list(aig.gates())[:2]
        classes = EquivalenceClasses.from_simulation(aig, result, nodes=subset)
        for cls in classes.classes():
            assert set(cls.members) <= set(subset) | {0}


class TestQueriesAndMutation:
    def _simple_classes(self):
        aig = _two_class_aig()
        result = simulate_aig(aig, PatternSet.exhaustive(3))
        return aig, result, EquivalenceClasses.from_simulation(aig, result)

    def test_class_lookup(self):
        _aig, _result, classes = self._simple_classes()
        for cls in classes.classes():
            for member in cls.members:
                assert classes.class_of(member) is cls

    def test_remove_member_and_representative_update(self):
        _aig, _result, classes = self._simple_classes()
        cls = classes.classes()[0]
        representative = cls.representative
        classes.remove(representative)
        assert representative not in cls.members
        if cls.members:
            assert cls.representative == cls.members[0]

    def test_candidate_pairs_and_class_nodes(self):
        _aig, _result, classes = self._simple_classes()
        assert classes.candidate_pairs() >= 1
        assert all(node != 0 for node in classes.class_nodes())

    def test_relative_polarity_requires_same_class(self):
        _aig, _result, classes = self._simple_classes()
        members = classes.classes()[0].members
        with pytest.raises(ValueError):
            classes.relative_polarity(members[0], 99999)


class TestRefinement:
    def test_refine_with_bits_splits(self):
        aig2 = Aig()
        a, b = aig2.add_pi(), aig2.add_pi()
        g1 = aig2.add_and(a, b)
        g2 = aig2.add_and(g1, a)
        g3 = aig2.add_and(g2, b)
        nodes = [Aig.node_of(g1), Aig.node_of(g2), Aig.node_of(g3)]
        result = _result_for(aig2, {nodes[0]: 0b0011, nodes[1]: 0b0011, nodes[2]: 0b0011}, 4)
        classes = EquivalenceClasses.from_simulation(aig2, result)
        assert classes.num_classes == 1
        # A new pattern distinguishes node 3.
        splits = classes.refine_with_bits(_literal_values(aig2, {nodes[0]: 0, nodes[1]: 0, nodes[2]: 1}))
        assert splits == 1
        assert classes.same_class(nodes[0], nodes[1])
        assert not classes.same_class(nodes[0], nodes[2])

    def test_refine_respects_polarity(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        g1 = aig.add_and(a, b)
        g2 = aig.add_and(g1, a)
        n1, n2 = Aig.node_of(g1), Aig.node_of(g2)
        result = _result_for(aig, {n1: 0b0101, n2: 0b1010}, 4)
        classes = EquivalenceClasses.from_simulation(aig, result)
        assert classes.same_class(n1, n2)
        # New bits that are still complementary must NOT split the class.
        splits = classes.refine_with_bits(_literal_values(aig, {n1: 1, n2: 0}))
        assert splits == 0
        assert classes.same_class(n1, n2)

    def test_refine_with_bits_keeps_the_constant_class(self):
        # A constant class {0, g1, g2} and an ordinary class {g3, g4}:
        # splitting the ordinary class leaves the constant node with the
        # members that still read their constant.
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        g1 = aig.add_and(a, b)
        g2 = aig.add_and(g1, a)
        g3 = aig.add_and(g2, b)
        g4 = aig.add_and(g3, a)
        n1, n2, n3, n4 = (Aig.node_of(g) for g in (g1, g2, g3, g4))
        result = _result_for(aig, {n1: 0, n2: 0b1111, n3: 0b0110, n4: 0b0110}, 4)
        classes = EquivalenceClasses.from_simulation(aig, result)
        assert classes.same_class(0, n1) and classes.same_class(0, n2) and classes.same_class(n3, n4)
        # n2 is a constant-true candidate: its bit 1 agrees with node 0.
        assert classes.refine_with_bits(_literal_values(aig, {n1: 0, n2: 1, n3: 1, n4: 0})) == 1
        assert not classes.same_class(n3, n4)
        constant_class = classes.constant_class()
        assert constant_class is not None
        assert constant_class.members == [0, n1, n2]
        # A member leaving its constant splits away from node 0.
        assert classes.refine_with_bits(_literal_values(aig, {n1: 0, n2: 0})) == 1
        assert classes.constant_class() is not None
        assert classes.constant_class().members == [0, n1]

    def test_counterexample_of_the_wrong_width_is_rejected(self):
        aig = _two_class_aig()
        classes = EquivalenceClasses.from_simulation(aig, simulate_aig(aig, PatternSet.exhaustive(3)))
        with pytest.raises(ValueError):
            refine_with_counterexample(aig, classes, (0, 1))

    def test_refine_with_truth_tables(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        g1 = aig.add_and(a, b)
        g2 = aig.add_and(g1, a)
        n1, n2 = Aig.node_of(g1), Aig.node_of(g2)
        result = _result_for(aig, {n1: 0b0011, n2: 0b0011}, 4)
        classes = EquivalenceClasses.from_simulation(aig, result)
        tables = {
            n1: TruthTable.from_function(lambda x, y: x and y, 2),
            n2: TruthTable.from_function(lambda x, y: x or y, 2),
        }
        splits = classes.refine_with_truth_tables(tables)
        assert splits >= 1
        assert not classes.same_class(n1, n2)

    def test_refine_with_truth_tables_leaves_other_classes_alone(self):
        # A constant class {0, g1, g2} and an ordinary class {g3, g4}:
        # refining the ordinary class must not split node 0 away from the
        # constant candidates it has no table for.
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        g1 = aig.add_and(a, b)
        g2 = aig.add_and(g1, a)
        g3 = aig.add_and(g2, b)
        g4 = aig.add_and(g3, a)
        n1, n2, n3, n4 = (Aig.node_of(g) for g in (g1, g2, g3, g4))
        result = _result_for(aig, {n1: 0, n2: 0, n3: 0b0110, n4: 0b0110}, 4)
        classes = EquivalenceClasses.from_simulation(aig, result)
        assert classes.same_class(0, n1) and classes.same_class(n3, n4)
        tables = {
            n3: TruthTable.from_function(lambda x, y: x and y, 2),
            n4: TruthTable.from_function(lambda x, y: x or y, 2),
        }
        assert classes.refine_with_truth_tables(tables) == 1
        assert not classes.same_class(n3, n4)
        constant_class = classes.constant_class()
        assert constant_class is not None
        assert sorted(constant_class.members) == [0, n1, n2]


def _reference_refine(aig: Aig, classes: EquivalenceClasses, pattern: tuple[int, ...]) -> None:
    """Counter-example refinement as a cone-local simulation plus a bucket split."""
    signatures = simulate_aig_nodes(aig, PatternSet.from_patterns([pattern]), classes.class_nodes())
    for class_id in list(classes._classes):
        cls = classes._classes[class_id]
        if cls.is_singleton():
            continue
        buckets: dict[int, list[int]] = {}
        for node in cls.members:
            key = 0 if node == 0 else signatures[node] ^ cls.polarity[node]
            buckets.setdefault(key, []).append(node)
        if len(buckets) > 1:
            classes._split_class(class_id, list(buckets.values()))


def _snapshot(classes: EquivalenceClasses) -> list[tuple[int, int, list[int], dict[int, bool]]]:
    """Every class in id order: id, representative, members, polarities."""
    return [
        (class_id, cls.representative, list(cls.members), dict(cls.polarity))
        for class_id, cls in classes._classes.items()
    ]


def _oracle_network(seed: int, rewired: bool) -> Aig:
    """A random AIG with an extended cached order, or one rewired out of index order."""
    rng = random.Random(seed)
    aig = random_aig(num_pis=6, num_gates=60, num_pos=4, seed=seed)
    aig.topological_order()
    literals = [Aig.literal(node) for node in aig.gates()]
    for _ in range(15):
        aig.add_and(rng.choice(literals) ^ rng.randrange(2), rng.choice(literals) ^ rng.randrange(2))
    if rewired:
        gates = list(aig.gates())
        for gate in rng.sample(gates, 10):
            # A later node outside the gate's fanout cone keeps the network acyclic.
            fanout_cone = set(aig.tfo([gate]))
            later = [node for node in gates if node > gate and node not in fanout_cone]
            if later:
                old_node = rng.choice(aig.fanin_nodes(gate))
                aig.replace_fanin(gate, old_node, Aig.literal(rng.choice(later), rng.random() < 0.5))
        assert any(
            fanin > gate for gate in aig.gates() for fanin in aig.fanin_nodes(gate)
        ), "rewiring left the index order topological"
    return aig


class TestCounterexampleOracle:
    """refine_with_counterexample against simulate_aig_nodes plus a bucket split."""

    @pytest.mark.parametrize("cached", [True, False], ids=["cached-order", "no-order"])
    @pytest.mark.parametrize("rewired", [False, True], ids=["extended", "rewired"])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_matches_reference(self, seed, rewired, cached):
        aig = _oracle_network(seed, rewired)
        # Four patterns leave many nodes looking constant or alike.  The
        # simulation builds the order; a clone starts without one.
        result = simulate_aig(aig, PatternSet.random(aig.num_pis, 4, seed))
        if not cached:
            aig = aig.clone()
        order = aig.cached_topological_order()
        assert (order is not None) == cached
        classes = EquivalenceClasses.from_simulation(aig, result)
        reference = EquivalenceClasses.from_simulation(aig, result)
        assert classes.constant_class() is not None
        rng = random.Random(seed + 1000)
        for _ in range(20):
            pattern = tuple(rng.randrange(2) for _ in range(aig.num_pis))
            refine_with_counterexample(aig, classes, pattern)
            _reference_refine(aig, reference, pattern)
            assert _snapshot(classes) == _snapshot(reference)
            assert classes._class_of == reference._class_of
            assert aig.cached_topological_order() is order
        # The patterns did split classes.
        assert classes.candidate_pairs() < EquivalenceClasses.from_simulation(aig, result).candidate_pairs()
