"""Tests for the equivalence-class manager."""

import pytest

from repro.networks import Aig
from repro.simulation import PatternSet, SimulationResult, simulate_aig
from repro.sweeping import EquivalenceClasses
from repro.truthtable import TruthTable


def _result_for(signatures: dict[int, int], num_patterns: int) -> SimulationResult:
    result = SimulationResult(num_patterns)
    for node, signature in signatures.items():
        result.set_signature(node, signature)
    return result


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
                assert classes.class_id_of(member) is not None
                assert set(classes.members_of(member)) == set(cls.members)

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
    def test_refine_with_signatures_splits(self):
        aig = Aig()
        pis = [aig.add_pi() for _ in range(2)]
        result = _result_for({1: 0b0011, 2: 0b0011, 3: 0b0011}, 4)
        # Give nodes 1-3 fake AND status by building a tiny AIG with 3 gates.
        aig2 = Aig()
        a, b = aig2.add_pi(), aig2.add_pi()
        g1 = aig2.add_and(a, b)
        g2 = aig2.add_and(g1, a)
        g3 = aig2.add_and(g2, b)
        nodes = [Aig.node_of(g1), Aig.node_of(g2), Aig.node_of(g3)]
        result = _result_for({nodes[0]: 0b0011, nodes[1]: 0b0011, nodes[2]: 0b0011}, 4)
        classes = EquivalenceClasses.from_simulation(aig2, result)
        assert classes.num_classes == 1
        # A new pattern (bit 0 of a 1-pattern refinement) distinguishes node 3.
        splits = classes.refine_with_signatures({nodes[0]: 0, nodes[1]: 0, nodes[2]: 1}, 1)
        assert splits == 1
        assert classes.same_class(nodes[0], nodes[1])
        assert not classes.same_class(nodes[0], nodes[2])

    def test_refine_respects_polarity(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        g1 = aig.add_and(a, b)
        g2 = aig.add_and(g1, a)
        n1, n2 = Aig.node_of(g1), Aig.node_of(g2)
        result = _result_for({n1: 0b0101, n2: 0b1010}, 4)
        classes = EquivalenceClasses.from_simulation(aig, result)
        assert classes.same_class(n1, n2)
        # New signatures that are still complementary must NOT split the class.
        splits = classes.refine_with_signatures({n1: 0b1, n2: 0b0}, 1)
        assert splits == 0
        assert classes.same_class(n1, n2)

    def test_refine_with_truth_tables(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        g1 = aig.add_and(a, b)
        g2 = aig.add_and(g1, a)
        n1, n2 = Aig.node_of(g1), Aig.node_of(g2)
        result = _result_for({n1: 0b0011, n2: 0b0011}, 4)
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
        result = _result_for({n1: 0, n2: 0, n3: 0b0110, n4: 0b0110}, 4)
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

    def test_refine_keeps_members_without_new_information(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        g1 = aig.add_and(a, b)
        g2 = aig.add_and(g1, a)
        g3 = aig.add_and(g2, b)
        nodes = [Aig.node_of(g) for g in (g1, g2, g3)]
        result = _result_for({n: 0b0001 for n in nodes}, 4)
        classes = EquivalenceClasses.from_simulation(aig, result)
        # Only nodes 1 and 2 receive new signatures and they still agree.
        splits = classes.refine_with_signatures({nodes[0]: 1, nodes[1]: 1}, 1)
        # Node 3 had no new signature: it stays grouped, but in a separate
        # "no information" bucket, which may or may not split depending on
        # the grouping -- what matters is no crash and consistency.
        assert isinstance(splits, int)
        assert classes.same_class(nodes[0], nodes[1])
