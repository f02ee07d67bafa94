"""Unit tests for structural choice classes on the network containers."""

import pytest

from repro.circuits.random_logic import random_aig
from repro.networks import Aig, KLutNetwork
from repro.networks.transforms import cleanup_dangling, rebuild_strashed
from repro.truthtable import TruthTable


def _chain_network():
    """g = ((a&b)&c)&d plus a balanced alternative sharing a&b."""
    aig = Aig()
    a, b, c, d = (aig.add_pi() for _ in range(4))
    f1 = aig.add_and(a, b)
    f2 = aig.add_and(f1, c)
    g = aig.add_and(f2, d)
    aig.add_po(g)
    alt = aig.add_and(f1, aig.add_and(c, d))
    return aig, g >> 1, alt >> 1, alt


class TestAddChoice:
    def test_basic_link(self):
        aig, g, alt_node, alt = _chain_network()
        assert aig.add_choice(g, alt)
        assert aig.has_choices
        assert aig.num_choice_classes == 1
        assert aig.num_choice_alternatives == 1
        assert aig.choice_repr(alt_node) == g
        assert aig.choice_repr(g) == g
        assert aig.choice_members(g) == [g, alt_node]
        assert aig.choices(g) == [(alt_node, False)]
        assert aig.choices(alt_node) == [(g, False)]

    def test_complemented_link(self):
        aig, g, alt_node, alt = _chain_network()
        assert aig.add_choice(g, Aig.negate(alt))
        assert aig.choice_phase(alt_node) is True
        assert aig.choices(g) == [(alt_node, True)]
        # phase is relative: seen from the alternative, g is complemented
        assert aig.choices(alt_node) == [(g, True)]

    def test_rejects_non_gates_and_duplicates(self):
        aig, g, alt_node, alt = _chain_network()
        pi_literal = Aig.literal(aig.pis[0])
        assert not aig.add_choice(g, pi_literal)
        assert not aig.add_choice(aig.pis[0], alt)
        assert not aig.add_choice(g, Aig.literal(g))
        assert aig.add_choice(g, alt)
        assert not aig.add_choice(g, alt)  # already same class
        assert not aig.add_choice(alt_node, Aig.literal(g))  # either direction

    def test_rejects_tfi_cycle(self):
        aig, g, _alt_node, _alt = _chain_network()
        f2 = aig.gate_fanin_nodes(g)[0]
        # g's cone contains f2: making g an alternative of f2 would let
        # f2's merged cuts reach through g back into f2's fanout.
        assert not aig.add_choice(f2, Aig.literal(g))

    def test_rejects_class_closed_cycle(self):
        # A legal class {x, u} with disjoint cones; a new member v whose
        # cone contains u (but NOT x) must be refused: a naive
        # "representative not in the alternative's TFI" check would
        # accept it, yet x's merged cut sets could then reach through v
        # into u's fanout and back into the class.
        aig = Aig()
        a, b, c, d, e = (aig.add_pi() for _ in range(5))
        x = aig.add_and(a, b)
        u = aig.add_and(c, d)
        aig.add_po(x)
        assert aig.add_choice(x >> 1, u)
        v = aig.add_and(aig.add_and(u, e), a)  # v's cone contains u, not x
        assert x >> 1 not in {node for node in aig.tfi([v >> 1])}
        assert not aig.add_choice(x >> 1, v)
        # ... and the closure works through *expansion* too: w's cone
        # contains only class member u, reached by expanding x's class.
        w = aig.add_and(u, e)
        assert not aig.add_choice(w >> 1, Aig.literal(x >> 1))

    def test_class_merge(self):
        aig, g, alt_node, alt = _chain_network()
        a, b = aig.pis[0], aig.pis[1]
        c, d = aig.pis[2], aig.pis[3]
        other = aig.add_and(
            aig.add_and(Aig.literal(a), Aig.literal(d)),
            aig.add_and(Aig.literal(b), Aig.literal(c)),
        )
        assert aig.add_choice(alt_node, other)
        assert aig.add_choice(g, alt)
        members = aig.choice_members(g)
        assert members[0] == g
        assert set(members) == {g, alt_node, other >> 1}
        assert aig.num_choice_classes == 1
        assert aig.num_choice_alternatives == 2

    def test_klut_choice(self):
        klut = KLutNetwork()
        a = klut.add_pi()
        b = klut.add_pi()
        and2 = TruthTable(2, 0b1000)
        l1 = klut.add_lut([a, b], and2)
        l2 = klut.add_lut([b, a], and2)
        klut.add_po(l1)
        assert klut.add_choice(l1, l2)
        assert klut.choice_members(l1) == [l1, l2]
        with pytest.raises(ValueError):
            klut._make_edge_ref(l2, True)


class TestRemoveAndSubstitute:
    def test_remove_choice_promotes_representative(self):
        aig, g, alt_node, alt = _chain_network()
        other = aig.add_and(
            aig.add_and(Aig.literal(aig.pis[0]), Aig.literal(aig.pis[2])),
            aig.add_and(Aig.literal(aig.pis[1]), Aig.literal(aig.pis[3])),
        )
        aig.add_choice(g, Aig.negate(alt))
        aig.add_choice(g, other)
        assert aig.remove_choice(g)
        # the first surviving member takes over, phases rebased onto it
        new_repr = aig.choice_repr(alt_node)
        assert new_repr == alt_node
        assert aig.choice_phase(alt_node) is False
        assert aig.choice_phase(other >> 1) is True  # was False vs g, alt was True vs g
        assert aig.num_choice_classes == 1

    def test_remove_last_member_dissolves(self):
        aig, g, alt_node, alt = _chain_network()
        aig.add_choice(g, alt)
        assert aig.remove_choice(alt_node)
        assert not aig.has_choices
        assert aig.choice_members(g) == [g]
        assert not aig.remove_choice(alt_node)

    def test_substitute_reanchors_class(self):
        aig, g, alt_node, alt = _chain_network()
        aig.add_choice(g, alt)
        a, b, c, d = aig.pis
        replacement = aig.add_and(
            aig.add_and(Aig.literal(b), Aig.literal(c)),
            aig.add_and(Aig.literal(a), Aig.literal(d)),
        )
        aig.substitute(g, replacement)
        new_node = replacement >> 1
        assert aig.choice_repr(g) == g  # the replaced node left the class
        assert set(aig.choice_members(new_node)) == {new_node, alt_node}

    def test_substitute_by_complement_keeps_phases(self):
        # Class of two XNOR structures; the representative is then
        # substituted by the complemented literal of an XOR-computing
        # node (a genuinely function-preserving complement merge, the
        # shape fraig produces for opposite-polarity signatures).
        aig = Aig()
        x, y = aig.add_pi(), aig.add_pi()
        xnor_a = aig.node_of(aig.add_xor(x, y))  # the XOR literal is the
        aig.add_po(Aig.literal(xnor_a))  #          complemented node: node = XNOR
        # a second XNOR structure: (x&y) | (!x&!y) built positively
        xnor_b = aig.node_of(
            aig.add_or(aig.add_and(x, y), aig.add_and(Aig.negate(x), Aig.negate(y)))
        )
        assert xnor_b != xnor_a
        assert aig.add_choice(xnor_a, Aig.literal(xnor_b))
        # an XOR-computing positive node: !(x&y) & (x|y)
        xor_c = aig.node_of(
            aig.add_and(Aig.negate(aig.add_and(x, y)), aig.add_or(x, y))
        )
        # node(xor_c) == !XNOR, so the complemented literal computes XNOR
        aig.substitute(xnor_a, Aig.literal(xor_c, True))
        members = set(aig.choice_members(xor_c))
        assert members == {xor_c, xnor_b}
        # declared relation must match simulation: xnor_b ^ phase == xor_c ^ phase
        for assignment in range(4):
            values = [bool(assignment & 1), bool(assignment & 2)]
            node_values = {0: False}
            for position, pi in enumerate(aig.pis):
                node_values[pi] = values[position]
            for node in aig.topological_order():
                f0, f1 = aig.fanins(node)
                v0 = node_values[f0 >> 1] ^ bool(f0 & 1)
                v1 = node_values[f1 >> 1] ^ bool(f1 & 1)
                node_values[node] = v0 and v1
            lhs = node_values[xor_c] ^ aig.choice_phase(xor_c)
            rhs = node_values[xnor_b] ^ aig.choice_phase(xnor_b)
            assert lhs == rhs

    def test_clone_copies_choices_but_not_listeners(self):
        aig, g, alt_node, alt = _chain_network()
        events = []
        aig.add_choice_listener(lambda representative, members: events.append(members))
        aig.add_choice(g, alt)
        assert len(events) == 1
        copy = aig.clone()
        assert copy.choice_members(g) == aig.choice_members(g)
        copy.remove_choice(alt_node)
        assert len(events) == 1  # clone does not carry the listener
        assert aig.choice_members(g) == [g, alt_node]  # original untouched


class TestChoiceTraversalAndCleanup:
    def test_choice_topological_order_respects_class_cones(self):
        aig, g, alt_node, alt = _chain_network()
        aig.add_choice(g, alt)
        order = aig.choice_topological_order()
        assert sorted(order) == sorted(aig.topological_order())
        position = {node: index for index, node in enumerate(order)}
        for node in order:
            for member in aig.choice_members(node):
                for fanin in aig.gate_fanin_nodes(member):
                    if aig.is_and(fanin):
                        assert position[fanin] < position[node], (node, member, fanin)

    def test_cleanup_preserves_choice_cones(self):
        aig, g, alt_node, alt = _chain_network()
        aig.add_choice(g, Aig.negate(alt))
        cleaned, _literal_map = cleanup_dangling(aig)
        assert cleaned.num_choice_classes == 1
        assert cleaned.num_choice_alternatives == 1
        # the alternative's cone survived even though it is dangling
        assert cleaned.num_ands == aig.num_ands

    def test_cleanup_drops_unanchored_dangling(self):
        aig, g, alt_node, alt = _chain_network()
        # no choice recorded: the alternative cone is plain dangling logic
        cleaned, _literal_map = rebuild_strashed(aig)
        assert cleaned.num_ands == 3
        assert not cleaned.has_choices

    def test_cleanup_preserves_phase_semantics(self):
        aig = random_aig(num_pis=5, num_gates=30, num_pos=3, seed=7)
        work = aig.clone()
        # record associative restructurings as genuine choices:
        # node = (g0 & g1) & f1 gains the alternative g0 & (g1 & f1)
        recorded = 0
        for node in list(work.topological_order()):
            if recorded >= 3:
                break
            fanin0, fanin1 = work.fanins(node)
            if fanin0 & 1 or not work.is_and(fanin0 >> 1):
                continue
            g0, g1 = work.fanins(fanin0 >> 1)
            alternative = work.add_and(g0, work.add_and(g1, fanin1))
            if alternative >> 1 != node and work.add_choice(node, alternative):
                recorded += 1
        assert recorded > 0
        cleaned, _literal_map = cleanup_dangling(work)
        # every surviving member must still simulate to repr ^ phase
        for assignment in range(1 << cleaned.num_pis):
            values = [bool(assignment & (1 << i)) for i in range(cleaned.num_pis)]
            node_values = {0: False}
            for position, pi in enumerate(cleaned.pis):
                node_values[pi] = values[position]
            for node in cleaned.topological_order():
                f0, f1 = cleaned.fanins(node)
                v0 = node_values[f0 >> 1] ^ bool(f0 & 1)
                v1 = node_values[f1 >> 1] ^ bool(f1 & 1)
                node_values[node] = v0 and v1
            for node in cleaned.topological_order():
                representative = cleaned.choice_repr(node)
                if representative == node:
                    continue
                assert (node_values[node] ^ cleaned.choice_phase(node)) == node_values[representative]


def test_associative_alternatives_on_max():
    """Record ``(g0 & g1) & f1 = g0 & (g1 & f1)`` at every gate of ``max`` where it applies."""
    from repro.circuits import epfl_benchmark
    from repro.simulation import PatternSet, simulate_aig

    aig = epfl_benchmark("max").clone()
    recorded = 0
    for node in aig.topological_order():
        fanin0, fanin1 = aig.fanins(node)
        if fanin0 & 1 or not aig.is_and(fanin0 >> 1):
            continue
        g0, g1 = aig.fanins(fanin0 >> 1)
        alternative = aig.add_and(g0, aig.add_and(g1, fanin1))
        if alternative >> 1 == node:
            continue
        if aig.add_choice(node, alternative):
            recorded += 1
    assert recorded > 0
    assert aig.num_choice_classes > 0
    result = simulate_aig(aig, PatternSet.random(aig.num_pis, 128, seed=4))
    order = aig.choice_topological_order()
    assert sorted(order) == sorted(aig.gates())
    for node in aig.gates():
        representative = aig.choice_repr(node)
        phase = result.mask if aig.choice_phase(node) else 0
        assert result.signature(node) ^ phase == result.signature(representative), node
