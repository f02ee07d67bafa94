"""Unit and property-based tests for the AIG container."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks import Aig, LIT_FALSE, LIT_TRUE
from repro.networks.aig import fanout_counts_impl
from repro.networks.structural_hash import structural_hash
from repro.networks.transforms import cleanup_dangling
from repro.networks.traversal import transitive_fanin


class TestLiterals:
    def test_literal_encoding(self):
        assert Aig.literal(5) == 10
        assert Aig.literal(5, True) == 11
        assert Aig.node_of(11) == 5
        assert Aig.is_complemented(11)
        assert not Aig.is_complemented(10)
        assert Aig.negate(10) == 11
        assert Aig.regular(11) == 10

    def test_constants(self):
        assert LIT_FALSE == 0
        assert LIT_TRUE == 1


class TestConstruction:
    def test_pi_and_po_bookkeeping(self):
        aig = Aig("t")
        a = aig.add_pi("a")
        b = aig.add_pi()
        assert aig.num_pis == 2
        assert aig.pi_names == ["a", "pi1"]
        aig.add_po(aig.add_and(a, b), "out")
        assert aig.num_pos == 1
        assert aig.po_names == ["out"]

    def test_strashing_deduplicates(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        first = aig.add_and(a, b)
        second = aig.add_and(b, a)
        assert first == second
        assert aig.num_ands == 1

    def test_one_level_simplifications(self):
        aig = Aig()
        a = aig.add_pi()
        assert aig.add_and(a, LIT_FALSE) == LIT_FALSE
        assert aig.add_and(a, LIT_TRUE) == a
        assert aig.add_and(a, a) == a
        assert aig.add_and(a, Aig.negate(a)) == LIT_FALSE
        assert aig.num_ands == 0

    def test_invalid_literal_rejected(self):
        aig = Aig()
        a = aig.add_pi()
        with pytest.raises(ValueError):
            aig.add_and(a, 999)
        with pytest.raises(ValueError):
            aig.add_po(999)

    def test_derived_gates_semantics(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        aig.add_po(aig.add_or(a, b), "or")
        aig.add_po(aig.add_xor(a, b), "xor")
        aig.add_po(aig.add_xnor(a, b), "xnor")
        aig.add_po(aig.add_mux(a, b, c), "mux")
        aig.add_po(aig.add_maj(a, b, c), "maj")
        for assignment in range(8):
            va, vb, vc = (bool(assignment & (1 << i)) for i in range(3))
            outputs = aig.evaluate([va, vb, vc])
            assert outputs[0] == (va or vb)
            assert outputs[1] == (va ^ vb)
            assert outputs[2] == (va == vb)
            assert outputs[3] == (vb if va else vc)
            assert outputs[4] == (int(va) + int(vb) + int(vc) >= 2)

    def test_multi_input_gates(self):
        aig = Aig()
        literals = [aig.add_pi() for _ in range(5)]
        aig.add_po(aig.add_and_multi(literals), "and")
        aig.add_po(aig.add_or_multi(literals), "or")
        aig.add_po(aig.add_xor_multi(literals), "xor")
        assert aig.add_and_multi([]) == LIT_TRUE
        assert aig.add_or_multi([]) == LIT_FALSE
        for assignment in range(32):
            values = [bool(assignment & (1 << i)) for i in range(5)]
            outputs = aig.evaluate(values)
            assert outputs[0] == all(values)
            assert outputs[1] == any(values)
            assert outputs[2] == (sum(values) % 2 == 1)


class TestQueries:
    def test_node_kind_predicates(self, small_aig):
        assert small_aig.is_constant(0)
        assert small_aig.is_pi(1)
        assert not small_aig.is_and(1)
        gate = next(iter(small_aig.gates()))
        assert small_aig.is_and(gate)

    def test_topological_order_is_consistent(self, small_aig):
        order = small_aig.topological_order()
        position = {node: i for i, node in enumerate(order)}
        for node in order:
            for fanin in small_aig.fanin_nodes(node):
                if small_aig.is_and(fanin):
                    assert position[fanin] < position[node]
        assert len(order) == small_aig.num_ands

    def test_levels_and_depth(self, small_aig):
        levels = small_aig.levels()
        assert all(levels[pi] == 0 for pi in small_aig.pis)
        assert small_aig.depth() == max(
            levels[Aig.node_of(po)] for po in small_aig.pos
        )

    def test_fanout_counts(self, small_aig):
        counts = small_aig.fanout_counts()
        total_refs = sum(2 for _ in small_aig.gates()) + small_aig.num_pos
        assert sum(counts.values()) == total_refs

    def test_tfi_tfo(self, small_aig):
        po_node = Aig.node_of(small_aig.pos[0])
        cone = small_aig.tfi([po_node])
        assert po_node in cone
        assert any(small_aig.is_pi(n) for n in cone)
        pi = small_aig.pis[0]
        fanout_cone = small_aig.tfo([pi])
        assert pi in fanout_cone
        assert po_node in fanout_cone

    def test_tfi_limit(self, small_aig):
        po_node = Aig.node_of(small_aig.pos[0])
        bounded = small_aig.tfi([po_node], limit=2)
        assert len(bounded) == 2

    def test_pi_index(self, small_aig):
        for index, pi in enumerate(small_aig.pis):
            assert small_aig.pi_index(pi) == index
        with pytest.raises(ValueError):
            small_aig.pi_index(0)

    def test_evaluate_arity_check(self, small_aig):
        with pytest.raises(ValueError):
            small_aig.evaluate([True])


class TestMutation:
    def test_substitute_redirects_references(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, a)
        aig.add_po(y)
        # Substitute x by constant true: y should behave as AND(1, a) == a.
        rewritten = aig.substitute(Aig.node_of(x), LIT_TRUE)
        assert rewritten == 1
        for va in (False, True):
            for vb in (False, True):
                assert aig.evaluate([va, vb]) == [va]

    def test_substitute_with_complement(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        aig.add_po(Aig.negate(x))
        aig.substitute(Aig.node_of(x), Aig.negate(a))
        # PO was !x; with x := !a the PO becomes !!a == a.
        assert aig.evaluate([True, False]) == [True]
        assert aig.evaluate([False, True]) == [False]

    def test_substitute_rejects_pi_and_self(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        with pytest.raises(ValueError):
            aig.substitute(Aig.node_of(a), x)
        with pytest.raises(ValueError):
            aig.substitute(Aig.node_of(x), x)

    def test_replace_fanin(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        aig.add_po(y)
        assert aig.replace_fanin(Aig.node_of(y), Aig.node_of(x), a)
        assert aig.evaluate([True, False, True]) == [True]

    def test_clone_is_independent(self, small_aig):
        copy = small_aig.clone()
        copy.add_pi("extra")
        assert copy.num_pis == small_aig.num_pis + 1

    def test_set_po(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        aig.add_po(a)
        aig.set_po(0, b)
        assert aig.pos[0] == b


def _build_chain(num_pis: int = 4, depth: int = 12) -> Aig:
    aig = Aig("chain")
    pis = [aig.add_pi() for _ in range(num_pis)]
    literal = pis[0]
    literals = list(pis)
    for i in range(depth):
        literal = aig.add_and(literal, literals[i % len(literals)] ^ (i & 1))
        literals.append(literal)
    aig.add_po(literal)
    return aig


class TestIncrementalInvariants:
    """The maintained fanouts / strash / topo cache must match a rebuild."""

    def test_fanout_counts_match_reference_after_substitute(self):
        aig = _build_chain()
        gate = max(aig.gates())
        fanin0, _ = aig.fanins(gate)
        victim = next(g for g in aig.gates() if g != gate and g != Aig.node_of(fanin0))
        replacement = aig.fanins(victim)[0]
        aig.substitute(victim, replacement)
        assert aig.fanout_counts() == fanout_counts_impl(aig)

    def test_fanout_lists_follow_substitution(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        z = aig.add_and(x, Aig.negate(c))
        aig.add_po(y)
        aig.add_po(z)
        node_x = Aig.node_of(x)
        assert sorted(aig.fanouts(node_x)) == sorted([Aig.node_of(y), Aig.node_of(z)])
        aig.substitute(node_x, a)
        assert aig.fanouts(node_x) == []
        assert sorted(aig.fanouts(Aig.node_of(a))).count(Aig.node_of(y)) == 1
        assert Aig.node_of(z) in aig.fanouts(Aig.node_of(a))

    def test_po_references_follow_substitution(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        aig.add_po(x)
        aig.add_po(Aig.negate(x))
        rewritten = aig.substitute(Aig.node_of(x), a)
        assert rewritten == 2
        assert aig.pos == [a, Aig.negate(a)]
        counts = aig.fanout_counts()
        # Two PO references plus one fanin of the (now dangling) gate x.
        assert counts[Aig.node_of(a)] == 3
        assert counts == fanout_counts_impl(aig)

    def test_topological_order_cache_matches_recompute(self):
        aig = _build_chain()
        first = aig.topological_order()
        # Clean cache: repeated calls return equal, independent lists.
        second = aig.topological_order()
        assert first == second
        second.append(-1)
        assert aig.topological_order() == first

    def test_topological_order_valid_after_substitutions(self):
        aig = _build_chain()
        gates = list(aig.gates())
        aig.topological_order()  # populate the cache
        victim = gates[len(gates) // 2]
        replacement = aig.fanins(victim)[0]
        aig.substitute(victim, replacement)
        order = aig.topological_order()
        assert sorted(order) == sorted(aig.gates())
        position = {node: i for i, node in enumerate(order)}
        for node in order:
            for fanin in aig.fanin_nodes(node):
                if aig.is_and(fanin):
                    assert position[fanin] < position[node]

    def test_topological_position_consistent_with_order(self):
        aig = _build_chain()
        order = aig.topological_order()
        for index, node in enumerate(order):
            assert aig.topological_position(node) == index
        assert aig.topological_position(0) == -1
        for pi in aig.pis:
            assert aig.topological_position(pi) == -1

    def test_cache_appended_by_add_and(self):
        aig = _build_chain()
        order_before = aig.topological_order()
        # AND with a fresh PI is guaranteed not to hit the strash table.
        fresh = aig.add_pi("fresh")
        new_literal = aig.add_and(fresh, Aig.literal(aig.pis[0]))
        order_after = aig.topological_order()
        assert order_after[: len(order_before)] == order_before
        assert order_after[-1] == Aig.node_of(new_literal)

    def test_strash_patched_after_substitute(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        aig.add_po(y)
        aig.substitute(Aig.node_of(x), a)
        # The strash table must only hold canonical keys matching current fanins.
        for key, gate in aig._strash.items():
            fanin0, fanin1 = aig.fanins(gate)
            assert key == ((fanin0, fanin1) if fanin0 <= fanin1 else (fanin1, fanin0))
        # Re-creating the rewritten gate's shape reuses it.
        assert aig.add_and(a, c) == y

    def test_tfo_served_from_fanout_lists(self):
        aig = _build_chain()
        pi = aig.pis[0]
        cone = set(aig.tfo([pi]))
        for node in aig.gates():
            if any(Aig.node_of(f) == pi for f in aig.fanins(node)):
                assert node in cone

    def test_clone_copies_incremental_state(self):
        aig = _build_chain()
        aig.topological_order()
        copy = aig.clone()
        gate = max(copy.gates())
        copy.substitute(gate, copy.fanins(gate)[0])
        # The original is untouched and still consistent.
        assert aig.fanout_counts() == fanout_counts_impl(aig)
        assert copy.fanout_counts() == fanout_counts_impl(copy)

    def test_built_and_read_network_holds_no_derived_indexes(self):
        aig = _build_chain()
        aig.substitute(max(aig.gates()) - 1, aig.pis[0])
        swept, _ = cleanup_dangling(aig)
        structural_hash(swept)
        assert swept.topological_order()
        assert swept._fanouts is None and swept._topo_pos is None
        order = swept.topological_order()
        assert swept.topological_position(order[-1]) == len(order) - 1
        pis = [Aig.literal(pi) for pi in swept.pis]
        a, b = next((a, b ^ 1) for a in pis for b in pis if a < b and swept.find_and(a, b ^ 1) is None)
        fresh = swept.add_and(a, b)
        assert swept.topological_position(Aig.node_of(fresh)) == len(order)
        assert swept._fanouts is None
        assert swept.fanout_counts() == fanout_counts_impl(swept)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fanout_lists_built_late_match_maintained_ones(self, seed):
        import random

        def build(eager: bool) -> Aig:
            rng = random.Random(seed)
            aig = Aig()
            literals = [aig.add_pi() for _ in range(5)]
            if eager:
                aig.fanouts(0)  # build the lists before the first gate
            for _ in range(40):
                a, b = rng.sample(literals, 2)
                literals.append(aig.add_and(a ^ rng.randint(0, 1), b ^ rng.randint(0, 1)))
            aig.add_po(literals[-1])
            return aig

        eager, lazy = build(True), build(False)
        assert lazy._fanouts is None
        lazy_clone = lazy.clone()
        rng = random.Random(seed)
        for aig in (eager, lazy, lazy_clone):
            rng.seed(seed)
            for _ in range(6):
                gate = rng.choice(list(aig.gates()))
                replacement = rng.choice([pi for pi in aig.pis])
                aig.substitute(gate, replacement)
        for node in eager.nodes():
            assert lazy.fanouts(node) == eager.fanouts(node) == lazy_clone.fanouts(node)
        assert lazy.fanout_counts() == fanout_counts_impl(lazy)


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_construction_matches_python_semantics(self, seed):
        """A randomly built AIG evaluates like the Python expressions used to build it."""
        import random

        rng = random.Random(seed)
        aig = Aig()
        num_pis = rng.randint(2, 5)
        pis = [aig.add_pi() for _ in range(num_pis)]
        expressions = {Aig.regular(pi): (lambda values, i=i: values[i]) for i, pi in enumerate(pis)}
        expressions[0] = lambda values: False
        literals = list(pis)
        for _ in range(rng.randint(1, 15)):
            a, b = rng.choice(literals), rng.choice(literals)
            invert_a, invert_b = rng.random() < 0.5, rng.random() < 0.5
            lit_a = Aig.negate(a) if invert_a else a
            lit_b = Aig.negate(b) if invert_b else b
            new_literal = aig.add_and(lit_a, lit_b)
            fa, fb = expressions[Aig.regular(a)], expressions[Aig.regular(b)]

            def fn(values, fa=fa, fb=fb, ia=invert_a ^ Aig.is_complemented(a), ib=invert_b ^ Aig.is_complemented(b)):
                return (fa(values) ^ ia) and (fb(values) ^ ib)

            if not Aig.is_complemented(new_literal) and Aig.node_of(new_literal) != 0:
                expressions.setdefault(Aig.regular(new_literal), fn)
            literals.append(new_literal)
        output = rng.choice(literals)
        aig.add_po(output)
        for assignment in range(1 << num_pis):
            values = [bool(assignment & (1 << i)) for i in range(num_pis)]
            base = expressions[Aig.regular(output)](values) if Aig.regular(output) != 0 else False
            expected = base ^ Aig.is_complemented(output)
            assert aig.evaluate(values) == [expected]


def _rewired_random_aig(seed: int) -> Aig:
    """A random AIG whose gates were partly rewired onto later gates.

    After the edits, node indices are no longer a topological order.
    """
    import random

    from repro.circuits.random_logic import random_aig

    rng = random.Random(seed)
    aig = random_aig(num_pis=6, num_gates=60, num_pos=4, seed=seed)
    gates = list(aig.gates())
    for _ in range(10):
        gate = rng.choice(gates)
        literals = [Aig.literal(node, rng.random() < 0.5) for node in rng.sample(range(1, aig.num_nodes), 2)]
        replacement = aig.add_and(*literals)
        if gate in transitive_fanin([Aig.node_of(replacement)], aig.gate_fanin_nodes):
            continue
        aig.replace_fanin(gate, aig.fanin_nodes(gate)[0], replacement)
    return aig


@pytest.mark.parametrize("seed", range(24))
def test_tfi_matches_the_generic_breadth_first_search(seed):
    """The inlined ``Aig.tfi`` returns the generic traversal's exact list."""
    import random

    rng = random.Random(seed)
    aig = _rewired_random_aig(seed)
    assert any(max(aig.fanin_nodes(gate)) > gate for gate in aig.gates())
    gates = list(aig.gates())
    root_sets = [
        aig.po_nodes(),
        [rng.choice(gates)],
        rng.sample(gates, 5) + rng.sample(gates, 3),  # repeated roots
        [0, rng.choice(aig.pis), rng.choice(gates), 0],  # constant and PI roots
        [rng.choice(aig.pis)],
        [0],
    ]
    for roots in root_sets:
        full = transitive_fanin(roots, aig.gate_fanin_nodes)
        for limit in (None, 0, 1, 2, len(full) // 2, len(full), len(full) + 3):
            assert aig.tfi(roots, limit) == transitive_fanin(roots, aig.gate_fanin_nodes, limit), (roots, limit)
        assert aig.tfi(iter(roots)) == full


def test_tfi_rejects_unknown_roots():
    aig = _build_chain()
    for roots in ([aig.num_nodes], [-1], [0, aig.num_nodes + 5]):
        with pytest.raises(ValueError, match="unknown node"):
            aig.tfi(roots)
    assert aig.tfi([]) == []


def _assert_topological(aig: Aig, order: list[int]) -> None:
    assert sorted(order) == sorted(aig.gates())
    position = {node: i for i, node in enumerate(order)}
    for node in order:
        for fanin in aig.fanin_nodes(node):
            if aig.is_and(fanin):
                assert position[fanin] < position[node]


def test_chained_substitutions_on_sin_keep_the_indexes():
    """Substituting every seventh gate of ``sin``'s second half by its first fanin."""
    from repro.circuits import epfl_benchmark

    base = epfl_benchmark("sin")
    aig = base.clone()
    gates = list(aig.gates())
    substituted = []
    for gate in gates[len(gates) // 2 :: 7]:
        fanin0, _ = aig.fanins(gate)
        if Aig.node_of(fanin0) != gate:
            aig.substitute(gate, fanin0)
            substituted.append(gate)
    assert len(substituted) > 50
    assert aig.num_ands == base.num_ands  # substitution never deletes nodes
    assert aig.fanout_counts() == fanout_counts_impl(aig)
    po_nodes = {Aig.node_of(po) for po in aig.pos}
    for gate in substituted:
        assert aig.fanouts(gate) == [] and gate not in po_nodes, gate
    _assert_topological(aig, aig.topological_order())


def test_topological_order_cache_on_sin():
    """Fifty cached answers, one substitution, fifty more: each a valid order."""
    from repro.circuits import epfl_benchmark

    aig = epfl_benchmark("sin").clone()
    first = aig.topological_order()
    _assert_topological(aig, first)
    assert all(aig.topological_order() == first for _ in range(50))
    gate = max(aig.gates())
    aig.substitute(gate, aig.fanins(gate)[0])
    second = aig.topological_order()
    _assert_topological(aig, second)
    assert all(aig.topological_order() == second for _ in range(50))
