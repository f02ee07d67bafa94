"""Tests for AIG-to-k-LUT mapping and cone truth tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.random_logic import random_aig
from repro.cuts import aig_cone_table
from repro.networks import Aig, map_aig_to_klut


class TestConeTruthTables:
    def test_single_and_gate(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, Aig.negate(b))
        table = aig_cone_table(aig, Aig.node_of(x), [Aig.node_of(a), Aig.node_of(b)])
        assert table.to_bit_list() == [0, 1, 0, 0]

    def test_unlisted_pi_raises(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        with pytest.raises(ValueError):
            aig_cone_table(aig, Aig.node_of(x), [Aig.node_of(a)])

    def test_constant_node(self):
        # The cone of the constant node never reaches the listed leaf, so
        # the strict walker rejects the leaf set; window semantics allow it.
        aig = Aig()
        a = aig.add_pi()
        with pytest.raises(ValueError):
            aig_cone_table(aig, 0, [Aig.node_of(a)])
        table = aig_cone_table(aig, 0, [Aig.node_of(a)], allow_unused_leaves=True)
        assert table.bits == 0

    def test_leaf_set_not_cutting_the_cone_raises(self):
        # Regression for the silent wrong-support tables: a leaf that is
        # not part of the cone used to become a don't-care input.
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        unrelated = aig.add_and(b, c)
        with pytest.raises(ValueError):
            aig_cone_table(
                aig, Aig.node_of(x), [Aig.node_of(a), Aig.node_of(b), Aig.node_of(unrelated)]
            )
        table = aig_cone_table(
            aig,
            Aig.node_of(x),
            [Aig.node_of(a), Aig.node_of(b), Aig.node_of(unrelated)],
            allow_unused_leaves=True,
        )
        assert not table.depends_on(2)

    def test_out_of_range_leaf_raises(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        with pytest.raises(ValueError):
            aig_cone_table(aig, Aig.node_of(x), [Aig.node_of(a), 999])


class TestMapping:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_mapping_preserves_function(self, small_aig, k):
        klut, _ = map_aig_to_klut(small_aig, k=k)
        assert klut.max_fanin_size() <= k
        for assignment in range(1 << small_aig.num_pis):
            values = [bool(assignment & (1 << i)) for i in range(small_aig.num_pis)]
            assert klut.evaluate(values) == small_aig.evaluate(values)

    def test_mapping_reduces_node_count(self, ripple_adder_4):
        klut, _ = map_aig_to_klut(ripple_adder_4, k=6)
        assert klut.num_luts < ripple_adder_4.num_ands

    def test_k_validation(self, small_aig):
        with pytest.raises(ValueError):
            map_aig_to_klut(small_aig, k=1)

    def test_po_complement_preserved(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        aig.add_po(Aig.negate(x), "notand")
        klut, _ = map_aig_to_klut(aig, k=2)
        for assignment in range(4):
            values = [bool(assignment & 1), bool(assignment & 2)]
            assert klut.evaluate(values) == aig.evaluate(values)

    def test_constant_po(self):
        aig = Aig()
        aig.add_pi()
        aig.add_po(1, "const_true")
        klut, _ = map_aig_to_klut(aig, k=2)
        assert klut.evaluate([False]) == [True]
        assert klut.evaluate([True]) == [True]

    def test_node_map_covers_pis_and_pos(self, small_aig):
        klut, node_map = map_aig_to_klut(small_aig, k=4)
        for pi in small_aig.pis:
            assert pi in node_map
        for po in small_aig.pos:
            assert Aig.node_of(po) in node_map

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
    def test_random_aigs_map_correctly(self, seed, k):
        aig = random_aig(num_pis=6, num_gates=40, num_pos=4, seed=seed)
        klut, _ = map_aig_to_klut(aig, k=k)
        # Spot-check sixteen assignments rather than all 64 for speed.
        for assignment in range(0, 64, 4):
            values = [bool(assignment & (1 << i)) for i in range(6)]
            assert klut.evaluate(values) == aig.evaluate(values)
