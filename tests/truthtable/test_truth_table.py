"""Unit and property-based tests for word-packed truth tables."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.truthtable import TruthTable


small_tables = st.builds(
    lambda num_vars, bits: TruthTable(num_vars, bits),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2**16 - 1),
)


class TestConstruction:
    def test_constant(self):
        assert TruthTable.constant(False, 2).bits == 0
        assert TruthTable.constant(True, 2).bits == 0b1111

    def test_variable(self):
        table = TruthTable.variable(1, 3)
        assert [table.value_at(i) for i in range(8)] == [False, False, True, True, False, False, True, True]

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable.variable(3, 3)

    def test_from_bits_and_binary_string(self):
        nand = TruthTable.from_binary_string("0111")
        assert nand.num_vars == 2
        assert nand.to_bit_list() == [1, 1, 1, 0]
        assert TruthTable.from_bits([1, 1, 1, 0]) == nand

    def test_from_binary_string_validation(self):
        with pytest.raises(ValueError):
            TruthTable.from_binary_string("01x1")
        with pytest.raises(ValueError):
            TruthTable.from_bits([1, 0, 1])

    def test_from_function_and_hex(self):
        xor3 = TruthTable.from_function(lambda a, b, c: a ^ b ^ c, 3)
        assert xor3.to_hex() == "96"

    def test_num_vars_bounds(self):
        with pytest.raises(ValueError):
            TruthTable(-1, 0)
        with pytest.raises(ValueError):
            TruthTable(25, 0)

    def test_mask_applied_to_bits(self):
        table = TruthTable(1, 0b111111)
        assert table.bits == 0b11


class TestAccessors:
    def test_evaluate_matches_value_at(self):
        table = TruthTable.from_function(lambda a, b, c: (a and b) or c, 3)
        for assignment in range(8):
            inputs = [bool((assignment >> i) & 1) for i in range(3)]
            assert table.evaluate(inputs) == table.value_at(assignment)

    def test_evaluate_arity_check(self):
        with pytest.raises(ValueError):
            TruthTable.constant(True, 2).evaluate([True])

    def test_value_at_bounds(self):
        with pytest.raises(IndexError):
            TruthTable.constant(True, 2).value_at(4)

    def test_binary_string_roundtrip(self):
        table = TruthTable.from_function(lambda a, b: a and not b, 2)
        assert TruthTable.from_binary_string(table.to_binary_string()) == table

    def test_count_ones_and_is_constant(self):
        assert TruthTable.constant(True, 3).count_ones() == 8
        assert TruthTable.constant(True, 3).is_constant()
        assert not TruthTable.variable(0, 2).is_constant()


class TestAlgebra:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 255), st.integers(0, 255))
    def test_de_morgan(self, bits_a, bits_b):
        a, b = TruthTable(3, bits_a), TruthTable(3, bits_b)
        assert ~(a & b) == (~a) | (~b)
        assert ~(a | b) == (~a) & (~b)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 255))
    def test_double_negation_and_xor_self(self, bits):
        a = TruthTable(3, bits)
        assert ~~a == a
        assert (a ^ a) == TruthTable.constant(False, 3)

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            TruthTable.constant(True, 2) & TruthTable.constant(True, 3)


class TestStructuralOperations:
    def test_cofactor_and_depends_on(self):
        mux = TruthTable.from_function(lambda s, a, b: a if s else b, 3)
        assert mux.depends_on(0)
        positive = mux.cofactor(0, True)
        negative = mux.cofactor(0, False)
        assert positive == TruthTable.variable(1, 3)
        assert negative == TruthTable.variable(2, 3)

    def test_support_and_shrink(self):
        # Function ignoring input 1.
        table = TruthTable.from_function(lambda a, b, c: a and c, 3)
        assert table.support() == [0, 2]
        shrunk, kept = table.shrink_to_support()
        assert kept == [0, 2]
        assert shrunk == TruthTable.from_function(lambda a, c: a and c, 2)

    def test_permute_inputs(self):
        table = TruthTable.from_function(lambda a, b: a and not b, 2)
        swapped = table.permute_inputs([1, 0])
        assert swapped == TruthTable.from_function(lambda a, b: b and not a, 2)
        with pytest.raises(ValueError):
            table.permute_inputs([0, 0])

    def test_extend_places_inputs_at_positions(self):
        table = TruthTable.from_function(lambda a, b: a and not b, 2)
        spread = table.extend(4, [3, 1])
        assert spread == TruthTable.from_function(lambda w, x, y, z: z and not x, 4)
        with pytest.raises(ValueError):
            table.extend(4, [1, 1])
        with pytest.raises(ValueError):
            table.extend(4, [0, 4])

    def test_extend_preserves_function(self):
        table = TruthTable.from_function(lambda a, b: a ^ b, 2)
        extended = table.extend(4)
        for assignment in range(16):
            a, b = bool(assignment & 1), bool(assignment & 2)
            assert extended.value_at(assignment) == (a ^ b)
        with pytest.raises(ValueError):
            extended.extend(2)

    def test_compose(self):
        and2 = TruthTable.from_function(lambda a, b: a and b, 2)
        x0 = TruthTable.variable(0, 3)
        or12 = TruthTable.from_function(lambda a, b, c: b or c, 3)
        composed = and2.compose([x0, or12])
        expected = TruthTable.from_function(lambda a, b, c: a and (b or c), 3)
        assert composed == expected

    def test_compose_arity_checks(self):
        and2 = TruthTable.from_function(lambda a, b: a and b, 2)
        with pytest.raises(ValueError):
            and2.compose([TruthTable.variable(0, 2)])
        with pytest.raises(ValueError):
            and2.compose([TruthTable.variable(0, 2), TruthTable.variable(0, 3)])

    @settings(max_examples=60, deadline=None)
    @given(small_tables)
    def test_cofactor_shannon_expansion(self, table):
        """f == (x & f_x) | (!x & f_!x) for every input x."""
        for variable in range(table.num_vars):
            x = TruthTable.variable(variable, table.num_vars)
            positive = table.cofactor(variable, True)
            negative = table.cofactor(variable, False)
            assert (x & positive) | (~x & negative) == table


def _reference_permute(table, permutation):
    """Per-assignment reference: new input ``i`` reads old input ``permutation[i]``."""
    bits = 0
    for assignment in range(table.num_bits):
        source = 0
        for new_index, old_index in enumerate(permutation):
            if (assignment >> new_index) & 1:
                source |= 1 << old_index
        if table.value_at(source):
            bits |= 1 << assignment
    return TruthTable(table.num_vars, bits)


class TestWordLevelMatchesLoops:
    """The delta-swap permutation, projection and spreading agree with per-assignment loops."""

    @pytest.mark.parametrize("seed", range(30))
    def test_permute_inputs(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(0, 9)
        table = TruthTable(num_vars, rng.getrandbits(1 << num_vars))
        permutation = rng.sample(range(num_vars), num_vars)
        assert table.permute_inputs(permutation) == _reference_permute(table, permutation)

    @pytest.mark.parametrize("seed", range(30))
    def test_shrink_to_support(self, seed):
        rng = random.Random(seed)
        kept_vars = rng.randint(0, 6)
        num_vars = rng.randint(kept_vars, 9)
        positions = sorted(rng.sample(range(num_vars), kept_vars))
        inner = TruthTable(kept_vars, rng.getrandbits(1 << kept_vars))
        # A table that ignores every input outside ``positions``.
        bits = 0
        for assignment in range(1 << num_vars):
            source = sum(1 << index for index, position in enumerate(positions) if (assignment >> position) & 1)
            if inner.value_at(source):
                bits |= 1 << assignment
        table = TruthTable(num_vars, bits)
        shrunk, kept = table.shrink_to_support()
        assert kept == [variable for variable in range(num_vars) if table.depends_on(variable)]
        assert set(kept) <= set(positions)
        expected = 0
        for assignment in range(1 << len(kept)):
            source = sum(1 << old for new, old in enumerate(kept) if (assignment >> new) & 1)
            if table.value_at(source):
                expected |= 1 << assignment
        assert shrunk == TruthTable(len(kept), expected)

    @pytest.mark.parametrize("num_vars", range(1, 17))
    def test_variable_projection(self, num_vars):
        for index in range(num_vars):
            # Output bit of every assignment, most significant assignment first.
            expected = "".join(str((assignment >> index) & 1) for assignment in reversed(range(1 << num_vars)))
            assert TruthTable.variable(index, num_vars) == TruthTable(num_vars, int(expected, 2))

    def test_wide_extend_leaves_swap_mask_cache_at_16_inputs(self):
        from repro.truthtable import truth_table

        wide = TruthTable.variable(0, 1).extend(20, [19])
        assert wide == TruthTable(20, ((1 << (1 << 19)) - 1) << (1 << 19))  # input 19 is the top half
        rng = random.Random(20)
        positions = rng.sample(range(20), 5)
        table = TruthTable(5, rng.getrandbits(32))
        extended = table.extend(20, positions)
        for assignment in rng.sample(range(1 << 20), 200):
            own = [(assignment >> position) & 1 for position in positions]
            assert extended.value_at(assignment) == table.evaluate(own)
        assert len(truth_table._SWAP_MASKS) <= 15
        assert all(mask.bit_length() <= 1 << 16 for mask in truth_table._SWAP_MASKS)

    @pytest.mark.parametrize("seed", range(30))
    def test_extend_with_positions(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(0, 9)
        own_vars = rng.randint(0, num_vars)
        positions = rng.sample(range(num_vars), own_vars)
        table = TruthTable(own_vars, rng.getrandbits(1 << own_vars))
        expected = TruthTable.from_function(
            lambda *inputs: table.evaluate([inputs[position] for position in positions]), num_vars
        )
        assert table.extend(num_vars, positions) == expected
