"""Tests for truth-table gate constructors and STP bridging."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stp import is_logic_matrix
from repro.truthtable import (
    TruthTable,
    stp_form_to_truth_table,
    truth_table_to_stp_form,
    truth_table_to_structural_matrix,
    tt_and,
    tt_majority,
    tt_mux,
    tt_nand,
    tt_nor,
    tt_not,
    tt_or,
    tt_xor,
)


class TestGateConstructors:
    def test_standard_gates(self):
        assert tt_and().to_bit_list() == [0, 0, 0, 1]
        assert tt_or().to_bit_list() == [0, 1, 1, 1]
        assert tt_xor().to_bit_list() == [0, 1, 1, 0]
        assert tt_nand() == ~tt_and()
        assert tt_nor() == ~tt_or()
        assert tt_not().to_bit_list() == [1, 0]

    def test_wide_gates(self):
        assert tt_and(3).count_ones() == 1
        assert tt_or(4).count_ones() == 15
        assert tt_xor(3) == TruthTable.from_function(lambda a, b, c: a ^ b ^ c, 3)

    def test_majority_requires_odd(self):
        with pytest.raises(ValueError):
            tt_majority(4)
        assert tt_majority(3).count_ones() == 4

    def test_mux(self):
        mux = tt_mux()
        for s in (0, 1):
            for a in (0, 1):
                for b in (0, 1):
                    assert mux.evaluate([s, a, b]) == bool(a if s else b)


class TestStpBridge:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**16 - 1))
    def test_structural_matrix_columns(self, num_vars, bits):
        table = TruthTable(num_vars, bits)
        matrix = truth_table_to_structural_matrix(table)
        assert is_logic_matrix(matrix)
        # Column 0 is the all-True assignment, so assignment a is column
        # 2^n - 1 - a, and row 0 holds the output True.
        columns = matrix.shape[1]
        assert columns == 1 << num_vars
        for assignment in range(columns):
            assert matrix[0, columns - 1 - assignment] == table.value_at(assignment)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=255))
    def test_stp_form_roundtrip(self, num_vars, bits):
        table = TruthTable(num_vars, bits)
        form = truth_table_to_stp_form(table)
        assert stp_form_to_truth_table(form) == table

    def test_stp_form_respects_variable_names(self):
        table = TruthTable.from_function(lambda a, b: a and not b, 2)
        form = truth_table_to_stp_form(table, ["p", "q"])
        assert form.variables == ("p", "q")
        from repro.stp import evaluate_form

        assert evaluate_form(form, {"p": True, "q": False}) is True
        assert evaluate_form(form, {"p": False, "q": True}) is False

    def test_stp_form_name_count_checked(self):
        with pytest.raises(ValueError):
            truth_table_to_stp_form(tt_and(), ["only_one"])

