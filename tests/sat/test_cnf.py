"""Tests for CNF formulas."""

import pytest

from repro.sat import CnfFormula


class TestFormula:
    def test_add_clause_grows_variables(self):
        formula = CnfFormula()
        formula.add_clause([1, -5])
        assert formula.num_vars == 5
        assert formula.num_clauses == 1

    def test_new_variable(self):
        formula = CnfFormula()
        assert formula.new_variable() == 1
        assert formula.new_variable() == 2

    def test_zero_literal_rejected(self):
        formula = CnfFormula()
        with pytest.raises(ValueError):
            formula.add_clause([1, 0])

    def test_empty_clause_recorded(self):
        formula = CnfFormula()
        formula.add_clause([])
        assert [] in formula.clauses

    def test_evaluate(self):
        formula = CnfFormula()
        formula.add_clauses([[1, 2], [-1, 3]])
        assert formula.evaluate({1: True, 2: False, 3: True})
        assert not formula.evaluate({1: True, 2: False, 3: False})
        with pytest.raises(KeyError):
            formula.evaluate({1: True})

    def test_copy_is_deep(self):
        formula = CnfFormula()
        formula.add_clause([1, 2])
        copy = formula.copy()
        copy.add_clause([3])
        copy.clauses[0].append(4)
        assert formula.num_clauses == 1
        assert formula.clauses[0] == [1, 2]

