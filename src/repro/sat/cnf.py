"""CNF formulas.

Literals follow the DIMACS convention: variables are positive integers,
a negative integer denotes the negation of the corresponding variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = ["CnfFormula"]


@dataclass
class CnfFormula:
    """A CNF formula: a conjunction of clauses over ``num_vars`` variables."""

    num_vars: int = 0
    clauses: list[list[int]] = field(default_factory=list)

    def new_variable(self) -> int:
        """Allocate a fresh variable and return its index."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, clause: Iterable[int]) -> None:
        """Add one clause; literals must reference existing variables."""
        clause_list = list(clause)
        if not clause_list:
            # An empty clause makes the formula trivially unsatisfiable;
            # store it so solvers can report that immediately.
            self.clauses.append([])
            return
        for literal in clause_list:
            if literal == 0:
                raise ValueError("0 is not a valid DIMACS literal")
            if abs(literal) > self.num_vars:
                self.num_vars = abs(literal)
        self.clauses.append(clause_list)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add several clauses."""
        for clause in clauses:
            self.add_clause(clause)

    @property
    def num_clauses(self) -> int:
        """Number of clauses."""
        return len(self.clauses)

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Evaluate the formula under a (complete) assignment."""
        for clause in self.clauses:
            satisfied = False
            for literal in clause:
                value = assignment.get(abs(literal))
                if value is None:
                    raise KeyError(f"assignment missing variable {abs(literal)}")
                if value == (literal > 0):
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True

    def copy(self) -> "CnfFormula":
        """Deep copy of the formula."""
        return CnfFormula(self.num_vars, [list(clause) for clause in self.clauses])

    def __repr__(self) -> str:
        return f"CnfFormula(vars={self.num_vars}, clauses={len(self.clauses)})"
