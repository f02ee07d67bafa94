"""Boolean satisfiability: CNF utilities, DPLL and CDCL solvers, circuit front-end.

SAT-sweeping needs an incremental SAT solver with assumptions, conflict
limits (for the "unDET" outcome of Algorithm 2) and counter-example
extraction.  The package provides a complete CDCL implementation (watched
literals, VSIDS, phase saving, Luby restarts, first-UIP learning, clause
database reduction), a small DPLL solver used as a cross-check oracle, and
:class:`~repro.sat.circuit.CircuitSolver`, the circuit-level
equivalence-query interface the sweepers use, which Tseitin-encodes each
queried cone lazily.
"""

from .cnf import CnfFormula
from .dpll import DpllSolver, dpll_solve
from .cdcl import CdclSolver, SolverResult, SolverStatistics
from .circuit import CircuitSolver, EquivalenceOutcome, EquivalenceStatus

__all__ = [
    "CnfFormula",
    "DpllSolver",
    "dpll_solve",
    "CdclSolver",
    "SolverResult",
    "SolverStatistics",
    "CircuitSolver",
    "EquivalenceOutcome",
    "EquivalenceStatus",
]
