"""Assumption interface and unsat-core extraction of the CDCL solver.

The incremental sweepers drive every query through ``solve(assumptions=
[activation_literal])``, so these tests pin down the contract the window
mode relies on: assumptions hold for one call only, an UNSAT answer
under assumptions comes with a core that is itself sufficient, and the
solver stays fully reusable -- clause database and all -- after any mix
of SAT/UNSAT/UNKNOWN answers.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import CdclSolver, CnfFormula, SolverResult, dpll_solve


def _random_formula(num_vars: int, num_clauses: int, seed: int, max_width: int = 3) -> CnfFormula:
    rng = random.Random(seed)
    formula = CnfFormula(num_vars)
    for _ in range(num_clauses):
        width = rng.randint(1, max_width)
        variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        formula.add_clause([v if rng.random() < 0.5 else -v for v in variables])
    return formula


class TestAssumptions:
    def test_assumptions_constrain_one_call_only(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]) is SolverResult.SATISFIABLE
        assert solver.model()[2] is True
        # The next call is unconstrained again: assuming the opposite works.
        assert solver.solve(assumptions=[1, -2]) is SolverResult.SATISFIABLE
        assert solver.model()[1] is True

    def test_model_respects_assumptions(self):
        solver = CdclSolver()
        solver.add_clause([1, 2, 3])
        assert solver.solve(assumptions=[-1, -2]) is SolverResult.SATISFIABLE
        model = solver.model()
        assert model[1] is False and model[2] is False and model[3] is True

    def test_unsat_under_assumptions_sat_without(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        assert solver.solve(assumptions=[-2]) is SolverResult.UNSATISFIABLE
        assert solver.solve() is SolverResult.SATISFIABLE

    def test_contradictory_assumptions(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[3, -3]) is SolverResult.UNSATISFIABLE
        core = solver.unsat_core()
        assert set(core) <= {3, -3} and core

    def test_assumption_against_unit_clause(self):
        solver = CdclSolver()
        solver.add_clause([5])
        assert solver.solve(assumptions=[-5]) is SolverResult.UNSATISFIABLE
        assert solver.unsat_core() == (-5,)
        assert solver.solve() is SolverResult.SATISFIABLE

    def test_core_is_subset_and_sufficient(self):
        # x1 and x2 together force a conflict; x3 is irrelevant padding.
        solver = CdclSolver()
        solver.add_clause([-1, -2])
        solver.add_clause([3, 4])
        assumptions = [1, 2, 3]
        assert solver.solve(assumptions=assumptions) is SolverResult.UNSATISFIABLE
        core = solver.unsat_core()
        assert set(core) <= set(assumptions)
        # The core alone must reproduce the UNSAT answer.
        assert solver.solve(assumptions=list(core)) is SolverResult.UNSATISFIABLE
        # And dropping it restores satisfiability.
        assert solver.solve(assumptions=[3]) is SolverResult.SATISFIABLE

    def test_core_empty_when_formula_unsat_outright(self):
        solver = CdclSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve(assumptions=[2]) is SolverResult.UNSATISFIABLE
        assert solver.unsat_core() == ()

    def test_core_cleared_on_satisfiable_answer(self):
        solver = CdclSolver()
        solver.add_clause([1])
        assert solver.solve(assumptions=[-1]) is SolverResult.UNSATISFIABLE
        assert solver.unsat_core()
        assert solver.solve(assumptions=[1]) is SolverResult.SATISFIABLE
        assert solver.unsat_core() == ()

    def test_activation_literal_pattern(self):
        """The sweepers' idiom: clauses guarded by a fresh activator."""
        solver = CdclSolver()
        solver.add_clause([1, 2])
        activator = solver.new_variable()
        # Guarded constraint: activator -> (x1 & -x2) is inconsistent
        # with a second guarded clause activator -> -x1.
        solver.add_clause([-activator, 1])
        solver.add_clause([-activator, -2])
        solver.add_clause([-activator, -1])
        assert solver.solve(assumptions=[activator]) is SolverResult.UNSATISFIABLE
        assert solver.unsat_core() == (activator,)
        # Deactivated, the guarded clauses are vacuous: still SAT, and
        # the solver can take new clauses afterwards (incrementality).
        assert solver.solve(assumptions=[-activator]) is SolverResult.SATISFIABLE
        solver.add_clause([2])
        assert solver.solve(assumptions=[-activator]) is SolverResult.SATISFIABLE
        assert solver.model()[2] is True

    def test_unknown_under_conflict_limit_keeps_solver_reusable(self):
        solver = CdclSolver()

        def var(i, j):
            return 4 * i + j + 1

        holes, pigeons = 4, 5
        for i in range(pigeons):
            solver.add_clause([var(i, j) for j in range(holes)])
        for j in range(holes):
            for i1 in range(pigeons):
                for i2 in range(i1 + 1, pigeons):
                    solver.add_clause([-var(i1, j), -var(i2, j)])
        extra = solver.new_variable()
        result = solver.solve(assumptions=[extra], conflict_limit=1)
        assert result in (SolverResult.UNKNOWN, SolverResult.UNSATISFIABLE)
        if result is SolverResult.UNKNOWN:
            assert solver.unsat_core() == ()
        # The give-up left the trail rewound: a decided answer follows.
        assert solver.solve(assumptions=[extra]) is SolverResult.UNSATISFIABLE
        assert extra not in solver.unsat_core()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_assumed_solve_agrees_with_units_added(self, seed):
        """solve(assumptions=A) must answer exactly like solving F + units(A)."""
        rng = random.Random(seed)
        formula = _random_formula(num_vars=10, num_clauses=30, seed=seed)
        assumptions = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 11), 3)]

        reference = CnfFormula(formula.num_vars)
        for clause in formula.clauses:
            reference.add_clause(clause)
        for literal in assumptions:
            reference.add_clause([literal])
        expected_sat, _model = dpll_solve(reference)

        solver = CdclSolver(formula)
        result = solver.solve(assumptions=assumptions)
        assert result is (
            SolverResult.SATISFIABLE if expected_sat else SolverResult.UNSATISFIABLE
        )
        if result is SolverResult.SATISFIABLE:
            model = solver.model()
            assert formula.evaluate(model)
            assert all(model[abs(a)] is (a > 0) for a in assumptions)
        else:
            core = solver.unsat_core()
            assert set(core) <= set(assumptions)
            assert solver.solve(assumptions=list(core)) is SolverResult.UNSATISFIABLE
        # Incremental reuse after the assumed call: the bare formula's
        # answer is unaffected by anything the assumed call learned.
        bare_sat, _bare_model = dpll_solve(formula)
        assert solver.solve() is (
            SolverResult.SATISFIABLE if bare_sat else SolverResult.UNSATISFIABLE
        )


def _random_3cnf(num_vars: int, num_clauses: int, seed: int) -> list[list[int]]:
    """A fixed random 3-CNF below the phase transition."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


@pytest.mark.parametrize("mode", ["fresh-per-query", "persistent"])
def test_forced_literal_queries(mode):
    """80 queries "is ``-literal`` consistent?": one solver with activators, or one solver each."""
    clauses = _random_3cnf(num_vars=120, num_clauses=360, seed=11)
    rng = random.Random(17)
    queries = [rng.randint(1, 120) * (1 if rng.random() < 0.5 else -1) for _ in range(80)]
    answers = []
    if mode == "persistent":
        solver = CdclSolver()
        for _ in range(120):
            solver.new_variable()
        for clause in clauses:
            solver.add_clause(clause)
        for literal in queries:
            activator = solver.new_variable()
            solver.add_clause([-activator, -literal])
            result = solver.solve(assumptions=[activator])
            answers.append((result, solver.model() if result is SolverResult.SATISFIABLE else None))
            solver.add_clause([-activator])
    else:
        for literal in queries:
            solver = CdclSolver()
            for _ in range(120):
                solver.new_variable()
            for clause in clauses:
                solver.add_clause(clause)
            solver.add_clause([-literal])
            result = solver.solve()
            answers.append((result, solver.model() if result is SolverResult.SATISFIABLE else None))
    assert len(answers) == len(queries)
    for literal, (result, model) in zip(queries, answers):
        if result is SolverResult.SATISFIABLE:
            assert all(any(model[abs(l)] == (l > 0) for l in clause) for clause in clauses)
            assert model[abs(literal)] != (literal > 0), literal
        else:
            formula = CnfFormula(120)
            for clause in clauses + [[-literal]]:
                formula.add_clause(clause)
            assert result is SolverResult.UNSATISFIABLE
            assert dpll_solve(formula)[0] is False, literal


def test_repeated_cores_of_an_implication_chain():
    """Assuming both ends of ``1 -> 2 -> ... -> 60`` is UNSAT, and the core names exactly them."""
    solver = CdclSolver()
    for _ in range(60):
        solver.new_variable()
    for v in range(1, 60):
        solver.add_clause([-v, v + 1])
    for _ in range(200):
        assert solver.solve(assumptions=[1, -60]) is SolverResult.UNSATISFIABLE
        assert sorted(solver.unsat_core()) == [-60, 1]
    assert solver.solve(assumptions=[1]) is SolverResult.SATISFIABLE
    assert all(solver.model()[v] for v in range(1, 61))
