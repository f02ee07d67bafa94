"""Circuit-level SAT interface used by the SAT sweepers.

:class:`CircuitSolver` wraps one incremental CDCL solver around an AIG and
answers the two queries Algorithm 2 needs:

* ``prove_equivalence(a, b)`` -- are two literals functionally equivalent?
  (``unSAT`` of the miter), returning a counter-example pattern when not;
* ``prove_constant(a, value)`` -- is a literal stuck at a constant?

Cones are Tseitin-encoded lazily, one transitive fanin at a time, which
mirrors the "circuit-based SAT solver with direct access to the network"
of the paper [14]: the CNF only ever contains the logic relevant to the
queries asked so far.  A conflict limit turns an expensive query into the
``UNDETERMINED`` outcome ("unDET" in Algorithm 2).

Incremental-engine design
-------------------------

``_encode_cone`` performs a depth-first traversal from the query roots
that stops at already-encoded nodes, so each ``prove_equivalence`` /
``prove_constant`` call pays O(newly encoded cone) -- and every AND gate
of the network is handled at most once per solver window.  (The previous
implementation intersected a freshly computed full TFI set with a full
topological order on *every* query, i.e. O(N) per query and
O(queries x N) per sweep.)  Clause order does not matter to the CDCL
solver, so no topological sorting is needed.

A node is handled in one of two ways.  Usually it gets its three
Tseitin gate clauses and its fanins are visited.  With a
``function_class`` lookup (the STP sweeper's exhaustive tables), a node
whose function equals -- or complements -- that of a node encoded by an
*earlier* ``_encode_cone`` call instead gets the two binary clauses
``v <-> +-rep`` and its fanins are not visited: its cone is never
encoded (the equivalence reuse of Mishchenko, Chatterjee, Brayton and
Een, "Improvements to combinational equivalence checking", ICCAD 2006).
The "earlier call" rule keeps this exact: ``rep``'s cone is complete
when the lemma is added, so every encoded variable stays a function of
the PIs.  SAT/UNSAT answers are those of the plain encoding, and every
counter-example is genuine, though the model may differ.

The time spent inside the underlying CDCL solver is accumulated in
:attr:`CircuitSolver.sat_time`, giving sweepers a directly measured
"SAT time" statistic instead of the old ``total - simulation`` estimate.
"""

from __future__ import annotations

import time

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

from ..networks.aig import Aig
from ..resilience import BudgetExceeded
from .cdcl import CdclSolver, SolverResult, SolverStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..resilience import Budget

__all__ = ["CircuitSolver", "EquivalenceOutcome", "EquivalenceStatus"]

#: A node's exhaustive function: its structural PI support (sorted node
#: indices) and its truth table over that support.
FunctionTable = tuple[tuple[int, ...], int]


class EquivalenceStatus(Enum):
    """Outcome of an equivalence or constant query."""

    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class EquivalenceOutcome:
    """Query result: status plus a counter-example pattern when disproved."""

    status: EquivalenceStatus
    counterexample: tuple[int, ...] | None = None

    @property
    def is_equivalent(self) -> bool:
        """True when the query was proved (UNSAT miter)."""
        return self.status is EquivalenceStatus.EQUIVALENT


class CircuitSolver:
    """Incremental circuit SAT solver over one AIG."""

    def __init__(
        self,
        aig: Aig,
        conflict_limit: int | None = 10_000,
        budget: "Budget | None" = None,
        window_size: int | None = None,
        function_class: Callable[[int], FunctionTable | None] | None = None,
    ) -> None:
        self.aig = aig
        self.conflict_limit = conflict_limit
        #: Optional :class:`repro.resilience.Budget` threaded into every
        #: ``solve`` call: the shared conflict pool tightens per-query
        #: limits (an empty pool raises ``BudgetExceeded`` before the
        #: query starts) and the CDCL loop polls the deadline.  A query
        #: that gives up at its limit stays ``UNDETERMINED`` -- budget
        #: exhaustion is never reported as (not-)equivalence.
        self.budget = budget
        #: Persistent-solver window policy.  ``None`` keeps one CDCL
        #: instance (one *window*) alive for the solver's whole lifetime:
        #: cones stay encoded, learned clauses and proven equalities
        #: accumulate, and each proof's miter clauses are deactivated via
        #: their activation literal (and garbage-collected by the
        #: solver's level-0 simplification) rather than discarded with
        #: the solver.  A positive value retires the window after that
        #: many solver queries and starts a fresh one, bounding CNF and
        #: heuristic-state growth on very long sweeps; ``window_size=1``
        #: degenerates to the fresh-encode-per-query oracle (every query
        #: pays a cold solver), which the fuzz suite uses as the
        #: reference implementation.
        self.window_size = window_size
        #: Optional lookup of an AND node's exhaustive function
        #: (:data:`FunctionTable`), ``None`` for a node without one.  Two
        #: nodes whose tables are equal after normalising by the value at
        #: the all-zero input are one function class; see ``_encode_cone``.
        self.function_class = function_class
        self.solver = CdclSolver()
        self._variables: dict[int, int] = {}
        self._encoded: set[int] = set()
        # Normalised function class -> CNF literal of its encoded member.
        self._class_members: dict[FunctionTable, int] = {}
        #: Nodes whose cone was skipped because an encoded node of their
        #: function class stood in for it.
        self.num_key_lemmas = 0
        # Query counters, reported in Table II.
        self.num_queries = 0
        self.num_satisfiable = 0
        self.num_unsatisfiable = 0
        self.num_undetermined = 0
        #: Number of solver windows opened so far (>= 1).
        self.windows_opened = 1
        #: Solver queries answered by an already-warm window (the
        #: persistent-solver "hit rate" numerator).
        self.window_reuses = 0
        self._window_queries = 0
        self._solver_queries = 0
        self._retired_statistics = SolverStatistics()
        #: Wall-clock seconds spent inside the CDCL solver (directly
        #: measured around every ``solve`` call).
        self.sat_time = 0.0

    # ------------------------------------------------------------------
    # Window management
    # ------------------------------------------------------------------

    def _open_window(self) -> None:
        """Retire the current solver window and start a fresh one.

        The retired solver's statistics are folded into the aggregate
        before its clause database, cone encodings and variable map are
        dropped.
        """
        self._retired_statistics.accumulate(self.solver.statistics)
        self.solver = CdclSolver()
        self._variables = {}
        self._encoded = set()
        self._class_members = {}
        self.windows_opened += 1
        self._window_queries = 0

    def _begin_solver_query(self) -> None:
        """Window bookkeeping for one query that will touch the solver."""
        if self.window_size is not None and self._window_queries >= self.window_size:
            self._open_window()
        if self._window_queries > 0:
            self.window_reuses += 1
        self._window_queries += 1
        self._solver_queries += 1

    def invalidate(self) -> None:
        """Drop all cone encodings (assumption-invalidation for edits).

        Equivalence-preserving merges never need this: a stale encoding
        of a substituted-away node still models a function equal to its
        replacement's, so accumulated clauses stay sound and the sweepers
        keep one window across all their merges.  Any
        *non*-equivalence-preserving structural edit must invalidate,
        which retires the window -- clauses cannot be unasserted, only
        abandoned with their solver.
        """
        self._open_window()

    def solver_statistics(self) -> SolverStatistics:
        """Aggregated CDCL statistics across all windows (retired + live)."""
        total = SolverStatistics()
        total.accumulate(self._retired_statistics)
        total.accumulate(self.solver.statistics)
        return total

    @property
    def window_reuse_rate(self) -> float:
        """Fraction of solver queries served by an already-warm window."""
        if self._solver_queries == 0:
            return 0.0
        return self.window_reuses / self._solver_queries

    # ------------------------------------------------------------------
    # Lazy cone encoding
    # ------------------------------------------------------------------

    def _variable_of(self, node: int) -> int:
        if node not in self._variables:
            self._variables[node] = self.solver.new_variable()
            if self.aig.is_constant(node):
                self.solver.add_clause([-self._variables[node]])
        return self._variables[node]

    def _cnf_literal(self, aig_literal: int) -> int:
        variable = self._variable_of(Aig.node_of(aig_literal))
        return -variable if Aig.is_complemented(aig_literal) else variable

    def _encode_cone(self, roots: Sequence[int]) -> None:
        """Add gate clauses for every not-yet-encoded AND node in the cones.

        Iterative DFS from the roots, pruned at nodes already encoded (and
        at PIs/the constant): O(newly encoded cone) per call instead of a
        full-network TFI-and-topological-order scan.  With a
        ``function_class`` lookup, a node whose class has a member from an
        earlier call is tied to it by two clauses and its fanins are not
        pushed; each newly gate-encoded node then becomes its class's
        member or is tied to the member.
        """
        aig = self.aig
        encoded = self._encoded
        variables = self._variables
        solver = self.solver
        add_clause = solver.add_clause_trusted
        new_variable = solver.new_variable
        is_and = aig.is_and
        fanins = aig.fanins
        lookup = self.function_class
        members = self._class_members
        # (class, literal of the normalised function) of each node this call gate-encodes.
        fresh: list[tuple[FunctionTable, int]] = []
        stack = [root for root in roots if root not in encoded]
        while stack:
            node = stack.pop()
            if node in encoded or not is_and(node):
                continue
            encoded.add(node)
            variable = variables.get(node)
            if variable is None:
                variable = variables[node] = new_variable()
            if lookup is not None:
                table = lookup(node)
                if table is not None:
                    support, bits = table
                    literal = variable
                    if bits & 1:
                        bits ^= (1 << (1 << len(support))) - 1
                        literal = -variable
                    function = (support, bits)
                    member = members.get(function)
                    if member is not None:
                        # literal <-> member, i.e. v <-> +-rep.
                        add_clause((-literal, member))
                        add_clause((literal, -member))
                        self.num_key_lemmas += 1
                        continue
                    fresh.append((function, literal))
            fanin0, fanin1 = fanins(node)
            node0 = fanin0 >> 1
            node1 = fanin1 >> 1
            variable0 = variables.get(node0)
            if variable0 is None:
                variable0 = variables[node0] = new_variable()
                if node0 == 0:
                    add_clause((-variable0,))
            variable1 = variables.get(node1)
            if variable1 is None:
                variable1 = variables[node1] = new_variable()
                if node1 == 0:
                    add_clause((-variable1,))
            literal0 = -variable0 if fanin0 & 1 else variable0
            literal1 = -variable1 if fanin1 & 1 else variable1
            add_clause((-variable, literal0))
            add_clause((-variable, literal1))
            add_clause((variable, -literal0, -literal1))
            if node0 not in encoded:
                stack.append(node0)
            if node1 not in encoded:
                stack.append(node1)
        # Members join only now, once their cones are complete.
        for function, literal in fresh:
            member = members.setdefault(function, literal)
            if member != literal:
                add_clause((-literal, member))
                add_clause((literal, -member))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def prove_equivalence(
        self,
        literal_a: int,
        literal_b: int,
        conflict_limit: int | None = None,
    ) -> EquivalenceOutcome:
        """Decide whether two AIG literals are functionally equivalent.

        The solver is asked for an input pattern on which the two literals
        differ (an XOR miter activated by an assumption); ``UNSAT`` proves
        the equivalence, ``SAT`` yields a counter-example pattern, and
        exceeding the conflict limit yields ``UNDETERMINED``.
        """
        self.num_queries += 1
        if literal_a == literal_b:
            self.num_unsatisfiable += 1
            return EquivalenceOutcome(EquivalenceStatus.EQUIVALENT)
        if literal_a == Aig.negate(literal_b):
            self.num_satisfiable += 1
            return EquivalenceOutcome(EquivalenceStatus.NOT_EQUIVALENT, self._arbitrary_pattern())
        if self._structurally_identical(literal_a, literal_b):
            # Earlier merges made the two gates share the same fanin
            # literals: they are equivalent by structure, no SAT needed.
            self.num_unsatisfiable += 1
            return EquivalenceOutcome(EquivalenceStatus.EQUIVALENT)
        self._begin_solver_query()
        self._encode_cone([Aig.node_of(literal_a), Aig.node_of(literal_b)])
        cnf_a = self._cnf_literal(literal_a)
        cnf_b = self._cnf_literal(literal_b)
        activator = self.solver.new_variable()
        # activator -> (a xor b)
        self.solver.add_clause([-activator, cnf_a, cnf_b])
        self.solver.add_clause([-activator, -cnf_a, -cnf_b])
        limit = conflict_limit if conflict_limit is not None else self.conflict_limit
        solve_start = time.perf_counter()
        try:
            result = self.solver.solve(
                assumptions=[activator], conflict_limit=limit, budget=self.budget
            )
        except BudgetExceeded:
            # Budget abort mid-query: permanently deactivate the miter
            # clauses so the solver instance stays reusable, then let the
            # typed error propagate -- the query is neither proved nor
            # disproved.
            self.num_undetermined += 1
            self.solver.add_clause([-activator])
            raise
        finally:
            self.sat_time += time.perf_counter() - solve_start
        if result is SolverResult.UNSATISFIABLE:
            self.num_unsatisfiable += 1
            # Deactivate the miter clauses and record the proven equality,
            # which strengthens later queries.
            self.solver.add_clause([-activator])
            self.solver.add_clause([-cnf_a, cnf_b])
            self.solver.add_clause([cnf_a, -cnf_b])
            return EquivalenceOutcome(EquivalenceStatus.EQUIVALENT)
        if result is SolverResult.SATISFIABLE:
            self.num_satisfiable += 1
            pattern = self._counterexample_from_model()
            self.solver.add_clause([-activator])
            return EquivalenceOutcome(EquivalenceStatus.NOT_EQUIVALENT, pattern)
        self.num_undetermined += 1
        self.solver.add_clause([-activator])
        return EquivalenceOutcome(EquivalenceStatus.UNDETERMINED)

    def prove_constant(
        self,
        literal: int,
        value: bool,
        conflict_limit: int | None = None,
    ) -> EquivalenceOutcome:
        """Decide whether an AIG literal is constantly ``value``."""
        self.num_queries += 1
        self._begin_solver_query()
        self._encode_cone([Aig.node_of(literal)])
        cnf_literal = self._cnf_literal(literal)
        # Ask for a pattern where the literal takes the *other* value.
        assumption = -cnf_literal if value else cnf_literal
        limit = conflict_limit if conflict_limit is not None else self.conflict_limit
        solve_start = time.perf_counter()
        try:
            result = self.solver.solve(
                assumptions=[assumption], conflict_limit=limit, budget=self.budget
            )
        finally:
            self.sat_time += time.perf_counter() - solve_start
        if result is SolverResult.UNSATISFIABLE:
            self.num_unsatisfiable += 1
            self.solver.add_clause([cnf_literal if value else -cnf_literal])
            return EquivalenceOutcome(EquivalenceStatus.EQUIVALENT)
        if result is SolverResult.SATISFIABLE:
            self.num_satisfiable += 1
            return EquivalenceOutcome(EquivalenceStatus.NOT_EQUIVALENT, self._counterexample_from_model())
        self.num_undetermined += 1
        return EquivalenceOutcome(EquivalenceStatus.UNDETERMINED)

    def _structurally_identical(self, literal_a: int, literal_b: int) -> bool:
        """True when both literals denote AND gates with identical fanins.

        During a sweep, merging the fanins of two functionally equivalent
        gates often leaves the gates themselves with the very same fanin
        literals; this O(1) check proves such pairs without a SAT call.
        """
        if (literal_a ^ literal_b) & 1:
            return False
        aig = self.aig
        node_a = literal_a >> 1
        node_b = literal_b >> 1
        if not aig.is_and(node_a) or not aig.is_and(node_b):
            return False
        fanin_a0, fanin_a1 = aig.fanins(node_a)
        fanin_b0, fanin_b1 = aig.fanins(node_b)
        if fanin_a0 > fanin_a1:
            fanin_a0, fanin_a1 = fanin_a1, fanin_a0
        if fanin_b0 > fanin_b1:
            fanin_b0, fanin_b1 = fanin_b1, fanin_b0
        return fanin_a0 == fanin_b0 and fanin_a1 == fanin_b1

    # ------------------------------------------------------------------
    # Counter-example extraction
    # ------------------------------------------------------------------

    def _counterexample_from_model(self) -> tuple[int, ...]:
        """PI assignment from the last model (unconstrained PIs default to 0)."""
        pattern = []
        for pi in self.aig.pis:
            variable = self._variables.get(pi)
            pattern.append(int(self.solver.value(variable)) if variable is not None else 0)
        return tuple(pattern)

    def _arbitrary_pattern(self) -> tuple[int, ...]:
        return tuple(0 for _ in range(self.aig.num_pis))

    @property
    def total_sat_calls(self) -> int:
        """Total number of SAT queries issued so far."""
        return self.num_queries

    def __repr__(self) -> str:
        return (
            f"CircuitSolver(queries={self.num_queries}, sat={self.num_satisfiable}, "
            f"unsat={self.num_unsatisfiable}, undet={self.num_undetermined})"
        )
