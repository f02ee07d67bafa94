"""An incremental, assumption-based CDCL SAT solver on a flat clause arena.

Implements the standard conflict-driven clause-learning loop used by
modern SAT engines: two-watched-literal propagation with blocker
literals, first-UIP conflict analysis with recursive clause
minimisation, VSIDS branching with phase saving, Luby-sequence restarts
and LBD-aware learned-clause deletion.  The solver is incremental in
both directions: clauses can be added between calls, and
``solve(assumptions=[...])`` decides the formula under a set of
assumption literals without touching the clause database -- the
foundation of the circuit layer's persistent per-window solving
(activation literals guard miter clauses; deactivated miters are
garbage-collected here).  After an UNSAT-under-assumptions answer,
:meth:`CdclSolver.unsat_core` reports the subset of assumptions the
final conflict actually used.

Data layout (modelled on memory-conscious solver microarchitectures)
--------------------------------------------------------------------

* **Coded literals.**  Internally a literal is ``2 * var + sign`` so
  every per-literal table is a flat list indexed by the literal itself
  -- no ``abs()``/sign branching in the hot loops.  The public API
  (``add_clause``, ``solve``, ``model``, ``unsat_core``) speaks DIMACS.
* **Clause arena.**  All clauses of three or more literals live in one
  flat integer list: ``[size, flags, lit0, lit1, ...]`` per clause, a
  clause reference is the index of its header word.  ``flags`` packs
  the learned bit, the deleted bit and the clause's LBD.  Learned-
  clause deletion marks clauses dead; a compaction pass rebuilds the
  arena, remaps the reason references and reattaches the watches.
* **Inline binary clauses.**  Two-literal clauses never enter the
  arena: they live directly in per-literal implication lists
  (``_bwatches[lit]`` holds the literals implied when ``lit`` becomes
  true) and their reasons are encoded as a tagged integer, so binary
  propagation is a single value check with no watch-list surgery.
* **Blocker literals.**  Long-clause watch lists are flat
  ``[ref, blocker, ref, blocker, ...]`` lists; a watcher whose blocker
  is already true is skipped without touching the arena at all, which
  is the common case on the clause-rich CNFs incremental sweeping
  accumulates.
* **Level-0 simplification.**  Between calls the solver drops clauses
  satisfied at decision level 0 and strips falsified literals
  (:meth:`CdclSolver.simplify`, self-scheduled from :meth:`solve`).
  This is what keeps thousands of *deactivated* miter clauses from
  congesting the watch lists over a long sweep window.

Branching pops from a lazy max-heap over variable activities (stale
entries are skipped on pop, unassigned variables are re-pushed on
backtrack); the decision order (activity maximum, lowest variable index
on ties) is identical to a linear scan.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

from .cnf import CnfFormula

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..resilience import Budget

__all__ = ["CdclSolver", "SolverResult", "SolverStatistics"]


class SolverResult(Enum):
    """Outcome of a solver call."""

    SATISFIABLE = "sat"
    UNSATISFIABLE = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStatistics:
    """Counters accumulated across all calls of one solver instance."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    solve_calls: int = 0
    #: Arena compactions (learned-clause reduction or level-0 simplify).
    gc_runs: int = 0
    #: Clauses dropped because they were satisfied at decision level 0
    #: (deactivated miters, subsumed originals).
    collected_clauses: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dictionary view (handy for reporting)."""
        return {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "restarts": self.restarts,
            "learned_clauses": self.learned_clauses,
            "deleted_clauses": self.deleted_clauses,
            "solve_calls": self.solve_calls,
            "gc_runs": self.gc_runs,
            "collected_clauses": self.collected_clauses,
        }

    def accumulate(self, other: "SolverStatistics") -> None:
        """Fold another statistics record into this one (window rollover)."""
        self.decisions += other.decisions
        self.propagations += other.propagations
        self.conflicts += other.conflicts
        self.restarts += other.restarts
        self.learned_clauses += other.learned_clauses
        self.deleted_clauses += other.deleted_clauses
        self.solve_calls += other.solve_calls
        self.gc_runs += other.gc_runs
        self.collected_clauses += other.collected_clauses


_UNDEF = -1
_REASON_NONE = -1

# Arena clause flags word: bit 0 = learned, bit 1 = deleted, bits 2+ = LBD.
_FLAG_LEARNED = 1
_FLAG_DELETED = 2
_LBD_SHIFT = 2
_LBD_CAP = 1023


def _decode(coded: int) -> int:
    """Coded literal -> DIMACS literal."""
    return -(coded >> 1) if coded & 1 else (coded >> 1)


class CdclSolver:
    """Conflict-driven clause-learning SAT solver over DIMACS literals."""

    def __init__(self, formula: CnfFormula | None = None) -> None:
        self.num_vars = 0
        # Flat clause arena: [size, flags, lit...] per clause of >= 3 literals.
        self._arena: list[int] = []
        # Long-clause watch lists, indexed by the *trail* literal (the
        # assignment that falsifies the watched literal): flat
        # [ref, blocker, ...] pairs.  Entries 0/1 are padding (literals
        # are coded 2 * var + sign with var >= 1).
        self._watches: list[list[int]] = [[], []]
        # Binary implication lists: _bwatches[lit] holds the literals
        # implied when lit is assigned true.
        self._bwatches: list[list[int]] = [[], []]
        # Registry of binary clauses (flat literal pairs) for rebuilds.
        self._binaries: list[int] = []
        # Assignment state.  _values is indexed by *coded literal*
        # (1 true, 0 false, -1 unassigned; both polarities maintained),
        # the rest by variable.
        self._values: list[int] = [_UNDEF, _UNDEF]
        self._levels: list[int] = [0]
        self._reasons: list[int] = [_REASON_NONE]
        # Saved phase per variable as the coded sign bit (1 = negative).
        self._saved: list[int] = [1]
        # Variables whose saved phase left the default, so the per-solve
        # phase reset costs O(assignments of the previous call) instead
        # of O(variables) -- the latter dominates on large persistent
        # instances answering many small queries.
        self._phase_dirty: list[int] = []
        self._activity: list[float] = [0.0]
        self._trail: list[int] = []
        self._trail_limits: list[int] = []
        self._propagation_head = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._clause_inc = 1.0
        self._clause_decay = 0.999
        self._clause_act: dict[int, float] = {}
        self._ok = True
        # Lazy VSIDS heap of (-activity, variable); stale entries (assigned
        # variables or outdated activities) are skipped on pop.
        self._order_heap: list[tuple[float, int]] = []
        # _heap_key[v] is the activity key of a heap entry guaranteed to be
        # present for v, or None when no current entry exists.
        self._heap_key: list[float | None] = [None]
        # Stamp array replacing the per-conflict "seen" set of analysis.
        self._seen_stamp: list[int] = [0]
        self._stamp = 0
        self._num_learned = 0
        # Failed-assumption core of the last UNSAT-under-assumptions call.
        self._core: tuple[int, ...] = ()
        # Simplify scheduling: level-0 facts seen at the last simplify and
        # the arena size after it.
        self._simplified_facts = 0
        self._simplified_arena = 0
        self.statistics = SolverStatistics()
        if formula is not None:
            for _ in range(formula.num_vars):
                self.new_variable()
            for clause in formula.clauses:
                self.add_clause(clause)

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def new_variable(self) -> int:
        """Allocate a fresh variable; returns its (positive) DIMACS index."""
        self.num_vars += 1
        self._values.append(_UNDEF)
        self._values.append(_UNDEF)
        self._watches.append([])
        self._watches.append([])
        self._bwatches.append([])
        self._bwatches.append([])
        self._levels.append(0)
        self._reasons.append(_REASON_NONE)
        self._saved.append(1)
        self._activity.append(0.0)
        self._seen_stamp.append(0)
        heapq.heappush(self._order_heap, (0.0, self.num_vars))
        self._heap_key.append(0.0)
        return self.num_vars

    def _ensure_variable(self, variable: int) -> None:
        while self.num_vars < variable:
            self.new_variable()

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns ``False`` if the formula became trivially UNSAT."""
        if self._trail_limits:
            # Incremental use: new clauses are always added at decision level 0.
            self._backtrack(0)
        clause = sorted(set(literals), key=abs)
        if not clause:
            self._ok = False
            return False
        for literal in clause:
            if literal == 0:
                raise ValueError("0 is not a valid literal")
            self._ensure_variable(abs(literal))
        # Tautology check (duplicates are gone, so x/-x are adjacent).
        for a, b in zip(clause, clause[1:]):
            if a == -b:
                return True
        if not self._ok:
            return False
        # Drop literals already false at level 0; detect satisfied clauses.
        values = self._values
        reduced: list[int] = []
        for literal in clause:
            lit = (literal << 1) if literal > 0 else ((-literal) << 1) | 1
            value = values[lit]
            if value == 1:
                return True
            if value == 0:
                continue
            reduced.append(lit)
        return self._install_reduced(reduced)

    def add_clause_trusted(self, literals: Sequence[int]) -> bool:
        """Like :meth:`add_clause` for pre-validated clauses.

        Callers guarantee the literals are non-zero, reference existing
        variables and contain no duplicate *variable* in conflicting
        need of normalisation that the solver cannot tolerate (duplicate
        and complementary literal pairs are handled soundly by the
        propagation loop, just not simplified away).  Level-0
        simplification still applies.  This is the circuit layer's
        Tseitin fast path: it skips the sorting, deduplication and
        variable-allocation work of :meth:`add_clause`, which dominates
        cone-encoding time.
        """
        if self._trail_limits:
            self._backtrack(0)
        if not self._ok:
            return False
        values = self._values
        reduced: list[int] = []
        for literal in literals:
            lit = (literal << 1) if literal > 0 else ((-literal) << 1) | 1
            value = values[lit]
            if value == 1:
                return True
            if value == 0:
                continue
            reduced.append(lit)
        return self._install_reduced(reduced)

    def _install_reduced(self, reduced: list[int]) -> bool:
        """Attach a level-0-simplified coded clause to the database."""
        if not reduced:
            self._ok = False
            return False
        if len(reduced) == 1:
            if not self._enqueue(reduced[0], _REASON_NONE):
                self._ok = False
                return False
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        if len(reduced) == 2:
            self._attach_binary(reduced[0], reduced[1])
            return True
        self._store_clause(reduced, learned=False, lbd=0)
        return True

    def _attach_binary(self, a: int, b: int) -> None:
        self._bwatches[a ^ 1].append(b)
        self._bwatches[b ^ 1].append(a)
        self._binaries.append(a)
        self._binaries.append(b)

    def _store_clause(self, coded: list[int], learned: bool, lbd: int) -> int:
        arena = self._arena
        ref = len(arena)
        arena.append(len(coded))
        flags = _FLAG_LEARNED if learned else 0
        arena.append(flags | (min(lbd, _LBD_CAP) << _LBD_SHIFT))
        arena.extend(coded)
        watches = self._watches
        first, second = coded[0], coded[1]
        watch = watches[first ^ 1]
        watch.append(ref)
        watch.append(second)
        watch = watches[second ^ 1]
        watch.append(ref)
        watch.append(first)
        return ref

    # ------------------------------------------------------------------
    # Public solving interface
    # ------------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
        budget: "Budget | None" = None,
    ) -> SolverResult:
        """Run the CDCL loop.

        ``assumptions`` are DIMACS literals assumed true for this call
        only; the clause database, learned clauses and heuristic state
        persist across calls (the trail is rewound to decision level 0
        between calls).  When the result is
        :attr:`SolverResult.UNSATISFIABLE` and assumptions were given,
        :meth:`unsat_core` reports the subset of assumptions the final
        conflict used.  When ``conflict_limit`` conflicts are exceeded
        the solver gives up and returns :attr:`SolverResult.UNKNOWN` --
        distinct from :attr:`SolverResult.UNSATISFIABLE`, which is only
        ever a proof.

        ``budget`` (:class:`repro.resilience.Budget`) makes the conflict
        loop deadline-aware: the deadline is polled at every conflict
        and every 128 decisions, raising
        :class:`~repro.resilience.BudgetExceeded` (after backtracking to
        level 0, so the solver stays reusable).  The budget's shared
        conflict pool tightens the effective conflict limit, and the
        conflicts this call consumed are charged back to the pool on
        every exit path.

        Saved phases are reset to the default polarity at every call so
        the model found for a satisfiable query does not depend on the
        order of the queries that preceded it (phase saving still works
        where it pays off: across restarts and backtracks *within* one
        call).  Incremental sweeps rely on this for reproducible
        counterexamples -- a persistent solver and a fresh-encode oracle
        walk bit-identical refinement paths.
        """
        self.statistics.solve_calls += 1
        self._core = ()
        if not self._ok:
            return SolverResult.UNSATISFIABLE
        saved = self._saved
        for variable in self._phase_dirty:
            saved[variable] = 1
        self._phase_dirty.clear()
        if budget is not None:
            budget.checkpoint("cdcl")
            conflict_limit = budget.conflict_allowance(conflict_limit, "cdcl")
        conflicts_at_start = self.statistics.conflicts
        try:
            return self._solve_loop(assumptions, conflict_limit, budget)
        finally:
            if budget is not None:
                budget.spend_conflicts(self.statistics.conflicts - conflicts_at_start)

    def unsat_core(self) -> tuple[int, ...]:
        """Assumption subset responsible for the last UNSAT answer.

        Valid after :meth:`solve` returned
        :attr:`SolverResult.UNSATISFIABLE` for a call with assumptions:
        a subset of that call's assumption literals such that the
        formula is already unsatisfiable under them alone.  Empty when
        the formula is UNSAT outright (no assumptions needed) and after
        SATISFIABLE/UNKNOWN results.
        """
        return self._core

    def _solve_loop(
        self,
        assumptions: Sequence[int],
        conflict_limit: int | None,
        budget: "Budget | None",
    ) -> SolverResult:
        self._backtrack(0)
        self._maybe_simplify()
        if not self._ok:
            return SolverResult.UNSATISFIABLE
        if self._propagate() is not None:
            self._ok = False
            return SolverResult.UNSATISFIABLE

        for literal in assumptions:
            self._ensure_variable(abs(literal))
        coded_assumptions = [
            (literal << 1) if literal > 0 else ((-literal) << 1) | 1 for literal in assumptions
        ]
        num_assumptions = len(coded_assumptions)
        # Maps assumption variables back to the DIMACS literals of this
        # call, for final-conflict (unsat core) reporting.
        assumption_vars = {lit >> 1: _decode(lit) for lit in coded_assumptions}

        conflicts_at_start = self.statistics.conflicts
        decisions_since_poll = 0
        restart_cursor = 0
        restart_budget = 64 * _luby(restart_cursor + 1)
        conflicts_since_restart = 0
        max_learned = max(100, self._approx_clauses() // 2)
        values = self._values

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.statistics.conflicts += 1
                conflicts_since_restart += 1
                if not self._trail_limits:
                    self._ok = False
                    return SolverResult.UNSATISFIABLE
                if len(self._trail_limits) <= num_assumptions:
                    # Conflict inside the assumption levels: UNSAT under
                    # assumptions; derive the failed-assumption core.
                    self._core = self._analyze_final(conflict[0], assumption_vars)
                    self._backtrack(0)
                    return SolverResult.UNSATISFIABLE
                learned, backtrack_level, lbd = self._analyze(conflict[0], conflict[1])
                self._backtrack(max(backtrack_level, num_assumptions))
                self._attach_learned(learned, lbd)
                self._decay_activities()
                if conflict_limit is not None and self.statistics.conflicts - conflicts_at_start >= conflict_limit:
                    self._backtrack(0)
                    return SolverResult.UNKNOWN
                if budget is not None and budget.expired:
                    self._backtrack(0)
                    budget.checkpoint("cdcl")
                continue

            if conflicts_since_restart >= restart_budget and len(self._trail_limits) > num_assumptions:
                self.statistics.restarts += 1
                restart_cursor += 1
                restart_budget = 64 * _luby(restart_cursor + 1)
                conflicts_since_restart = 0
                self._backtrack(num_assumptions)
                continue

            if self._num_learned > max_learned:
                self._reduce_learned()
                max_learned = int(max_learned * 1.3)

            # Assumption decisions first.
            level = len(self._trail_limits)
            if level < num_assumptions:
                assumed = coded_assumptions[level]
                value = values[assumed]
                if value == 1:
                    self._trail_limits.append(len(self._trail))
                    continue
                if value == 0:
                    # The assumption is already falsified by the trail.
                    self._core = self._analyze_final_false(assumed, assumption_vars)
                    self._backtrack(0)
                    return SolverResult.UNSATISFIABLE
                self._trail_limits.append(len(self._trail))
                self._enqueue(assumed, _REASON_NONE)
                continue

            literal = self._pick_branch_literal()
            if literal is None:
                return SolverResult.SATISFIABLE
            self.statistics.decisions += 1
            decisions_since_poll += 1
            if budget is not None and decisions_since_poll >= 128:
                decisions_since_poll = 0
                if budget.expired:
                    self._backtrack(0)
                    budget.checkpoint("cdcl")
            self._trail_limits.append(len(self._trail))
            self._enqueue(literal, _REASON_NONE)

    def model(self) -> dict[int, bool]:
        """Model of the last SATISFIABLE call (unassigned variables are False)."""
        values = self._values
        return {
            variable: values[variable << 1] == 1
            for variable in range(1, self.num_vars + 1)
        }

    def value(self, variable: int) -> bool:
        """Value of one variable in the last model."""
        return self._values[variable << 1] == 1

    # ------------------------------------------------------------------
    # Assignment and propagation
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: int) -> bool:
        values = self._values
        value = values[lit]
        if value == 1:
            return True
        if value == 0:
            return False
        values[lit] = 1
        values[lit ^ 1] = 0
        variable = lit >> 1
        self._levels[variable] = len(self._trail_limits)
        self._reasons[variable] = reason
        sign = lit & 1
        self._saved[variable] = sign
        if not sign:
            self._phase_dirty.append(variable)
        self._trail.append(lit)
        return True

    def _propagate(self) -> tuple[list[int], int] | None:
        """Unit propagation.

        Returns ``None`` or a conflict as ``(literals, ref)`` where
        ``literals`` are the (coded) literals of the conflicting clause
        and ``ref`` its arena reference (``-1`` for binary clauses).
        Literal evaluation and assignment are inlined into the
        watch-list walk: this is the solver's hottest loop by a wide
        margin.
        """
        values = self._values
        levels = self._levels
        reasons = self._reasons
        saved = self._saved
        phase_dirty = self._phase_dirty
        trail = self._trail
        watches = self._watches
        bwatches = self._bwatches
        arena = self._arena
        head = self._propagation_head
        level = len(self._trail_limits)
        propagations = 0
        conflict: tuple[list[int], int] | None = None
        while head < len(trail):
            trail_lit = trail[head]
            head += 1
            propagations += 1
            neg_lit = trail_lit ^ 1
            # Binary implications first: a plain value check plus an
            # inline assignment, no watch-list maintenance at all.
            implications = bwatches[trail_lit]
            if implications:
                for implied in implications:
                    value = values[implied]
                    if value == 1:
                        continue
                    if value == 0:
                        conflict = ([implied, neg_lit], -1)
                        break
                    values[implied] = 1
                    values[implied ^ 1] = 0
                    variable = implied >> 1
                    levels[variable] = level
                    reasons[variable] = -neg_lit - 2
                    sign = implied & 1
                    saved[variable] = sign
                    if not sign:
                        phase_dirty.append(variable)
                    trail.append(implied)
                if conflict is not None:
                    break
            watch_list = watches[trail_lit]
            if not watch_list:
                continue
            i = 0
            n = len(watch_list)
            while i < n:
                ref = watch_list[i]
                blocker = watch_list[i + 1]
                if values[blocker] == 1:
                    # Blocker satisfied: the clause is true, don't touch it.
                    i += 2
                    continue
                base = ref + 2
                first = arena[base]
                if first == neg_lit:
                    # Keep the falsified watched literal at position 1.
                    first = arena[base + 1]
                    arena[base] = first
                    arena[base + 1] = neg_lit
                if values[first] == 1:
                    watch_list[i + 1] = first
                    i += 2
                    continue
                # Look for a replacement watch.
                end = base + arena[ref]
                k = base + 2
                moved = False
                while k < end:
                    other = arena[k]
                    if values[other] != 0:
                        arena[base + 1] = other
                        arena[k] = neg_lit
                        target = watches[other ^ 1]
                        target.append(ref)
                        target.append(first)
                        moved = True
                        break
                    k += 1
                if moved:
                    # Drop this watcher: swap the last pair into its slot
                    # (order is irrelevant) instead of compacting the list.
                    n -= 2
                    watch_list[i] = watch_list[n]
                    watch_list[i + 1] = watch_list[n + 1]
                    continue
                # Clause is unit or conflicting on `first`.
                watch_list[i + 1] = first
                if values[first] == 0:
                    conflict = (arena[base:end], ref)
                    i += 2
                    break
                values[first] = 1
                values[first ^ 1] = 0
                variable = first >> 1
                levels[variable] = level
                reasons[variable] = ref
                sign = first & 1
                saved[variable] = sign
                if not sign:
                    phase_dirty.append(variable)
                trail.append(first)
                i += 2
            if n != len(watch_list):
                del watch_list[n:]
            if conflict is not None:
                break
        self._propagation_head = head
        self.statistics.propagations += propagations
        return conflict

    def _backtrack(self, level: int) -> None:
        if len(self._trail_limits) <= level:
            return
        limit = self._trail_limits[level]
        values = self._values
        reasons = self._reasons
        activity = self._activity
        heap = self._order_heap
        heap_key = self._heap_key
        heappush = heapq.heappush
        for lit in reversed(self._trail[limit:]):
            variable = lit >> 1
            values[lit] = _UNDEF
            values[lit ^ 1] = _UNDEF
            reasons[variable] = _REASON_NONE
            # Keep the heap invariant: every unassigned variable has an
            # entry carrying its current activity.  Skip the push when a
            # current entry is already present.
            key = activity[variable]
            if heap_key[variable] != key:
                heappush(heap, (-key, variable))
                heap_key[variable] = key
        del self._trail[limit:]
        del self._trail_limits[level:]
        self._propagation_head = min(self._propagation_head, len(self._trail))

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _reason_literals(self, reason: int, implied: int) -> list[int] | tuple[int, ...]:
        """Antecedent literals of a reason, minus the implied literal."""
        if reason >= 0:
            arena = self._arena
            base = reason + 2
            return [arena[k] for k in range(base, base + arena[reason]) if arena[k] != implied]
        return (-reason - 2,)

    def _analyze(self, conflict: list[int], conflict_ref: int) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis.

        Returns the learned clause (coded literals, asserting literal
        first), the backtrack level and the clause's LBD.
        """
        learned: list[int] = []
        self._stamp += 1
        stamp = self._stamp
        stamps = self._seen_stamp
        levels = self._levels
        reasons = self._reasons
        arena = self._arena
        trail = self._trail
        counter = 0
        lit = -1
        clause_literals: Sequence[int] = conflict
        trail_position = len(trail) - 1
        current_level = len(self._trail_limits)
        if conflict_ref >= 0 and arena[conflict_ref + 1] & _FLAG_LEARNED:
            self._bump_clause(conflict_ref)

        while True:
            for reason_literal in clause_literals:
                variable = reason_literal >> 1
                if stamps[variable] == stamp or levels[variable] == 0:
                    continue
                stamps[variable] = stamp
                self._bump_variable(variable)
                if levels[variable] >= current_level:
                    counter += 1
                else:
                    learned.append(reason_literal)
            # Find the next trail literal to resolve on.
            while True:
                lit = trail[trail_position]
                trail_position -= 1
                if stamps[lit >> 1] == stamp:
                    break
            counter -= 1
            if counter == 0:
                break
            reason = reasons[lit >> 1]
            assert reason != _REASON_NONE, "decision literal reached before first UIP"
            if reason >= 0 and arena[reason + 1] & _FLAG_LEARNED:
                self._bump_clause(reason)
            clause_literals = self._reason_literals(reason, lit)
        learned = [lit ^ 1] + learned
        learned = self._minimize_learned(learned, stamp)

        if len(learned) == 1:
            return learned, 0, 1
        # Backtrack to the second-highest level in the learned clause.
        backtrack_level = max(levels[q >> 1] for q in learned[1:])
        # Place a literal of that level at position 1 (watch invariant).
        for position in range(1, len(learned)):
            if levels[learned[position] >> 1] == backtrack_level:
                learned[1], learned[position] = learned[position], learned[1]
                break
        lbd = len({levels[q >> 1] for q in learned})
        return learned, backtrack_level, lbd

    def _minimize_learned(self, learned: list[int], stamp: int) -> list[int]:
        """Drop literals implied by the rest of the learned clause."""
        stamps = self._seen_stamp
        levels = self._levels
        reasons = self._reasons
        arena = self._arena
        result = [learned[0]]
        for lit in learned[1:]:
            reason = reasons[lit >> 1]
            if reason == _REASON_NONE:
                result.append(lit)
                continue
            implied = lit ^ 1
            if reason >= 0:
                redundant = True
                base = reason + 2
                for k in range(base, base + arena[reason]):
                    other = arena[k]
                    if other == implied:
                        continue
                    if stamps[other >> 1] != stamp and levels[other >> 1] != 0:
                        redundant = False
                        break
            else:
                other = -reason - 2
                redundant = stamps[other >> 1] == stamp or levels[other >> 1] == 0
            if not redundant:
                result.append(lit)
        return result

    def _analyze_final(self, conflict: list[int], assumption_vars: dict[int, int]) -> tuple[int, ...]:
        """Failed-assumption core from a conflict inside the assumption levels."""
        self._stamp += 1
        stamp = self._stamp
        stamps = self._seen_stamp
        levels = self._levels
        reasons = self._reasons
        for lit in conflict:
            if levels[lit >> 1] > 0:
                stamps[lit >> 1] = stamp
        core: list[int] = []
        for lit in reversed(self._trail):
            variable = lit >> 1
            if stamps[variable] != stamp:
                continue
            reason = reasons[variable]
            if reason == _REASON_NONE:
                # A decision inside the assumption levels is an assumption.
                if variable in assumption_vars:
                    core.append(assumption_vars[variable])
            else:
                for other in self._reason_literals(reason, lit):
                    if levels[other >> 1] > 0:
                        stamps[other >> 1] = stamp
        core.reverse()
        return tuple(core)

    def _analyze_final_false(self, assumed: int, assumption_vars: dict[int, int]) -> tuple[int, ...]:
        """Failed-assumption core when an assumption is already falsified."""
        self._stamp += 1
        stamp = self._stamp
        stamps = self._seen_stamp
        levels = self._levels
        reasons = self._reasons
        variable = assumed >> 1
        core: list[int] = [assumption_vars[variable]]
        if levels[variable] > 0:
            stamps[variable] = stamp
        for lit in reversed(self._trail):
            lit_var = lit >> 1
            if stamps[lit_var] != stamp:
                continue
            reason = reasons[lit_var]
            if reason == _REASON_NONE:
                if lit_var in assumption_vars and lit_var != variable:
                    core.append(assumption_vars[lit_var])
            else:
                for other in self._reason_literals(reason, lit):
                    if levels[other >> 1] > 0:
                        stamps[other >> 1] = stamp
        return tuple(core)

    def _attach_learned(self, learned: list[int], lbd: int) -> None:
        self.statistics.learned_clauses += 1
        if len(learned) == 1:
            self._enqueue(learned[0], _REASON_NONE)
            return
        if len(learned) == 2:
            self._attach_binary(learned[0], learned[1])
            self._enqueue(learned[0], -learned[1] - 2)
            return
        ref = self._store_clause(learned, learned=True, lbd=lbd)
        self._clause_act[ref] = self._clause_inc
        self._num_learned += 1
        self._enqueue(learned[0], ref)

    # ------------------------------------------------------------------
    # Heuristics
    # ------------------------------------------------------------------

    def _bump_variable(self, variable: int) -> None:
        activity = self._activity[variable] + self._var_inc
        self._activity[variable] = activity
        if activity > 1e100:
            self._rescale_activities()
        elif self._values[variable << 1] == _UNDEF:
            # Assigned variables are not pickable: their entry is created
            # lazily on backtrack instead of once per bump.
            heapq.heappush(self._order_heap, (-activity, variable))
            self._heap_key[variable] = activity
        else:
            self._heap_key[variable] = None

    def _bump_clause(self, ref: int) -> None:
        activity = self._clause_act.get(ref, 0.0) + self._clause_inc
        self._clause_act[ref] = activity
        if activity > 1e20:
            scale = 1e-20
            for key in self._clause_act:
                self._clause_act[key] *= scale
            self._clause_inc *= scale

    def _rescale_activities(self) -> None:
        """Scale all activities down and rebuild the heap (rare)."""
        for v in range(1, self.num_vars + 1):
            self._activity[v] *= 1e-100
        self._var_inc *= 1e-100
        heap = []
        heap_key = self._heap_key
        values = self._values
        for v in range(1, self.num_vars + 1):
            if values[v << 1] == _UNDEF:
                key = self._activity[v]
                heap.append((-key, v))
                heap_key[v] = key
            else:
                heap_key[v] = None
        heapq.heapify(heap)
        self._order_heap = heap

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._clause_inc /= self._clause_decay

    def _pick_branch_literal(self) -> int | None:
        """Pop the highest-activity unassigned variable from the lazy heap.

        Entries for assigned variables or with out-of-date activities are
        discarded on the way; ties break towards the lowest variable
        index.  Amortised O(log n) per decision.  Returns a *coded*
        literal in the saved phase.
        """
        heap = self._order_heap
        values = self._values
        activity = self._activity
        heap_key = self._heap_key
        heappop = heapq.heappop
        while heap:
            negated_activity, variable = heappop(heap)
            key = -negated_activity
            if heap_key[variable] == key:
                # The tracked entry is being consumed.
                heap_key[variable] = None
            if values[variable << 1] != _UNDEF or key != activity[variable]:
                continue
            return (variable << 1) | self._saved[variable]
        return None

    # ------------------------------------------------------------------
    # Clause-database maintenance
    # ------------------------------------------------------------------

    def _approx_clauses(self) -> int:
        """Rough live clause count used for the learned-clause cap."""
        return len(self._binaries) // 2 + len(self._arena) // 6

    def _iter_refs(self) -> Iterable[int]:
        """Arena references of all clauses, dead ones included."""
        arena = self._arena
        ref = 0
        n = len(arena)
        while ref < n:
            yield ref
            ref += 2 + arena[ref]

    def _locked_refs(self) -> set[int]:
        """Arena references currently serving as implication reasons."""
        reasons = self._reasons
        return {
            reasons[lit >> 1]
            for lit in self._trail
            if reasons[lit >> 1] >= 0
        }

    def _reduce_learned(self) -> None:
        """Delete the worst half of the learned clauses (LBD, then activity).

        Glue clauses (LBD <= 2) and clauses locked as reasons survive.
        The arena is compacted afterwards, which also reattaches the
        watch lists and remaps the reasons.
        """
        arena = self._arena
        act = self._clause_act
        locked = self._locked_refs()
        candidates = [
            ref
            for ref in self._iter_refs()
            if arena[ref + 1] & _FLAG_LEARNED
            and not arena[ref + 1] & _FLAG_DELETED
            and (arena[ref + 1] >> _LBD_SHIFT) > 2
            and ref not in locked
        ]
        if len(candidates) < 20:
            return
        # Keep the best half: low LBD first, high activity first on ties.
        candidates.sort(key=lambda ref: (arena[ref + 1] >> _LBD_SHIFT, -act.get(ref, 0.0)))
        doomed = candidates[len(candidates) // 2:]
        for ref in doomed:
            arena[ref + 1] |= _FLAG_DELETED
            act.pop(ref, None)
        self.statistics.deleted_clauses += len(doomed)
        self._num_learned -= len(doomed)
        self._compact()

    def _maybe_simplify(self) -> None:
        """Self-scheduled level-0 simplification (called at solve entry).

        Runs when enough level-0 facts arrived since the last pass (each
        deactivated activation literal is one) or the arena grew
        substantially; both thresholds keep the amortised cost per
        query small.
        """
        facts = len(self._trail) if not self._trail_limits else self._trail_limits[0]
        arena_len = len(self._arena)
        if (
            facts - self._simplified_facts >= 64
            or (arena_len > 4096 and arena_len > 2 * self._simplified_arena)
        ):
            self.simplify()

    def simplify(self) -> bool:
        """Drop clauses satisfied at level 0 and strip falsified literals.

        Must be called at decision level 0 (public callers between
        ``solve`` invocations; ``solve`` itself schedules it).  Returns
        ``False`` when the simplification exposed a contradiction.
        This is the pass that physically removes deactivated miter
        clauses from the arena and the watch lists.
        """
        if self._trail_limits:
            self._backtrack(0)
        if not self._ok:
            return False
        # Level-0 reasons are never dereferenced by conflict analysis;
        # clearing them unlocks their clauses for collection.
        reasons = self._reasons
        for lit in self._trail:
            reasons[lit >> 1] = _REASON_NONE
        self._compact(strip_level0=True)
        self._simplified_facts = len(self._trail)
        self._simplified_arena = len(self._arena)
        return self._ok

    def _compact(self, strip_level0: bool = False) -> None:
        """Rebuild the arena without dead clauses; reattach watches.

        With ``strip_level0`` (only valid at decision level 0) clauses
        satisfied by a level-0 fact are dropped and literals falsified
        at level 0 are removed; clauses shrinking to two literals
        migrate to the inline binary lists, unit survivors are
        enqueued.  Without it (learned-clause reduction, any decision
        level) clauses are relocated verbatim so the watch invariant is
        preserved.
        """
        self.statistics.gc_runs += 1
        arena = self._arena
        values = self._values
        new_arena: list[int] = []
        remap: dict[int, int] = {}
        new_act: dict[int, float] = {}
        act = self._clause_act
        new_units: list[int] = []
        collected = 0
        ref = 0
        n = len(arena)
        while ref < n:
            size = arena[ref]
            flags = arena[ref + 1]
            base = ref + 2
            end = base + size
            next_ref = end
            if flags & _FLAG_DELETED:
                ref = next_ref
                continue
            if strip_level0:
                satisfied = False
                kept: list[int] = []
                for k in range(base, end):
                    lit = arena[k]
                    value = values[lit]
                    if value == 1:
                        satisfied = True
                        break
                    if value == 0:
                        continue
                    kept.append(lit)
                if satisfied:
                    collected += 1
                    if flags & _FLAG_LEARNED:
                        self._num_learned -= 1
                    ref = next_ref
                    continue
                if not kept:
                    self._ok = False
                    return
                if len(kept) == 1:
                    new_units.append(kept[0])
                    if flags & _FLAG_LEARNED:
                        self._num_learned -= 1
                    ref = next_ref
                    continue
                if len(kept) == 2:
                    self._binaries.append(kept[0])
                    self._binaries.append(kept[1])
                    if flags & _FLAG_LEARNED:
                        self._num_learned -= 1
                    ref = next_ref
                    continue
                literals = kept
            else:
                literals = arena[base:end]
            new_ref = len(new_arena)
            remap[ref] = new_ref
            new_arena.append(len(literals))
            new_arena.append(flags)
            new_arena.extend(literals)
            if flags & _FLAG_LEARNED and ref in act:
                new_act[new_ref] = act[ref]
            ref = next_ref

        self._arena = new_arena
        self._clause_act = new_act

        # Remap implication reasons (locked clauses are never deleted).
        reasons = self._reasons
        for lit in self._trail:
            reason = reasons[lit >> 1]
            if reason >= 0:
                reasons[lit >> 1] = remap[reason]

        # Rebuild the binary registry and both watch structures.
        if strip_level0:
            binaries = self._binaries
            new_binaries: list[int] = []
            for index in range(0, len(binaries), 2):
                a, b = binaries[index], binaries[index + 1]
                if values[a] == 1 or values[b] == 1:
                    collected += 1
                    continue
                # One false literal implies the other was propagated true
                # at level 0, so the pair is satisfied; no unit handling
                # is needed here.
                new_binaries.append(a)
                new_binaries.append(b)
            self._binaries = new_binaries
        self.statistics.collected_clauses += collected

        for watch in self._watches:
            del watch[:]
        for watch in self._bwatches:
            del watch[:]
        binaries = self._binaries
        bwatches = self._bwatches
        for index in range(0, len(binaries), 2):
            a, b = binaries[index], binaries[index + 1]
            bwatches[a ^ 1].append(b)
            bwatches[b ^ 1].append(a)
        arena = self._arena
        watches = self._watches
        for ref in self._iter_refs():
            base = ref + 2
            first, second = arena[base], arena[base + 1]
            watch = watches[first ^ 1]
            watch.append(ref)
            watch.append(second)
            watch = watches[second ^ 1]
            watch.append(ref)
            watch.append(first)

        for lit in new_units:
            if not self._enqueue(lit, _REASON_NONE):
                self._ok = False
                return
        if new_units and self._propagate() is not None:
            self._ok = False

    def __repr__(self) -> str:
        return (
            f"CdclSolver(vars={self.num_vars}, clauses={self._approx_clauses()}, "
            f"conflicts={self.statistics.conflicts})"
        )


def _luby(index: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,..."""
    k = 1
    while (1 << (k + 1)) - 1 <= index:
        k += 1
    while True:
        if index == (1 << k) - 1:
            return 1 << (k - 1)
        index = index - (1 << (k - 1)) + 1
        k -= 1
        if k == 0:
            return 1
