"""The STP-enhanced SAT sweeper (Algorithm 2 of the paper).

The flow differs from the baseline FRAIG sweeper in the four ways the
paper calls out:

1. *SAT-guided initial simulation* (Section IV-A): two rounds of
   solver-generated patterns seed the candidate classes and prove constant
   nodes before any sweeping happens (lines 2-3 of Algorithm 2).
2. *Reverse topological traversal*: gates are processed from the primary
   outputs towards the inputs (line 4), by descending node index.  A gate
   none of whose references survives -- it drives no PO and every fanout
   was merged or skipped itself -- is skipped as dangling: no driver walk,
   no SAT call.  The skip is exact because every driver has a smaller
   index than its candidate, so a visited gate never becomes a driver, or
   enters a driver's cone, again.
3. *TFI-bounded driver selection*: merge drivers are taken from the
   candidate's generalised (polarity-merged) equivalence class, ordered and
   bounded through the transitive-fanin manager (lines 10-17).
4. *STP-based exhaustive refinement*: before a SAT query is issued for a
   (candidate, driver) pair, the pair's functions are computed exhaustively
   over a common window of at most ``window_leaves`` leaves using the
   STP-based simulator; a mismatch disproves the candidate equivalence with
   no SAT call at all, and every SAT counter-example is likewise propagated
   only through the nodes that still sit in equivalence classes
   (Section IV-A, "Refinement using STP-based Simulation").
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from ..networks.aig import Aig, LIT_FALSE
from ..sat.circuit import CircuitSolver, EquivalenceStatus
from ..simulation.incremental import IncrementalAigSimulator
from ..simulation.patterns import PatternSet
from ..simulation.sat_guided import sat_guided_patterns
from ..simulation.stp_simulator import (
    complement_key,
    compute_local_truth_tables,
    compute_pi_supports,
    expand_truth_table,
    function_key,
)
from ..truthtable import TruthTable
from .constant_prop import propagate_constant_candidates
from .equivalence import EquivalenceClasses, refine_with_counterexample
from .stats import SweepStatistics
from .tfi import TfiManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..resilience import Budget

__all__ = ["StpSweeper", "stp_sweep"]


class StpSweeper:
    """SAT sweeping with STP-based exhaustive simulation (Algorithm 2)."""

    def __init__(
        self,
        aig: Aig,
        num_patterns: int = 64,
        seed: int = 1,
        conflict_limit: int | None = 10_000,
        tfi_limit: int = 1000,
        window_leaves: int = 16,
        use_sat_guided_patterns: bool = True,
        use_exhaustive_refinement: bool = True,
        pattern_queries: int = 8,
        budget: "Budget | None" = None,
        window_size: int | None = None,
    ) -> None:
        self.original = aig
        self.num_patterns = num_patterns
        self.seed = seed
        self.conflict_limit = conflict_limit
        self.tfi_limit = tfi_limit
        self.window_leaves = window_leaves
        self.use_sat_guided_patterns = use_sat_guided_patterns
        self.use_exhaustive_refinement = use_exhaustive_refinement
        self.pattern_queries = pattern_queries
        #: Solver-window policy forwarded to :class:`CircuitSolver`:
        #: ``None`` keeps one persistent solver for the whole sweep,
        #: ``1`` is the fresh-encode-per-query oracle.
        self.window_size = window_size
        #: Optional :class:`repro.resilience.Budget`, polled per candidate
        #: and threaded into the SAT layer (shared conflict pool, deadline).
        self.budget = budget
        #: Gates the last :meth:`run` skipped as dangling: each drove no PO
        #: and all its fanouts were merged or skipped before it was visited.
        self.dangling: set[int] = set()

    # ------------------------------------------------------------------

    def run(self) -> tuple[Aig, SweepStatistics]:
        """Sweep a copy of the network; returns the swept AIG and statistics."""
        aig = self.original.clone()
        stats = SweepStatistics(
            name=aig.name,
            num_pis=aig.num_pis,
            num_pos=aig.num_pos,
            depth=aig.depth(),
            gates_before=aig.num_ands,
        )
        start = time.perf_counter()
        solver = CircuitSolver(
            aig,
            conflict_limit=self.conflict_limit,
            budget=self.budget,
            window_size=self.window_size,
        )
        tfi = TfiManager(aig, self.tfi_limit)

        # Structural PI supports and per-node local functions, computed once
        # up front by the STP simulator.  A node's local function stays valid
        # across equivalence-preserving substitutions, so the cache is never
        # invalidated during the sweep.
        sim_start = time.perf_counter()
        self._supports = compute_pi_supports(aig, self.window_leaves)
        if self.use_exhaustive_refinement:
            self._local_tables = compute_local_truth_tables(aig, self.window_leaves, self._supports)
        else:
            self._local_tables = {}
        self._keys: dict[int, tuple[tuple[int, ...], int] | None] = {}
        stats.simulation_time += time.perf_counter() - sim_start

        # ---- lines 2-3: SAT-guided patterns, constants, initial classes ---
        simulator, classes = self._initialise(aig, solver, stats)

        # ---- one-time STP-based exhaustive refinement of every class --------
        # (Section IV-A: only nodes inside equivalence classes are simulated,
        # with exhaustive patterns over windows of fewer than 16 leaves.)
        window_covered: set[int] = set()
        if self.use_exhaustive_refinement:
            sim_start = time.perf_counter()
            for cls in classes.classes():
                members = [member for member in cls.members if member != 0]
                if len(members) < 2 or cls.representative == 0:
                    continue
                tables = self._window_tables(members)
                if tables is None:
                    continue
                window_covered.update(members)
                splits = classes.refine_with_truth_tables(tables)
                stats.simulation_disproofs += splits
            stats.simulation_time += time.perf_counter() - sim_start

        merged: set[int] = set()
        dangling: set[int] = set()
        self.dangling = dangling

        # ---- line 4: reverse topological order -----------------------------
        # Gates are walked by descending node index.  ``Aig.add_and`` gives
        # every gate a larger index than its fanins, so this is a reverse
        # topological order, and it matches the driver rule ``member <
        # candidate``: every later candidate, and hence every driver and its
        # whole fanin cone, has a smaller index than any visited gate.  A
        # gate whose references all sit in visited gates that were merged or
        # skipped is therefore dead for good -- it can never regain a fanout
        # -- and is skipped instead of proved; the final cleanup removes it.
        for candidate in range(aig.num_nodes - 1, aig.num_pis, -1):
            if self.budget is not None:
                self.budget.checkpoint("stp")
            fanouts = aig.fanouts(candidate)
            if aig.fanout_count(candidate) == len(fanouts) and all(
                fanout in merged or fanout in dangling for fanout in fanouts
            ):
                dangling.add(candidate)
                classes.remove(candidate)
                continue
            # lines 7-9: skip checks.
            if classes.is_dont_touch(candidate):
                continue
            cls = classes.class_of(candidate)
            if cls is None or cls.is_singleton():
                continue
            if self._process_candidate(aig, candidate, classes, solver, tfi, simulator, window_covered, stats):
                merged.add(candidate)

        stats.extra["dangling_skipped"] = float(len(dangling))
        stats.patterns_used = simulator.num_patterns

        # ---- finalise (shared tail: cleanup, counters, timers) ---------------
        return stats.finalize(aig, solver, start), stats

    # ------------------------------------------------------------------

    def _initialise(
        self,
        aig: Aig,
        solver: CircuitSolver,
        stats: SweepStatistics,
    ) -> tuple[IncrementalAigSimulator, EquivalenceClasses]:
        """Lines 2-3 of Algorithm 2: patterns, constant propagation, classes."""
        sim_start = time.perf_counter()
        if self.use_sat_guided_patterns:
            guided = sat_guided_patterns(
                aig,
                solver,
                num_random=self.num_patterns,
                seed=self.seed,
                max_queries_per_round=self.pattern_queries,
                conflict_limit=self.conflict_limit,
            )
            constant_patterns = guided.constant_patterns
            equivalence_patterns = guided.equivalence_patterns
            known_constants = guided.proven_constants
        else:
            constant_patterns = PatternSet.random(aig.num_pis, self.num_patterns, self.seed)
            equivalence_patterns = constant_patterns.copy()
            known_constants = {}
        stats.simulation_time += time.perf_counter() - sim_start

        report = propagate_constant_candidates(
            aig,
            constant_patterns,
            solver,
            known_constants=known_constants,
            local_tables=self._local_tables or None,
            conflict_limit=self.conflict_limit,
        )
        stats.constant_merges += report.substitutions
        stats.merges += report.substitutions
        stats.simulation_disproofs += report.exhaustive_disproofs
        for pattern in report.counterexamples:
            equivalence_patterns.add_pattern(pattern)

        sim_start = time.perf_counter()
        simulator = IncrementalAigSimulator(aig, equivalence_patterns)
        stats.simulation_time += time.perf_counter() - sim_start

        classes = EquivalenceClasses.from_simulation(aig, simulator.result)
        for node in report.proved:
            classes.remove(node)
        stats.initial_classes = classes.num_classes
        stats.initial_candidate_nodes = len(classes.class_nodes())
        return simulator, classes

    # ------------------------------------------------------------------

    def _process_candidate(
        self,
        aig: Aig,
        candidate: int,
        classes: EquivalenceClasses,
        solver: CircuitSolver,
        tfi: TfiManager,
        simulator: IncrementalAigSimulator,
        window_covered: set[int],
        stats: SweepStatistics,
    ) -> bool:
        """Lines 10-31 of Algorithm 2 for one candidate gate; True if merged.

        The driver list depends only on the candidate's class, so it is
        built and ordered once per class state and then walked: a local
        disproof records the pair and moves on to the next driver.  Only a
        SAT counter-example refines the classes, so only it rebuilds the
        list.
        """
        disproved: set[int] = set()
        while True:
            cls = classes.class_of(candidate)
            if cls is None or cls.is_singleton():
                return False

            # lines 10-11: the generalised class, sorted topologically; the
            # TFI manager then orders drivers (bounded-TFI members first).
            drivers = [
                member
                for member in cls.members
                if member < candidate and member not in disproved
            ]
            drivers = tfi.order_drivers(candidate, drivers)
            if 0 in cls.members and candidate != 0 and 0 not in disproved:
                drivers = [0] + [d for d in drivers if d != 0]
            for driver in drivers:
                # lines 15-17: driver checks -- don't-touch and structural
                # legality (no combinational cycle).
                if classes.is_dont_touch(driver):
                    continue
                if driver != 0 and not tfi.is_legal_merge(candidate, driver):
                    continue
                inverted = classes.relative_polarity(candidate, driver)
                if self.use_exhaustive_refinement and self._locally_disproved(
                    candidate, driver, inverted, window_covered, stats
                ):
                    # Disproved locally -- no SAT call needed for this pair.
                    stats.simulation_disproofs += 1
                    disproved.add(driver)
                    continue
                driver_literal = Aig.literal(driver, inverted) if driver != 0 else (LIT_FALSE ^ int(inverted))

                # line 18: the SAT query.
                outcome = solver.prove_equivalence(Aig.literal(candidate), driver_literal, self.conflict_limit)
                if outcome.status is EquivalenceStatus.UNDETERMINED:
                    # lines 19-22: mark don't-touch and give up on this gate.
                    classes.mark_dont_touch(candidate)
                    classes.remove(candidate)
                    return False
                if outcome.status is EquivalenceStatus.EQUIVALENT:
                    # lines 23-24: substitute and stop processing this gate.
                    aig.substitute(candidate, driver_literal)
                    classes.remove(candidate)
                    stats.merges += 1
                    if driver == 0:
                        stats.constant_merges += 1
                    return True
                # lines 25-28: counter-example; simulation restricted to the
                # nodes that still sit in equivalence classes, then refinement.
                assert outcome.counterexample is not None
                sim_start = time.perf_counter()
                refine_with_counterexample(aig, classes, simulator, outcome.counterexample)
                stats.simulation_time += time.perf_counter() - sim_start
                stats.counterexamples_simulated += 1
                break
            else:
                return False

    def _locally_disproved(
        self,
        candidate: int,
        driver: int,
        inverted: bool,
        window_covered: set[int],
        stats: SweepStatistics,
    ) -> bool:
        """True when exhaustive local functions already refute the pair.

        Constant-class candidates: a local function that is not constant
        disproves the candidate.  Other pairs the one-time class-level
        refinement could not cover (window too wide for the whole class)
        are compared over the union of their PI supports when it fits in
        ``window_leaves``; if both nodes were covered there, the pair is
        already known to agree on the window and the SAT call will be
        cheap.  The comparison reads the two nodes' :func:`function_key`
        instead of expanding both tables to the common window: the keys
        are equal exactly when the expanded tables are.
        """
        if driver == 0:
            local = self._local_tables.get(candidate)
            return local is not None and not local.is_constant()
        if candidate in window_covered and driver in window_covered:
            return False
        sim_start = time.perf_counter()
        disproved = False
        candidate_key = self._function_key(candidate)
        driver_key = self._function_key(driver)
        if candidate_key is not None and driver_key is not None:
            candidate_support = self._supports[candidate] or ()
            driver_support = self._supports[driver] or ()
            if len(set(candidate_support).union(driver_support)) <= self.window_leaves:
                disproved = candidate_key != (complement_key(driver_key) if inverted else driver_key)
        stats.simulation_time += time.perf_counter() - sim_start
        return disproved

    def _function_key(self, node: int) -> tuple[tuple[int, ...], int] | None:
        """Lazily cached :func:`function_key` of a node's local function."""
        if node not in self._keys:
            local = self._local_tables.get(node)
            support = self._supports.get(node)
            self._keys[node] = None if local is None or support is None else function_key(local, support)
        return self._keys[node]

    # ------------------------------------------------------------------

    def _window_tables(self, targets: list[int]) -> dict[int, TruthTable] | None:
        """Exhaustive functions of ``targets`` over their combined PI support.

        Uses the precomputed per-node local functions; the combined window
        must not exceed ``window_leaves`` and every target must have a
        cached local function, otherwise ``None`` is returned and the
        caller falls back to SAT.
        """
        window: list[int] = []
        for target in targets:
            support = self._supports.get(target)
            if support is None or self._local_tables.get(target) is None:
                return None
            for leaf in support:
                if leaf not in window:
                    window.append(leaf)
                    if len(window) > self.window_leaves:
                        return None
        window.sort()
        tables: dict[int, TruthTable] = {}
        for target in targets:
            local = self._local_tables[target]
            assert local is not None
            tables[target] = expand_truth_table(local, self._supports[target] or (), window)
        return tables


def stp_sweep(aig: Aig, **kwargs: Any) -> tuple[Aig, SweepStatistics]:
    """Convenience wrapper around :class:`StpSweeper`."""
    return StpSweeper(aig, **kwargs).run()
