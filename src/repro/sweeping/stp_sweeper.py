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
4. *STP-based exhaustive refinement*: every node whose PI support has at
   most ``window_leaves`` inputs gets its exhaustive function over that
   support, computed once up front, and a canonical key of it
   (:func:`function_key`).  When both nodes of a (candidate, driver) pair
   have a key, the keys decide the pair exactly with no SAT call at all:
   equal keys prove the equivalence and the candidate is substituted,
   unequal keys disprove it and the walk moves on to the next driver.
   Only pairs with a wider node go to SAT, and every SAT counter-example
   is propagated only through the nodes that still sit in equivalence
   classes (Section IV-A, "Refinement using STP-based Simulation").
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from ..networks.aig import Aig
from ..sat.circuit import CircuitSolver, EquivalenceStatus
from ..simulation.incremental import IncrementalAigSimulator
from ..simulation.patterns import PatternSet
from ..simulation.sat_guided import sat_guided_patterns
from ..simulation.stp_simulator import (
    complement_key,
    compute_local_truth_tables,
    compute_pi_supports,
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
        # Per-run caches, filled by :meth:`_load_tables`.
        self._supports: dict[int, tuple[int, ...] | None] = {}
        self._local_tables: dict[int, TruthTable | None] = {}
        self._keys: dict[int, tuple[tuple[int, ...], int] | None] = {}

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

        sim_start = time.perf_counter()
        self._load_tables(aig)
        stats.simulation_time += time.perf_counter() - sim_start

        # ---- lines 2-3: SAT-guided patterns, constants, initial classes ---
        simulator, classes = self._initialise(aig, solver, stats)

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
            if self._process_candidate(aig, candidate, classes, solver, tfi, simulator, stats):
                merged.add(candidate)

        stats.extra["dangling_skipped"] = float(len(dangling))
        stats.patterns_used = simulator.num_patterns
        # The supports, local tables and keys serve this run only; a sweeper
        # kept for another run should not hold them.
        self._supports, self._local_tables, self._keys = {}, {}, {}

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
        stats.extra["exhaustive_proofs"] = float(report.exhaustive_proofs)
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
        stats: SweepStatistics,
    ) -> bool:
        """Lines 10-31 of Algorithm 2 for one candidate gate; True if merged.

        The driver list depends only on the candidate's class, so it is
        built and ordered once per class state and then walked.  Each
        legal driver is first judged by the two nodes' exhaustive keys
        (:meth:`_local_verdict`): a proof substitutes the candidate and a
        disproof records the pair and moves on to the next driver, both
        without SAT.  Only a pair the keys do not cover goes to SAT, and
        only a SAT counter-example refines the classes, so only it
        rebuilds the list.
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
                driver_literal = Aig.literal(driver, inverted)
                verdict = self._local_verdict(candidate, driver, inverted, stats)
                if verdict is False:
                    # Disproved locally -- no SAT call needed for this pair.
                    stats.simulation_disproofs += 1
                    disproved.add(driver)
                    continue
                if verdict is None:
                    # line 18: the SAT query.
                    outcome = solver.prove_equivalence(Aig.literal(candidate), driver_literal, self.conflict_limit)
                    if outcome.status is EquivalenceStatus.UNDETERMINED:
                        # lines 19-22: mark don't-touch and give up on this gate.
                        classes.mark_dont_touch(candidate)
                        classes.remove(candidate)
                        return False
                    if outcome.status is EquivalenceStatus.NOT_EQUIVALENT:
                        # lines 25-28: counter-example; simulation restricted
                        # to the nodes that still sit in equivalence classes,
                        # then refinement.
                        assert outcome.counterexample is not None
                        sim_start = time.perf_counter()
                        refine_with_counterexample(aig, classes, simulator, outcome.counterexample)
                        stats.simulation_time += time.perf_counter() - sim_start
                        stats.counterexamples_simulated += 1
                        break
                else:
                    stats.extra["exhaustive_proofs"] += 1
                # lines 23-24: substitute and stop processing this gate.
                aig.substitute(candidate, driver_literal)
                classes.remove(candidate)
                stats.merges += 1
                if driver == 0:
                    stats.constant_merges += 1
                return True
            else:
                return False

    def _local_verdict(self, candidate: int, driver: int, inverted: bool, stats: SweepStatistics) -> bool | None:
        """Exhaustive verdict on ``candidate == driver ^ inverted``; None if a key is missing.

        Each key is a node's function over its own PI support, reduced to
        the inputs it depends on (:func:`function_key`), so two keys are
        equal exactly when the two functions are, whatever their
        supports.  The constant node's key is ``((), 0)``, so constant
        candidates are decided the same way.  A node whose support is
        wider than ``window_leaves`` has no key, and its pairs go to SAT;
        without exhaustive refinement no node has one.
        """
        sim_start = time.perf_counter()
        verdict: bool | None = None
        candidate_key = self._function_key(candidate)
        driver_key = self._function_key(driver)
        if candidate_key is not None and driver_key is not None:
            verdict = candidate_key == (complement_key(driver_key) if inverted else driver_key)
        stats.simulation_time += time.perf_counter() - sim_start
        return verdict

    def _load_tables(self, aig: Aig) -> None:
        """Structural PI supports and per-node local functions of ``aig``, once up front.

        A node's local function stays valid across equivalence-preserving
        substitutions, so the caches are never invalidated during a sweep.
        Without exhaustive refinement no node gets a table.
        """
        self._supports = compute_pi_supports(aig, self.window_leaves)
        if self.use_exhaustive_refinement:
            self._local_tables = compute_local_truth_tables(aig, self.window_leaves, self._supports)
        else:
            self._local_tables = {}
        self._keys = {}

    def _function_key(self, node: int) -> tuple[tuple[int, ...], int] | None:
        """Lazily cached :func:`function_key` of a node's local function."""
        if node not in self._keys:
            local = self._local_tables.get(node)
            support = self._supports.get(node)
            self._keys[node] = None if local is None or support is None else function_key(local, support)
        return self._keys[node]


def stp_sweep(aig: Aig, **kwargs: Any) -> tuple[Aig, SweepStatistics]:
    """Convenience wrapper around :class:`StpSweeper`."""
    return StpSweeper(aig, **kwargs).run()
