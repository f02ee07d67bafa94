"""The one candidate loop behind both sweepers.

:class:`SweepEngine` builds the solver, the TFI manager and the candidate
classes, walks the candidates, decides each (candidate, driver) pair by
exhaustive key or by SAT, applies the transition the verdict calls for,
and ends in :meth:`SweepStatistics.finalize`.  The two sweepers are two
configurations of it and differ only in what they hand the loop:

================  ==============================  ===============================
                  :class:`~.fraig.FraigSweeper`   :class:`~.stp_sweeper.StpSweeper`
================  ==============================  ===============================
candidate order   topological                     descending index, dangling skip
initial patterns  random                          SAT-guided, then constant pass
driver list       the class representative        every smaller member, TFI order
keys              none                            ``window_leaves``
choices           ``record_choices``              never
================  ==============================  ===============================

Each pair ends in one of four transitions: *substitute* the candidate by
its driver (or, with ``record_choices``, *record* the pair as a choice),
*give up* on the candidate (the query came back UNDETERMINED, or no
driver in the list is legal and equal), or *refine* the classes with a
SAT counter-example and rebuild the driver list.  A key disproof only
moves on to the next driver.  Every transition but refinement removes
the candidate from its class; so does exhausting a non-empty driver
list.  In the descending walk a visited gate is never a driver again,
so leaving its class changes nothing there; in the topological walk it
keeps the candidate out of a class whose representative it cannot use.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

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
from .equivalence import EquivalenceClass, EquivalenceClasses, refine_with_counterexample
from .stats import SweepStatistics
from .tfi import TfiManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..resilience import Budget

__all__ = ["SweepEngine"]


class SweepEngine:
    """Simulation-plus-SAT sweeping of an AIG, configured by a subclass.

    The class attributes below are the fraig configuration; a sweeper
    overrides the ones it changes.  Each sweeper keeps its own ``run``,
    which returns :meth:`_sweep`.
    """

    #: Budget checkpoint label.
    label = "fraig"
    #: Walk candidates by descending index and skip dangling ones
    #: (Algorithm 2, line 4) instead of in topological order.
    reverse_walk = False
    #: Try every smaller class member in TFI order (lines 10-17) instead
    #: of the class representative only.
    all_drivers = False
    #: Prove signature-constant nodes before building the classes (line 3).
    constant_pass = False
    #: Seed the classes with SAT-guided patterns (line 2) instead of
    #: random ones.
    use_sat_guided_patterns = False
    pattern_queries = 8
    #: Nodes whose PI support has at most this many inputs get an
    #: exhaustive key; 0 gives no keys.
    window_leaves = 0
    #: Record proven pairs as structural choices instead of substituting.
    record_choices = False
    tfi_limit = 1000

    def __init__(
        self,
        aig: Aig,
        num_patterns: int,
        seed: int,
        conflict_limit: int | None,
        budget: "Budget | None",
        window_size: int | None,
    ) -> None:
        self.original = aig
        self.num_patterns = num_patterns
        self.seed = seed
        self.conflict_limit = conflict_limit
        #: Optional :class:`repro.resilience.Budget`: the candidate loop
        #: polls the deadline per candidate and the SAT layer draws from
        #: the shared conflict pool; exhaustion raises ``BudgetExceeded``
        #: out of ``run`` (the input network is never mutated -- the
        #: sweep works on a clone).
        self.budget = budget
        #: Solver-window policy forwarded to :class:`CircuitSolver`:
        #: ``None`` keeps one persistent solver for the whole sweep,
        #: ``1`` is the fresh-encode-per-query oracle.
        self.window_size = window_size
        #: Gates the last run skipped as dangling: each drove no PO and
        #: all its fanouts were merged or skipped before it was visited.
        self.dangling: set[int] = set()
        # Per-run caches, filled by :meth:`_load_tables`.
        self._supports: dict[int, tuple[int, ...] | None] = {}
        self._local_tables: dict[int, TruthTable | None] = {}
        self._keys: dict[int, tuple[tuple[int, ...], int] | None] = {}

    # ------------------------------------------------------------------

    def _sweep(self) -> tuple[Aig, SweepStatistics]:
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
        simulator, classes = self._initialise(aig, solver, stats)

        # Gates are walked either in topological order or by descending
        # node index.  ``Aig.add_and`` gives every gate a larger index than
        # its fanins, so the latter is a reverse topological order, and it
        # matches the driver rule ``member < candidate``: every later
        # candidate, and hence every driver and its whole fanin cone, has a
        # smaller index than any visited gate.  A gate whose references all
        # sit in visited gates that were merged or skipped is therefore dead
        # for good -- it can never regain a fanout -- and is skipped instead
        # of proved; the final cleanup removes it.
        merged: set[int] = set()
        dangling: set[int] = set()
        self.dangling = dangling
        if self.reverse_walk:
            order: range | list[int] = range(aig.num_nodes - 1, aig.num_pis, -1)
        else:
            order = aig.topological_order()
        for candidate in order:
            if self.budget is not None:
                self.budget.checkpoint(self.label)
            if self.reverse_walk:
                fanouts = aig.fanouts(candidate)
                if aig.fanout_count(candidate) == len(fanouts) and all(
                    fanout in merged or fanout in dangling for fanout in fanouts
                ):
                    dangling.add(candidate)
                    classes.remove(candidate)
                    continue
            if self._sweep_candidate(aig, candidate, classes, solver, tfi, simulator, stats):
                merged.add(candidate)

        if self.reverse_walk:
            stats.extra["dangling_skipped"] = float(len(dangling))
        stats.patterns_used = simulator.num_patterns
        # The supports, local tables and keys serve this run only; a sweeper
        # kept for another run should not hold them.
        self._supports, self._local_tables, self._keys = {}, {}, {}
        # The choice-recording sweep never substitutes: the subject graph
        # must stay bit-identical, so the cleanup rebuild is skipped.
        return stats.finalize(aig, solver, start, cleanup=not self.record_choices), stats

    def _initialise(
        self,
        aig: Aig,
        solver: CircuitSolver,
        stats: SweepStatistics,
    ) -> tuple[IncrementalAigSimulator, EquivalenceClasses]:
        """Lines 2-3 of Algorithm 2: patterns, constant propagation, classes."""
        sim_start = time.perf_counter()
        known_constants: dict[int, bool] = {}
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
            patterns = guided.equivalence_patterns
            known_constants = guided.proven_constants
        else:
            constant_patterns = PatternSet.random(aig.num_pis, self.num_patterns, self.seed)
            patterns = constant_patterns.copy()
        stats.simulation_time += time.perf_counter() - sim_start

        proved: dict[int, bool] = {}
        if self.constant_pass:
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
                patterns.add_pattern(pattern)
            proved = report.proved

        sim_start = time.perf_counter()
        simulator = IncrementalAigSimulator(aig, patterns)
        stats.simulation_time += time.perf_counter() - sim_start

        classes = EquivalenceClasses.from_simulation(aig, simulator.result)
        for node in proved:
            classes.remove(node)
        stats.initial_classes = classes.num_classes
        stats.initial_candidate_nodes = len(classes.class_nodes())
        return simulator, classes

    # ------------------------------------------------------------------

    def _sweep_candidate(
        self,
        aig: Aig,
        candidate: int,
        classes: EquivalenceClasses,
        solver: CircuitSolver,
        tfi: TfiManager,
        simulator: IncrementalAigSimulator,
        stats: SweepStatistics,
    ) -> bool:
        """Lines 7-31 of Algorithm 2 for one candidate gate; True if substituted.

        The driver list depends only on the candidate's class, so it is
        built once per class state and then walked.  Each legal driver is
        first judged by the two nodes' exhaustive keys
        (:meth:`_local_verdict`): a proof merges the candidate and a
        disproof moves on to the next driver, both without SAT.  Only a
        pair the keys do not cover goes to SAT, and only a SAT
        counter-example refines the classes, so only it rebuilds the list.
        """
        disproved: set[int] = set()
        while True:
            cls = classes.class_of(candidate)
            if cls is None or cls.is_singleton():
                return False
            drivers = self._drivers(candidate, cls, tfi, disproved)
            if not drivers:
                return False
            for driver in drivers:
                if self.record_choices and aig.choice_repr(candidate) == aig.choice_repr(driver):
                    # Already recorded in the same choice class (e.g. by an
                    # earlier rewriting stage): no SAT call needed.
                    classes.remove(candidate)
                    stats.extra["choice_skipped"] = stats.extra.get("choice_skipped", 0.0) + 1.0
                    return False
                # lines 15-17: structural legality (no combinational cycle).
                if driver != 0 and not tfi.is_legal_merge(candidate, driver):
                    continue
                inverted = classes.relative_polarity(candidate, driver)
                driver_literal = Aig.literal(driver, inverted)
                verdict = self._local_verdict(candidate, driver, inverted, stats)
                if verdict is False:
                    stats.simulation_disproofs += 1
                    disproved.add(driver)
                    continue
                if verdict is None:
                    # line 18: the SAT query.
                    outcome = solver.prove_equivalence(Aig.literal(candidate), driver_literal, self.conflict_limit)
                    if outcome.status is EquivalenceStatus.UNDETERMINED:
                        # lines 19-22: give up on this gate.
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
                # lines 23-24: merge and stop processing this gate.
                classes.remove(candidate)
                if self.record_choices:
                    # Keep both structures: the loser becomes a choice
                    # alternative instead of dangling logic.
                    if aig.add_choice(driver, Aig.literal(candidate, inverted)):
                        stats.extra["choices_recorded"] = stats.extra.get("choices_recorded", 0.0) + 1.0
                    return False
                aig.substitute(candidate, driver_literal)
                stats.merges += 1
                if driver == 0:
                    stats.constant_merges += 1
                return True
            else:
                # No driver in the list is both legal and equal.
                classes.remove(candidate)
                return False

    def _drivers(
        self, candidate: int, cls: EquivalenceClass, tfi: TfiManager, disproved: set[int]
    ) -> list[int]:
        """Lines 10-11: the merge drivers to try for ``candidate``, in order.

        Members are kept sorted, so the constant node, when present, comes
        first and the first member is the class representative.  Constant
        candidates are substitution material only: in choice-recording
        mode the network stays untouched and constants cannot anchor a
        choice class.
        """
        members = [member for member in cls.members if member < candidate and member not in disproved]
        if not members or (self.record_choices and members[0] == 0):
            return []
        if not self.all_drivers:
            return members[:1]
        # The TFI manager orders drivers (bounded-TFI members first); the
        # constant driver always goes first.
        drivers = tfi.order_drivers(candidate, members)
        if members[0] == 0:
            drivers = [0] + [driver for driver in drivers if driver != 0]
        return drivers

    # ------------------------------------------------------------------

    def _local_verdict(self, candidate: int, driver: int, inverted: bool, stats: SweepStatistics) -> bool | None:
        """Exhaustive verdict on ``candidate == driver ^ inverted``; None if a key is missing.

        Each key is a node's function over its own PI support, reduced to
        the inputs it depends on (:func:`function_key`), so two keys are
        equal exactly when the two functions are, whatever their
        supports.  The constant node's key is ``((), 0)``, so constant
        candidates are decided the same way.  A node whose support is
        wider than ``window_leaves`` has no key, and its pairs go to SAT;
        with ``window_leaves=0`` no node has one.
        """
        if not self._local_tables:
            return None
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
        With ``window_leaves=0`` no node gets a table.
        """
        self._keys = {}
        if not self.window_leaves:
            self._supports, self._local_tables = {}, {}
            return
        self._supports = compute_pi_supports(aig, self.window_leaves)
        self._local_tables = compute_local_truth_tables(aig, self.window_leaves, self._supports)

    def _function_key(self, node: int) -> tuple[tuple[int, ...], int] | None:
        """Lazily cached :func:`function_key` of a node's local function."""
        if node not in self._keys:
            local = self._local_tables.get(node)
            support = self._supports.get(node)
            self._keys[node] = None if local is None or support is None else function_key(local, support)
        return self._keys[node]
