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
driver list       the class representative        smaller members the keys do not
                                                  disprove, TFI order
keys              none                            ``window_leaves``
choices           ``record_choices``              never
================  ==============================  ===============================

Each pair ends in one of four transitions: *substitute* the candidate by
its driver (or, with ``record_choices``, *record* the pair as a choice),
*give up* on the candidate (the query came back UNDETERMINED, or no
driver in the list is legal and equal), or *refine* the classes with a
SAT counter-example and rebuild the driver list.  A member the keys
disprove never enters the driver list, so it costs no ordering,
legality check or verdict.  Every transition but refinement removes
the candidate from its class; so does exhausting a driver list that
held at least one member before the keys judged it.  In the descending
walk a visited gate is never a driver again, so leaving its class
changes nothing there; in the topological walk it keeps the candidate
out of a class whose representative it cannot use.

A key needs the node's exhaustive table.  The PI supports are computed
for every node up front, but a table is built only when a verdict, a
key, the solver's function-class lookup or the constant pass first asks
for it, together with the part of its cone not built yet.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..networks.aig import Aig
from ..sat.circuit import CircuitSolver, EquivalenceStatus, FunctionTable
from ..simulation.bitwise import simulate_aig
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
        # Per-run caches, started by :meth:`_load_tables`.
        self._supports: dict[int, tuple[int, ...] | None] = {}
        self._local_tables: dict[int, TruthTable | None] = {}
        self._keys: dict[int, tuple[tuple[int, ...], int] | None] = {}
        #: Seconds spent building tables this run (part of the simulation time).
        self._table_time = 0.0

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
        self._load_tables(aig)
        stats.simulation_time += time.perf_counter() - start
        if self.window_leaves:
            stats.extra["exhaustive_proofs"] = 0.0
        solver = CircuitSolver(
            aig,
            conflict_limit=self.conflict_limit,
            budget=self.budget,
            window_size=self.window_size,
            function_class=self._function_table if self.window_leaves else None,
        )
        tfi = TfiManager(aig, self.tfi_limit)
        classes = self._initialise(aig, solver, stats)

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
            if self._sweep_candidate(aig, candidate, classes, solver, tfi, stats):
                merged.add(candidate)

        if self.reverse_walk:
            stats.extra["dangling_skipped"] = float(len(dangling))
        if self.window_leaves:
            stats.extra["key_lemmas"] = float(solver.num_key_lemmas)
            stats.extra["tables_built"] = float(len(self._local_tables) - 1 - aig.num_pis)
        stats.simulation_time += self._table_time
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
    ) -> EquivalenceClasses:
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
                local_table=self._local_table if self.window_leaves else None,
                conflict_limit=self.conflict_limit,
            )
            stats.constant_merges += report.substitutions
            stats.merges += report.substitutions
            stats.simulation_disproofs += report.exhaustive_disproofs
            stats.extra["exhaustive_proofs"] = stats.extra.get("exhaustive_proofs", 0.0) + report.exhaustive_proofs
            for pattern in report.counterexamples:
                patterns.add_pattern(pattern)
            proved = report.proved

        sim_start = time.perf_counter()
        result = simulate_aig(aig, patterns)
        stats.simulation_time += time.perf_counter() - sim_start
        stats.patterns_used = patterns.num_patterns

        classes = EquivalenceClasses.from_simulation(aig, result)
        for node in proved:
            classes.remove(node)
        stats.initial_classes = classes.num_classes
        stats.initial_candidate_nodes = len(classes.class_nodes())
        return classes

    # ------------------------------------------------------------------

    def _sweep_candidate(
        self,
        aig: Aig,
        candidate: int,
        classes: EquivalenceClasses,
        solver: CircuitSolver,
        tfi: TfiManager,
        stats: SweepStatistics,
    ) -> bool:
        """Lines 7-31 of Algorithm 2 for one candidate gate; True if substituted.

        The driver list depends only on the candidate's class, so it is
        built once per class state and then walked.  The keys judge the
        class members before the list is ordered (:meth:`_drivers`): a
        member the keys disprove never enters it, so a key disproof costs
        no ordering, legality check or verdict.  Each legal driver left is
        judged by :meth:`_local_verdict`: when both nodes have a key it is
        a proof, which merges the candidate without SAT.  Only a pair the
        keys do not cover goes to SAT, and only a SAT counter-example
        refines the classes, so only it rebuilds the list.
        """
        disproved: set[int] = set()
        while True:
            cls = classes.class_of(candidate)
            if cls is None or cls.is_singleton():
                return False
            drivers = self._drivers(candidate, cls, tfi, disproved, stats)
            if drivers is None:
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
                verdict = self._local_verdict(candidate, driver, inverted)
                if verdict is False:
                    raise RuntimeError(f"driver {driver} of candidate {candidate} survived a key disproof")
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
                        refine_with_counterexample(aig, classes, outcome.counterexample)
                        stats.simulation_time += time.perf_counter() - sim_start
                        stats.counterexamples_simulated += 1
                        stats.patterns_used += 1
                        if classes.same_class(candidate, driver):
                            # The next pass would ask the same query again.
                            raise RuntimeError(
                                f"SAT returned a model that does not separate candidate {candidate} "
                                f"from driver {driver}"
                            )
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
        self,
        candidate: int,
        cls: EquivalenceClass,
        tfi: TfiManager,
        disproved: set[int],
        stats: SweepStatistics,
    ) -> list[int] | None:
        """Lines 10-11: the merge drivers to try for ``candidate``, in order.

        ``None`` when the class holds no driver for the candidate at all;
        an empty list when the keys disprove every one.  Members are kept
        sorted, so the constant node, when present, comes first and the
        first member is the class representative.  Constant candidates
        are substitution material only: in choice-recording mode the
        network stays untouched and constants cannot anchor a choice
        class.

        With keys, every member the keys disprove is dropped (and added
        to ``disproved``) before the list is ordered.  That changes no
        transition: the order only sorts by (outside the candidate's
        bounded cone, index) over a cone the member list does not affect,
        so the order of the members left is the full order restricted to
        them, and a key-disproved driver was skipped anyway.
        """
        members = [member for member in cls.members if member < candidate and member not in disproved]
        if not members or (self.record_choices and members[0] == 0):
            return None
        if not self.all_drivers:
            return members[:1]
        if self.window_leaves:
            members = self._key_survivors(candidate, cls, members, disproved, stats)
        # The TFI manager orders drivers (bounded-TFI members first); the
        # constant driver always goes first.
        drivers = tfi.order_drivers(candidate, members)
        if members and members[0] == 0:
            drivers = [0] + [driver for driver in drivers if driver != 0]
        return drivers

    def _key_survivors(
        self,
        candidate: int,
        cls: EquivalenceClass,
        members: list[int],
        disproved: set[int],
        stats: SweepStatistics,
    ) -> list[int]:
        """The members the keys do not disprove as drivers of ``candidate``.

        Decides each keyed member the way :meth:`_local_verdict` does,
        with the class polarity: raw bits over equal supports, keys
        otherwise.  Before a key is computed, the two functions' ones
        densities, normalised to ``window_leaves`` inputs, must match; an
        input a function does not depend on leaves its density unchanged,
        so equal functions always pass.
        """
        table = self._local_table(candidate)
        if table is None:
            return members
        tables = self._local_tables
        supports = self._supports
        missing = [member for member in members if member not in tables and supports.get(member) is not None]
        if missing:
            self._build_tables(missing)
        start = time.perf_counter()
        polarity = cls.polarity
        phase = polarity[candidate]
        support = supports[candidate]
        bits = table.bits
        full = (1 << table.num_bits) - 1
        leaves = self.window_leaves
        everything = 1 << leaves
        density = bits.bit_count() << (leaves - table.num_vars)
        candidate_key = None
        survivors: list[int] = []
        for member in members:
            other = tables.get(member)
            if other is None:
                survivors.append(member)
                continue
            inverted = polarity[member] != phase
            if supports[member] == support:
                equal = (other.bits ^ full if inverted else other.bits) == bits
            else:
                other_density = other.bits.bit_count() << (leaves - other.num_vars)
                equal = (everything - other_density if inverted else other_density) == density
                if equal:
                    if candidate_key is None:
                        candidate_key = self._function_key(candidate)
                    key = self._function_key(member)
                    assert key is not None
                    equal = candidate_key == (complement_key(key) if inverted else key)
            if equal:
                survivors.append(member)
            else:
                disproved.add(member)
        stats.simulation_disproofs += len(members) - len(survivors)
        stats.simulation_time += time.perf_counter() - start
        return survivors

    # ------------------------------------------------------------------

    def _local_verdict(self, candidate: int, driver: int, inverted: bool) -> bool | None:
        """Exhaustive verdict on ``candidate == driver ^ inverted``; None if a table is missing.

        Two tables over the same structural support are compared bit for
        bit.  Otherwise each node's key is its function reduced to the
        inputs it depends on (:func:`function_key`), so two keys are equal
        exactly when the two functions are, whatever their supports.  The
        constant node's key is ``((), 0)``, so constant candidates are
        decided the same way.  A node whose support is wider than
        ``window_leaves`` has no table, and its pairs go to SAT; with
        ``window_leaves=0`` no node has one.
        """
        candidate_table = self._local_table(candidate)
        driver_table = self._local_table(driver)
        if candidate_table is None or driver_table is None:
            return None
        if self._supports[candidate] == self._supports[driver]:
            bits = driver_table.bits
            if inverted:
                bits ^= (1 << driver_table.num_bits) - 1
            return candidate_table.bits == bits
        candidate_key = self._function_key(candidate)
        driver_key = self._function_key(driver)
        assert candidate_key is not None and driver_key is not None
        return candidate_key == (complement_key(driver_key) if inverted else driver_key)

    def _load_tables(self, aig: Aig) -> None:
        """Structural PI supports of ``aig`` up front; local functions on demand.

        The supports are computed for every node.  A node's table is built
        the first time a verdict, a key, the solver's lookup or the
        constant pass asks for it (:meth:`_local_table`), together with
        the part of its cone not built yet, from the untouched input
        network: the working copy shares its node indices, but
        substitutions change its cones.  A node's local function stays
        valid across equivalence-preserving substitutions, so the caches
        are never invalidated during a sweep.  With ``window_leaves=0``
        no node gets a table.
        """
        self._keys = {}
        self._table_time = 0.0
        if not self.window_leaves:
            self._supports, self._local_tables = {}, {}
            return
        self._supports = compute_pi_supports(aig, self.window_leaves)
        self._local_tables = compute_local_truth_tables(aig, self.window_leaves, self._supports, roots=())

    def _build_tables(self, roots: list[int]) -> None:
        """Add the tables of ``roots`` and of their cones' missing nodes to the cache."""
        start = time.perf_counter()
        compute_local_truth_tables(
            self.original, self.window_leaves, self._supports, roots=roots, tables=self._local_tables
        )
        self._table_time += time.perf_counter() - start

    def _local_table(self, node: int) -> TruthTable | None:
        """A node's local function, built on first use; None if its support is too wide."""
        table = self._local_tables.get(node)
        if table is None and self._supports.get(node) is not None:
            self._build_tables([node])
            table = self._local_tables[node]
        return table

    def _function_key(self, node: int) -> tuple[tuple[int, ...], int] | None:
        """Lazily cached :func:`function_key` of a node's local function."""
        if node not in self._keys:
            local = self._local_table(node)
            support = self._supports.get(node)
            self._keys[node] = None if local is None or support is None else function_key(local, support)
        return self._keys[node]

    def _function_table(self, node: int) -> FunctionTable | None:
        """The solver's function-class lookup: ``(support, bits)`` of a node's table."""
        support = self._supports.get(node)
        if support is None:
            return None
        table = self._local_tables.get(node)
        if table is None:
            table = self._local_table(node)
            assert table is not None
        return support, table.bits
