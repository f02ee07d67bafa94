"""Baseline FRAIG-style SAT sweeper (the ``&fraig`` comparison point of Table II).

The classical flow: random initial simulation groups nodes into candidate
equivalence classes; gates are visited in topological order and each is
checked against its class representative with a SAT query; disproofs yield
counter-examples that are simulated incrementally over the *whole* network
to refine all classes at once; proofs substitute the gate.  This is the
engine the paper's STP sweeper is measured against.

With ``record_choices`` the sweeper runs in *choice-recording* mode
(the ``dch``-style flow): instead of substituting a proven-equivalent
gate -- and thereby discarding one of the two structures -- it records
the pair as a structural choice class
(:meth:`~repro.networks.aig.Aig.add_choice`, complemented equivalences
included), leaving the network itself untouched.  The recorded classes
are exactly the equivalence classes the sweep proves anyway; the
choice-aware mapper later picks the best implementation per node.
Pairs already sharing a choice class are skipped without a SAT call.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from ..networks.aig import Aig, LIT_FALSE
from ..sat.circuit import CircuitSolver, EquivalenceStatus
from ..simulation.incremental import IncrementalAigSimulator
from ..simulation.patterns import PatternSet
from .equivalence import EquivalenceClasses, refine_with_counterexample
from .stats import SweepStatistics
from .tfi import TfiManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..resilience import Budget

__all__ = ["FraigSweeper", "fraig_sweep"]


class FraigSweeper:
    """Classic simulation-plus-SAT sweeping on an AIG."""

    def __init__(
        self,
        aig: Aig,
        num_patterns: int = 256,
        seed: int = 1,
        conflict_limit: int | None = 10_000,
        tfi_limit: int = 1000,
        record_choices: bool = False,
        budget: "Budget | None" = None,
        window_size: int | None = None,
    ) -> None:
        self.original = aig
        self.num_patterns = num_patterns
        self.seed = seed
        self.conflict_limit = conflict_limit
        self.tfi_limit = tfi_limit
        self.record_choices = record_choices
        #: Solver-window policy forwarded to :class:`CircuitSolver`:
        #: ``None`` keeps one persistent solver for the whole sweep,
        #: ``1`` is the fresh-encode-per-query oracle.
        self.window_size = window_size
        #: Optional :class:`repro.resilience.Budget`: the candidate loop
        #: polls the deadline per candidate and the SAT layer draws from
        #: the shared conflict pool; exhaustion raises ``BudgetExceeded``
        #: out of :meth:`run` (the input network is never mutated -- the
        #: sweep works on a clone).
        self.budget = budget

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

        # ---- initial random simulation --------------------------------
        sim_start = time.perf_counter()
        patterns = PatternSet.random(aig.num_pis, self.num_patterns, self.seed)
        simulator = IncrementalAigSimulator(aig, patterns)
        stats.simulation_time += time.perf_counter() - sim_start
        stats.patterns_used = patterns.num_patterns

        classes = EquivalenceClasses.from_simulation(aig, simulator.result)
        stats.initial_classes = classes.num_classes
        stats.initial_candidate_nodes = len(classes.class_nodes())

        merged: set[int] = set()
        record = self.record_choices

        # ---- sweep in topological order --------------------------------
        budget = self.budget
        for candidate in aig.topological_order():
            if budget is not None:
                budget.checkpoint("fraig")
            if candidate in merged or classes.is_dont_touch(candidate):
                continue
            cls = classes.class_of(candidate)
            if cls is None or cls.is_singleton():
                continue
            while True:
                cls = classes.class_of(candidate)
                if cls is None or cls.is_singleton():
                    break
                drivers = [
                    member
                    for member in cls.members
                    if member != candidate and member not in merged and member < candidate
                ]
                if 0 in cls.members and candidate != 0:
                    # Constant candidates are substitution material: in
                    # choice-recording mode the network stays untouched
                    # and constants cannot anchor a choice class.
                    drivers = [] if record else [0] + [d for d in drivers if d != 0]
                if not drivers:
                    break
                driver = drivers[0]
                if record and aig.choice_repr(candidate) == aig.choice_repr(driver):
                    # Already recorded in the same choice class (e.g. by
                    # an earlier rewriting stage): no SAT call needed.
                    classes.remove(candidate)
                    stats.extra["choice_skipped"] = stats.extra.get("choice_skipped", 0.0) + 1.0
                    break
                if driver != 0 and not tfi.is_legal_merge(candidate, driver):
                    classes.remove(candidate)
                    break
                inverted = classes.relative_polarity(candidate, driver)
                driver_literal = Aig.literal(driver, inverted) if driver != 0 else (LIT_FALSE ^ int(inverted))

                outcome = solver.prove_equivalence(Aig.literal(candidate), driver_literal, self.conflict_limit)
                if outcome.status is EquivalenceStatus.EQUIVALENT:
                    if record:
                        # Keep both structures: the loser becomes a
                        # choice alternative instead of dangling logic.
                        if aig.add_choice(driver, Aig.literal(candidate, inverted)):
                            stats.extra["choices_recorded"] = stats.extra.get("choices_recorded", 0.0) + 1.0
                        classes.remove(candidate)
                        merged.add(candidate)
                        break
                    aig.substitute(candidate, driver_literal)
                    classes.remove(candidate)
                    merged.add(candidate)
                    stats.merges += 1
                    if driver == 0:
                        stats.constant_merges += 1
                    break
                if outcome.status is EquivalenceStatus.UNDETERMINED:
                    classes.mark_dont_touch(candidate)
                    classes.remove(candidate)
                    break
                # Disproved: cone-local counter-example refinement (the
                # full-network signature update is buffered).
                assert outcome.counterexample is not None
                sim_start = time.perf_counter()
                refine_with_counterexample(aig, classes, simulator, outcome.counterexample)
                stats.simulation_time += time.perf_counter() - sim_start
                stats.counterexamples_simulated += 1
        stats.patterns_used = simulator.num_patterns

        # ---- finalise (shared tail: cleanup, counters, timers) ----------
        # The choice-recording sweep never substitutes: the subject graph
        # must stay bit-identical, so the cleanup rebuild is skipped.
        return stats.finalize(aig, solver, start, cleanup=not record), stats


def fraig_sweep(aig: Aig, **kwargs: Any) -> tuple[Aig, SweepStatistics]:
    """Convenience wrapper around :class:`FraigSweeper`."""
    return FraigSweeper(aig, **kwargs).run()
