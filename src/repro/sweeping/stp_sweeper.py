"""The STP-enhanced SAT sweeper (Algorithm 2 of the paper).

The flow differs from the baseline FRAIG sweeper in the four ways the
paper calls out, each a setting of
:class:`~repro.sweeping.engine.SweepEngine`:

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
   (:func:`~repro.simulation.stp_simulator.function_key`).  When both
   nodes of a (candidate, driver) pair have a key, the keys decide the
   pair exactly with no SAT call at all: equal keys prove the equivalence
   and the candidate is substituted, unequal keys disprove it and the walk
   moves on to the next driver.  Only pairs with a wider node go to SAT,
   and every SAT counter-example is propagated only through the nodes that
   still sit in equivalence classes (Section IV-A, "Refinement using
   STP-based Simulation").  ``window_leaves=0`` turns the keys off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..networks.aig import Aig
from .engine import SweepEngine
from .stats import SweepStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..resilience import Budget

__all__ = ["StpSweeper", "stp_sweep"]


class StpSweeper(SweepEngine):
    """SAT sweeping with STP-based exhaustive simulation (Algorithm 2)."""

    label = "stp"
    reverse_walk = True
    all_drivers = True
    constant_pass = True

    def __init__(
        self,
        aig: Aig,
        num_patterns: int = 64,
        seed: int = 1,
        conflict_limit: int | None = 10_000,
        tfi_limit: int = 1000,
        window_leaves: int = 16,
        use_sat_guided_patterns: bool = True,
        pattern_queries: int = 8,
        budget: "Budget | None" = None,
        window_size: int | None = None,
    ) -> None:
        super().__init__(aig, num_patterns, seed, conflict_limit, budget, window_size)
        self.tfi_limit = tfi_limit
        self.window_leaves = window_leaves
        self.use_sat_guided_patterns = use_sat_guided_patterns
        self.pattern_queries = pattern_queries

    def run(self) -> tuple[Aig, SweepStatistics]:
        """Sweep a copy of the network; returns the swept AIG and statistics."""
        return self._sweep()


def stp_sweep(aig: Aig, **kwargs: Any) -> tuple[Aig, SweepStatistics]:
    """Convenience wrapper around :class:`StpSweeper`."""
    return StpSweeper(aig, **kwargs).run()
