"""Baseline FRAIG-style SAT sweeper (the ``&fraig`` comparison point of Table II).

The classical flow: random initial simulation groups nodes into candidate
equivalence classes; gates are visited in topological order and each is
checked against its class representative with a SAT query; disproofs yield
counter-examples that are simulated incrementally over the *whole* network
to refine all classes at once; proofs substitute the gate.  This is the
engine the paper's STP sweeper is measured against.  It is the default
configuration of :class:`~repro.sweeping.engine.SweepEngine`.

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

from typing import TYPE_CHECKING, Any

from ..networks.aig import Aig
from .engine import SweepEngine
from .stats import SweepStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..resilience import Budget

__all__ = ["FraigSweeper", "fraig_sweep"]


class FraigSweeper(SweepEngine):
    """Classic simulation-plus-SAT sweeping on an AIG."""

    def __init__(
        self,
        aig: Aig,
        num_patterns: int = 256,
        seed: int = 1,
        conflict_limit: int | None = 10_000,
        record_choices: bool = False,
        budget: "Budget | None" = None,
        window_size: int | None = None,
    ) -> None:
        super().__init__(aig, num_patterns, seed, conflict_limit, budget, window_size)
        self.record_choices = record_choices

    def run(self) -> tuple[Aig, SweepStatistics]:
        """Sweep a copy of the network; returns the swept AIG and statistics."""
        return self._sweep()


def fraig_sweep(aig: Aig, **kwargs: Any) -> tuple[Aig, SweepStatistics]:
    """Convenience wrapper around :class:`FraigSweeper`."""
    return FraigSweeper(aig, **kwargs).run()
