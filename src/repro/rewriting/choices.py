"""Structural choice computation (the ``choice`` pass, a ``dch``-style flow).

ABC's ``dch`` synthesises several snapshots of a network and fraigs them
together so the mapper can pick, node by node, among all the structures
the snapshots propose.  This pass is the incremental analogue built on
the machinery already in the tree:

1. **rewriting choices** -- the DAG-aware rewriter runs in additive
   mode: the winning library structure of every 4-cut is instantiated
   *next to* the subject logic and linked as a choice of the visited
   node (:func:`repro.rewriting.rewrite.rewrite` with
   ``record_choices``);
2. **refactoring choices** -- the MFFC resynthesiser contributes a
   restructured cone per wide reconvergent region the 4-cuts cannot
   see;
3. **fraig choices** -- the SAT sweeper proves candidate equivalences
   exactly as in a normal sweep but *records* every proven pair as a
   choice class instead of substituting it, so reconvergent structures
   become alternatives of one another (complemented equivalences
   included).

The subject network is never mutated -- every stage only adds dangling
alternative structures and class links -- so the pass is functionally
the identity on the primary outputs, and a later choice-aware ``map``
is guaranteed never to do worse than mapping the original network (the
mapper's plain fallback sees exactly the original subject graph).

Entry points: :func:`compute_choices` here, the ``choice`` pass name in
:class:`~repro.rewriting.passes.PassManager` scripts (``"choice; map"``)
and ``repro map --choices`` on the command line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..networks.aig import Aig
from ..sweeping.fraig import FraigSweeper
from .library import RewriteLibrary
from .refactor import refactor
from .rewrite import rewrite

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..resilience import Budget

__all__ = ["ChoiceReport", "compute_choices"]


@dataclass
class ChoiceReport:
    """Counters collected by one choice-computation pass."""

    gates_before: int = 0
    gates_after: int = 0
    choice_classes: int = 0
    choice_alternatives: int = 0
    rewrite_recorded: int = 0
    refactor_recorded: int = 0
    fraig_recorded: int = 0
    fraig_skipped: int = 0
    sat_calls: int = 0
    sat_time: float = 0.0
    total_time: float = 0.0
    #: CDCL-core counters of the fraig stage's solver windows
    #: (``SolverStatistics.as_dict()`` plus window bookkeeping), copied
    #: from the sweep's :class:`~repro.sweeping.stats.SweepStatistics`.
    solver_statistics: dict[str, int] = field(default_factory=dict)
    window_reuse_rate: float = 0.0

    def as_details(self) -> dict[str, float]:
        """Flat numeric view for per-pass statistics."""
        details = {f"sat_{key}": float(value) for key, value in self.solver_statistics.items()}
        if self.solver_statistics:
            details["sat_window_reuse_rate"] = self.window_reuse_rate
        return details | {
            "choice_classes": float(self.choice_classes),
            "choice_alternatives": float(self.choice_alternatives),
            "rewrite_recorded": float(self.rewrite_recorded),
            "refactor_recorded": float(self.refactor_recorded),
            "fraig_recorded": float(self.fraig_recorded),
            "fraig_skipped": float(self.fraig_skipped),
            "sat_calls": float(self.sat_calls),
            "sat_time": self.sat_time,
        }


def compute_choices(
    aig: Aig,
    num_patterns: int = 64,
    seed: int = 1,
    conflict_limit: int | None = 10_000,
    library: RewriteLibrary | None = None,
    budget: "Budget | None" = None,
    window_size: int | None = None,
) -> tuple[Aig, ChoiceReport]:
    """Augment (a copy of) the network with structural choice classes.

    Returns the choice-carrying network and a report.  The subject logic
    -- every gate reachable from a primary output -- is structurally
    identical to the input's; only dangling alternative structures and
    their class links are added, so the result is trivially equivalent
    to the input and existing choices of the input survive.
    ``window_size`` is the fraig stage's solver-window policy (``None`` =
    one persistent incremental solver, ``1`` = fresh-encode-per-query
    oracle).
    """
    start = time.perf_counter()
    report = ChoiceReport(gates_before=aig.num_ands)
    if budget is not None:
        budget.checkpoint("choice")
    work, rewrite_report = rewrite(aig, record_choices=True, library=library)
    report.rewrite_recorded = rewrite_report.choices_recorded
    if budget is not None:
        budget.checkpoint("choice")
    work, refactor_report = refactor(work, record_choices=True)
    report.refactor_recorded = refactor_report.choices_recorded
    work, sweep_stats = FraigSweeper(
        work,
        num_patterns=num_patterns,
        seed=seed,
        conflict_limit=conflict_limit,
        record_choices=True,
        budget=budget,
        window_size=window_size,
    ).run()
    report.fraig_recorded = int(sweep_stats.extra.get("choices_recorded", 0.0))
    report.fraig_skipped = int(sweep_stats.extra.get("choice_skipped", 0.0))
    report.sat_calls = sweep_stats.total_sat_calls
    report.sat_time = sweep_stats.sat_time
    report.solver_statistics = dict(sweep_stats.solver_statistics)
    report.window_reuse_rate = sweep_stats.extra.get("window_reuse_rate", 0.0)
    report.gates_after = work.num_ands
    report.choice_classes = work.num_choice_classes
    report.choice_alternatives = work.num_choice_alternatives
    report.total_time = time.perf_counter() - start
    return work, report
