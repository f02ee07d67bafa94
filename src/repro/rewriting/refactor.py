"""MFFC refactoring (the ``rf`` pass).

Where cut rewriting works on fixed 4-input windows, refactoring
collapses a node's *entire* maximum fanout-free cone -- up to
``max_leaves`` boundary inputs -- into one truth table and resynthesises
it from scratch with the decomposition synthesiser
(:func:`repro.rewriting.library.synthesize_structure`).  That catches
restructurings a 4-cut can never see (wide reconvergence, redundant
logic spanning many levels) at the price of a coarser search.  Like the
rewrite pass, a candidate is priced against the live network: gain is
the MFFC size minus the gates the new structure actually adds, and only
winning candidates (non-negative with ``zero_gain``) are committed via
the incremental substitute.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cuts import CutEngine, aig_cone_table
from ..networks.aig import Aig
from ..networks.transforms import cleanup_dangling
from .library import synthesize_structure
from .mffc import collect_mffc
from .rewrite import _dry_run, _instantiate

__all__ = ["RefactorReport", "refactor"]


@dataclass
class RefactorReport:
    """Counters collected by one refactor pass."""

    gates_before: int = 0
    gates_after: int = 0
    nodes_visited: int = 0
    cones_evaluated: int = 0
    refactors_applied: int = 0
    zero_gain_applied: int = 0
    estimated_gain: int = 0
    choices_recorded: int = 0

    def as_details(self) -> dict[str, float]:
        """Flat numeric view for per-pass statistics."""
        return {
            "nodes_visited": float(self.nodes_visited),
            "cones_evaluated": float(self.cones_evaluated),
            "refactors_applied": float(self.refactors_applied),
            "zero_gain_applied": float(self.zero_gain_applied),
            "estimated_gain": float(self.estimated_gain),
            "choices_recorded": float(self.choices_recorded),
        }


def refactor(
    aig: Aig,
    max_leaves: int = 10,
    max_cone: int = 64,
    min_cone: int = 3,
    zero_gain: bool = False,
    record_choices: bool = False,
) -> tuple[Aig, RefactorReport]:
    """One MFFC-refactoring pass over a copy of the network.

    Cones smaller than ``min_cone`` gates are skipped (a 4-cut rewrite
    handles those better), as are cones wider than ``max_leaves`` inputs
    or larger than ``max_cone`` gates.  Returns the refactored, cleaned
    network and a report.

    With ``record_choices`` the pass is *additive* (see
    :func:`repro.rewriting.rewrite.rewrite`): the resynthesised cone is
    instantiated next to the subject logic and recorded as a structural
    choice of the cone root whenever its gain is non-negative; the base
    network is never mutated.
    """
    if max_leaves < 2:
        raise ValueError("max_leaves must be at least 2")
    work = aig.clone()
    report = RefactorReport(gates_before=work.num_ands)
    # The engine is used purely for its dead-cone/revival bookkeeping;
    # refactoring works on whole MFFCs and does not track cuts.
    engine = CutEngine(work, k=2, cut_limit=1, compute_tables=False)

    for node in work.topological_order():
        if engine.is_dead(node):
            continue
        report.nodes_visited += 1
        mffc = collect_mffc(work, node, max_size=max_cone)
        if mffc is None or len(mffc) < min_cone:
            continue
        leaves: list[int] = []
        for member in mffc:
            for fanin in work.fanin_nodes(member):
                if fanin not in mffc and not work.is_constant(fanin) and fanin not in leaves:
                    leaves.append(fanin)
        if len(leaves) > max_leaves:
            continue
        leaves.sort()
        # The MFFC boundary always cuts the cone (every non-member fanin
        # of a member is a leaf), so the strict walker cannot raise here.
        table = aig_cone_table(work, node, leaves)
        report.cones_evaluated += 1
        structure = synthesize_structure(table)
        created, valid = _dry_run(work, structure, leaves, node, mffc, engine)
        if not valid:
            continue
        gain = len(mffc) - created
        threshold = 0 if zero_gain or record_choices else 1
        if gain < threshold:
            continue
        new_literal = _instantiate(work, structure, [leaf << 1 for leaf in leaves], None)
        new_node = new_literal >> 1
        if new_node == node:
            continue
        if record_choices:
            if work.add_choice(node, new_literal):
                report.choices_recorded += 1
            continue
        work.substitute(node, new_literal)
        engine.kill(mffc)
        engine.revive_from(new_node)
        report.refactors_applied += 1
        report.estimated_gain += gain
        if gain == 0:
            report.zero_gain_applied += 1

    if record_choices:
        # Additive mode: no cleanup -- the subject graph must stay
        # bit-identical (see repro.rewriting.rewrite).
        report.gates_after = work.num_ands
        return work, report
    cleaned, _literal_map = cleanup_dangling(work)
    report.gates_after = cleaned.num_ands
    return cleaned, report
