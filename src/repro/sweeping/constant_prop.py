"""Constant-node detection and substitution (Algorithm 2, line 3).

Nodes whose simulation signature is all-zero or all-one are candidate
constants; each candidate is proved (or disproved) with a SAT query and,
when proved, substituted by the constant literal, which lets the strashing
simplifications collapse the downstream logic.  Every counter-example is
simulated immediately (the integration loop of [1]): it usually disproves
many of the remaining constant candidates at once, so they never reach the
solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..networks.aig import Aig, LIT_FALSE, LIT_TRUE
from ..sat.circuit import CircuitSolver, EquivalenceStatus
from ..simulation.incremental import IncrementalAigSimulator
from ..simulation.patterns import PatternSet
from ..truthtable import TruthTable

__all__ = ["ConstantPropagationReport", "propagate_constant_candidates"]


@dataclass
class ConstantPropagationReport:
    """Outcome of one constant-propagation pass."""

    proved: dict[int, bool] = field(default_factory=dict)
    disproved: list[int] = field(default_factory=list)
    undetermined: list[int] = field(default_factory=list)
    counterexamples: list[tuple[int, ...]] = field(default_factory=list)
    substitutions: int = 0
    sat_calls: int = 0
    exhaustive_proofs: int = 0
    exhaustive_disproofs: int = 0

    @property
    def num_proved(self) -> int:
        """Number of nodes proved constant."""
        return len(self.proved)


def propagate_constant_candidates(
    aig: Aig,
    patterns: PatternSet,
    solver: CircuitSolver,
    known_constants: Mapping[int, bool] | None = None,
    local_table: Callable[[int], TruthTable | None] | None = None,
    conflict_limit: int | None = None,
    substitute: bool = True,
) -> ConstantPropagationReport:
    """Prove signature-constant nodes and substitute them by constant literals.

    ``known_constants`` (e.g. from the SAT-guided pattern generation) are
    substituted without further SAT calls.  ``local_table`` looks up a
    node's exhaustive function over its own PI support (``None`` when it
    has none; the STP sweeper builds each on first request).  It settles
    candidates whose support fits the window without any SAT call at
    all: an exhaustive truth table either is constant (proof) or is not
    (disproof).  Counter-examples of SAT-disproved
    candidates are simulated immediately, which removes other false
    constant candidates before they cost a SAT call; the CE patterns are
    also returned so the caller can extend its own pattern set.
    """
    report = ConstantPropagationReport()
    already_proved = dict(known_constants) if known_constants else {}
    simulator = IncrementalAigSimulator(aig, patterns)

    for node in aig.topological_order():
        if not aig.is_and(node):
            continue
        if node in already_proved:
            report.proved[node] = already_proved[node]
            continue
        # Read the packed signature straight from the array-backed
        # simulator (counter-example patterns flush in word-parallel
        # blocks behind this call).
        signature = simulator.signature(node)
        mask = (1 << simulator.num_patterns) - 1
        if signature == 0:
            constant = False
        elif signature == mask:
            constant = True
        else:
            continue
        # Exhaustive local simulation settles the candidate without SAT.
        local = local_table(node) if local_table is not None else None
        if local is not None:
            if local.is_constant():
                report.proved[node] = bool(local.bits)
                report.exhaustive_proofs += 1
            else:
                report.disproved.append(node)
                report.exhaustive_disproofs += 1
            continue
        report.sat_calls += 1
        outcome = solver.prove_constant(Aig.literal(node), constant, conflict_limit)
        if outcome.status is EquivalenceStatus.EQUIVALENT:
            report.proved[node] = constant
        elif outcome.status is EquivalenceStatus.NOT_EQUIVALENT:
            report.disproved.append(node)
            if outcome.counterexample is not None:
                report.counterexamples.append(outcome.counterexample)
                simulator.add_pattern(outcome.counterexample)
        else:
            report.undetermined.append(node)

    if substitute:
        for node, value in report.proved.items():
            if not aig.is_and(node):
                continue
            aig.substitute(node, LIT_TRUE if value else LIT_FALSE)
            report.substitutions += 1
    return report
