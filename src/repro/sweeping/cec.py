"""Combinational equivalence checking (the ``&cec`` verification of Table II).

The paper verifies every swept network against the original with ABC's
``&cec``; this module provides the same check: the two networks are
combined over shared primary inputs, each output pair is first screened by
random simulation and then proved (or disproved) with a SAT miter.

Before the outputs, the miter's internal equalities are proved bottom-up,
as in ABC's CEC (Mishchenko, Chatterjee, Brayton and Eén, "Improvements
to combinational equivalence checking", ICCAD 2006): every AND node is
proved against the first node with the same simulation signature (up to
complement), and each proven equality stays in the solver as two
clauses.  Nothing is merged, so the equalities only shorten the output
proofs; an internal pair the solver cannot settle cheaply is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..networks.aig import Aig
from ..sat.circuit import CircuitSolver, EquivalenceStatus
from ..simulation.bitwise import po_signatures, simulate_aig_words
from ..simulation.patterns import PatternSet

__all__ = ["CecResult", "check_combinational_equivalence"]

#: Random patterns whose signatures pair up the miter's internal nodes.
_INTERNAL_PATTERNS = 256

#: Conflict limit of each internal equality proof.
_INTERNAL_CONFLICT_LIMIT = 1_000


@dataclass
class CecResult:
    """Outcome of an equivalence check between two networks."""

    equivalent: bool
    status: str
    failing_output: int | None = None
    counterexample: tuple[int, ...] | None = None
    sat_calls: int = 0
    details: dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.equivalent


def _combine(golden: Aig, revised: Aig) -> tuple[Aig, list[int], list[int]]:
    """Copy both networks into one AIG sharing primary inputs."""
    combined = Aig(name=f"cec_{golden.name}_{revised.name}")
    shared_pis = [combined.add_pi(name) for name in golden.pi_names]

    def copy_network(source: Aig) -> list[int]:
        literal_map: dict[int, int] = {0: 0, 1: 1}
        for pi, shared in zip(source.pis, shared_pis):
            literal_map[Aig.literal(pi)] = shared
            literal_map[Aig.literal(pi, True)] = Aig.negate(shared)
        for node in source.topological_order():
            fanin0, fanin1 = source.fanins(node)
            new0 = literal_map[Aig.regular(fanin0)] ^ (fanin0 & 1)
            new1 = literal_map[Aig.regular(fanin1)] ^ (fanin1 & 1)
            literal = combined.add_and(new0, new1)
            literal_map[Aig.literal(node)] = literal
            literal_map[Aig.literal(node, True)] = Aig.negate(literal)
        return [literal_map[Aig.regular(po)] ^ (po & 1) for po in source.pos]

    golden_outputs = copy_network(golden)
    revised_outputs = copy_network(revised)
    return combined, golden_outputs, revised_outputs


def _prove_internal_equalities(miter: Aig, solver: CircuitSolver, seed: int) -> None:
    """Prove each AND node equal to the first node with its signature, up to complement.

    The first node may be the constant, a PI or an earlier AND node.
    Nodes are visited in topological order, so a proof finds the
    equalities of its fanin cones already in the solver.  A disproved or
    undetermined pair is left alone.
    """
    patterns = PatternSet.random(miter.num_pis, _INTERNAL_PATTERNS, seed)
    words = simulate_aig_words(miter, patterns)
    mask = patterns.mask
    first: dict[int, int] = {}
    for node in [0, *miter.pis, *miter.topological_order()]:
        word = words[node]
        complemented = bool(word & 1)
        literal = Aig.literal(node, complemented)
        representative = first.setdefault(word ^ mask if complemented else word, literal)
        if representative != literal:
            solver.prove_equivalence(representative, literal, _INTERNAL_CONFLICT_LIMIT)


def check_combinational_equivalence(
    golden: Aig,
    revised: Aig,
    num_random_patterns: int = 64,
    seed: int = 7,
    conflict_limit: int | None = None,
) -> CecResult:
    """Check that two AIGs compute the same outputs on all inputs.

    Random simulation screens for cheap mismatches first; the miter's
    internal equalities are then proved bottom-up (see the module
    docstring), and every output pair is proved with a SAT miter.  A
    ``conflict_limit`` on the output proofs can turn the answer into
    ``"undetermined"``; ``sat_calls`` counts the internal proofs too.
    """
    if golden.num_pis != revised.num_pis:
        return CecResult(False, "pi_count_mismatch")
    if golden.num_pos != revised.num_pos:
        return CecResult(False, "po_count_mismatch")

    # Fast random screening on both networks separately.
    if golden.num_pis > 0 and num_random_patterns > 0:
        patterns = PatternSet.random(golden.num_pis, num_random_patterns, seed)
        golden_pos = po_signatures(golden, patterns)
        revised_pos = po_signatures(revised, patterns)
        for index, (a, b) in enumerate(zip(golden_pos, revised_pos)):
            if a != b:
                mismatch_bit = (a ^ b) & -(a ^ b)
                pattern_index = mismatch_bit.bit_length() - 1
                return CecResult(
                    False,
                    "simulation_mismatch",
                    failing_output=index,
                    counterexample=patterns.pattern(pattern_index),
                )

    combined, golden_outputs, revised_outputs = _combine(golden, revised)
    solver = CircuitSolver(combined, conflict_limit=conflict_limit)
    _prove_internal_equalities(combined, solver, seed)
    for index, (literal_a, literal_b) in enumerate(zip(golden_outputs, revised_outputs)):
        outcome = solver.prove_equivalence(literal_a, literal_b, conflict_limit)
        if outcome.status is EquivalenceStatus.NOT_EQUIVALENT:
            return CecResult(
                False,
                "sat_counterexample",
                failing_output=index,
                counterexample=outcome.counterexample,
                sat_calls=solver.num_queries,
            )
        if outcome.status is EquivalenceStatus.UNDETERMINED:
            return CecResult(
                False,
                "undetermined",
                failing_output=index,
                sat_calls=solver.num_queries,
            )
    return CecResult(True, "equivalent", sat_calls=solver.num_queries)
