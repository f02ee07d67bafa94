"""SAT-guided initial simulation patterns (Section IV-A of the paper).

Purely random patterns leave many gates with degenerate signatures:
all-zero / all-one signatures (which look like constants) and very low
toggle-rate signatures (which inflate candidate equivalence classes).  The
two-round SAT-guided generator of the paper -- following Amaru et al.,
"SAT-sweeping enhanced for logic synthesis" (DAC'20) -- formulates the
missing value as a SAT constraint and lets the solver produce the pattern:

* round 1 targets gates whose signature is constant so far: the solver is
  asked for an input pattern producing the opposite value; if none exists
  the gate is *proved* constant, feeding constant propagation (``Sc``);
* round 2 targets gates with highly biased signatures (very few ones or
  very few zeros): a pattern producing the minority value is requested,
  which sharpens the equivalence-class split (``Se``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..networks.aig import Aig
from ..sat.circuit import CircuitSolver, EquivalenceStatus
from .bitwise import simulate_aig
from .patterns import PatternSet

__all__ = ["SatGuidedPatterns", "sat_guided_patterns"]

#: A signature with at most this many minority values counts as biased
#: in round 2.
_BIAS_THRESHOLD = 1
#: Re-simulate after this many new patterns rather than after every query.
_RESIMULATION_INTERVAL = 8


@dataclass
class SatGuidedPatterns:
    """Output of the two-round SAT-guided pattern generation.

    Attributes
    ----------
    constant_patterns:
        ``Sc`` -- the round-1 pattern set used for constant propagation.
    equivalence_patterns:
        ``Se`` -- the round-2 pattern set used to seed equivalence classes.
    proven_constants:
        Nodes proved constant during round 1, with their constant value;
        these no longer need SAT calls during sweeping.
    sat_queries:
        Number of SAT queries spent generating the patterns.
    """

    constant_patterns: PatternSet
    equivalence_patterns: PatternSet
    proven_constants: dict[int, bool] = field(default_factory=dict)
    sat_queries: int = 0


def sat_guided_patterns(
    aig: Aig,
    solver: CircuitSolver | None = None,
    num_random: int = 64,
    seed: int = 1,
    max_queries_per_round: int = 16,
    conflict_limit: int | None = 1_000,
) -> SatGuidedPatterns:
    """Generate the two-round SAT-guided pattern sets ``(Sc, Se)``.

    ``max_queries_per_round`` bounds the SAT effort, as the paper does
    through its runtime budget.
    """
    if solver is None:
        solver = CircuitSolver(aig)
    queries = 0
    proven_constants: dict[int, bool] = {}

    # ---- round 1: disprove (or prove) constant-looking signatures --------
    patterns_c = PatternSet.random(aig.num_pis, num_random, seed)
    result = simulate_aig(aig, patterns_c)
    round_queries = 0
    pending_patterns = 0
    for node in aig.topological_order():
        if round_queries >= max_queries_per_round:
            break
        constant = result.is_constant(node)
        if constant is None:
            continue
        round_queries += 1
        queries += 1
        outcome = solver.prove_constant(Aig.literal(node), constant, conflict_limit)
        if outcome.status is EquivalenceStatus.EQUIVALENT:
            proven_constants[node] = constant
        elif outcome.status is EquivalenceStatus.NOT_EQUIVALENT and outcome.counterexample is not None:
            patterns_c.add_pattern(outcome.counterexample)
            pending_patterns += 1
            if pending_patterns >= _RESIMULATION_INTERVAL:
                result = simulate_aig(aig, patterns_c)
                pending_patterns = 0

    # ---- round 2: sharpen biased signatures -------------------------------
    patterns_e = patterns_c.copy()
    result = simulate_aig(aig, patterns_e)
    round_queries = 0
    pending_patterns = 0
    for node in aig.topological_order():
        if round_queries >= max_queries_per_round:
            break
        if node in proven_constants:
            continue
        ones = bin(result.signature(node)).count("1")
        zeros = result.num_patterns - ones
        minority_value = ones <= zeros
        if min(ones, zeros) > _BIAS_THRESHOLD:
            continue
        round_queries += 1
        queries += 1
        outcome = solver.prove_constant(Aig.literal(node), not minority_value, conflict_limit)
        if outcome.status is EquivalenceStatus.EQUIVALENT:
            proven_constants[node] = not minority_value
        elif outcome.status is EquivalenceStatus.NOT_EQUIVALENT and outcome.counterexample is not None:
            patterns_e.add_pattern(outcome.counterexample)
            pending_patterns += 1
            if pending_patterns >= _RESIMULATION_INTERVAL:
                result = simulate_aig(aig, patterns_e)
                pending_patterns = 0

    return SatGuidedPatterns(
        constant_patterns=patterns_c,
        equivalence_patterns=patterns_e,
        proven_constants=proven_constants,
        sat_queries=queries,
    )
