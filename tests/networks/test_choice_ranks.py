"""Incremental choice-class acyclicity ranks vs the exhaustive oracle.

``add_choice`` answers "would this merge make the choice-collapsed graph
cyclic?" through incrementally maintained class-level topological ranks
(:meth:`_choice_merge_allowed`); the per-link collapsed-graph walk of
``IncrementalNetworkMixin`` (:meth:`_choice_merge_creates_cycle`), which
AIGs share with every other network kind, is retained as the exact oracle.
The fuzz here interleaves merges, class removals, new gates and
topologically-safe substitutes, and asserts after every link that the
rank decision agrees with the oracle and that the rank invariant holds:
class members share a rank and every structural gate edge strictly
increases it.

``substitute`` can close a collapsed cycle among *existing* classes
without any structural cycle; the deterministic tests pin that path --
the cyclic flag trips, merges fall back to the oracle, and the flag
resets once every class dissolves.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits.random_logic import random_aig
from repro.networks.aig import Aig

SEEDS = list(range(20))


def _expected_decision(aig: Aig, repr_node: int, alt_literal: int) -> "bool | None":
    """What ``add_choice`` must answer; ``None`` when refused pre-check.

    Mirrors the eligibility checks, then asks the exhaustive collapsed
    walk -- the oracle -- on the same pre-merge state.
    """
    alt_node = alt_literal >> 1
    if alt_node == repr_node:
        return None
    if not aig.is_gate(repr_node) or not aig.is_gate(alt_node):
        return None
    target = aig._choice_repr.get(repr_node, repr_node)
    if aig._choice_repr.get(alt_node, alt_node) == target:
        return None
    alt_repr = aig._choice_repr.get(alt_node, alt_node)
    alt_members = aig._choice_members.get(alt_repr, [alt_node])
    target_members = aig._choice_members.get(target, [target])
    return not aig._choice_merge_creates_cycle(list(target_members) + list(alt_members))


def _check_rank_invariants(aig: Aig) -> None:
    ranks = aig._choice_rank
    if aig._choice_rank_cyclic:
        # Cyclic collapsed graph admits no rank function; must be dropped.
        assert ranks is None
        return
    if ranks is None:
        return
    for members in aig._choice_members.values():
        assert len({ranks[member] for member in members}) == 1
    for node in aig.topological_order():
        for fanin in aig.gate_fanin_nodes(node):
            if aig.is_gate(fanin):
                # Classes never share a structural edge while acyclic, so
                # every gate edge crosses classes and must climb strictly.
                assert ranks[fanin] < ranks[node], (fanin, node)


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_decisions_agree_with_the_oracle(seed: int) -> None:
    rng = random.Random(seed)
    aig = random_aig(num_pis=6, num_gates=90, num_pos=5, seed=seed)
    links = accepted = 0
    for step in range(150):
        gates = aig.topological_order()
        roll = rng.random()
        if roll < 0.65:
            repr_node = rng.choice(gates)
            alt = Aig.literal(rng.choice(gates), rng.random() < 0.5)
            expected = _expected_decision(aig, repr_node, alt)
            outcome = aig.add_choice(repr_node, alt)
            if expected is None:
                assert outcome is False
            else:
                links += 1
                accepted += outcome
                assert outcome == expected, (seed, step, repr_node, alt)
        elif roll < 0.75 and aig._choice_repr:
            aig.remove_choice(rng.choice(sorted(aig._choice_repr)))
        elif roll < 0.9 and len(gates) > 2:
            # Topologically-safe substitute: the replacement precedes the
            # replaced gate, so no *structural* cycle can form (collapsed
            # cycles still can -- exactly the path under test).
            position = rng.randrange(1, len(gates))
            old = gates[position]
            pool = list(aig.pis) + gates[:position]
            new_node = rng.choice(pool)
            if new_node != old:
                aig.substitute(old, Aig.literal(new_node, rng.random() < 0.5))
        else:
            a = Aig.literal(rng.choice(gates), rng.random() < 0.5)
            b = Aig.literal(rng.choice(list(aig.pis) + gates), rng.random() < 0.5)
            aig.add_and(a, b)
        if step % 10 == 0:
            _check_rank_invariants(aig)
    _check_rank_invariants(aig)
    assert links > 10, "fuzz exercised too few merge decisions"


def test_equal_rank_merge_is_accepted_without_a_walk() -> None:
    aig = Aig("flat")
    a, b, c, d = (aig.add_pi() for _ in range(4))
    g1 = aig.add_and(a, b) >> 1
    g2 = aig.add_and(c, d) >> 1
    aig.add_po(Aig.literal(g1))
    aig.add_po(Aig.literal(g2))
    assert aig.add_choice(g1, Aig.literal(g2))
    ranks = aig._choice_rank
    assert ranks is not None and ranks[g1] == ranks[g2]


def test_merge_with_own_fanout_cone_is_refused() -> None:
    aig = Aig("cone")
    a, b, c = (aig.add_pi() for _ in range(3))
    g1 = aig.add_and(a, b) >> 1
    g2 = aig.add_and(Aig.literal(g1), c) >> 1  # g2 in TFO of g1
    aig.add_po(Aig.literal(g2))
    assert not aig.add_choice(g1, Aig.literal(g2))
    assert not aig.add_choice(g2, Aig.literal(g1))
    assert not aig._choice_rank_cyclic


def _closed_collapsed_cycle() -> Aig:
    """A network where ``substitute`` closes a collapsed (not structural) cycle.

    Class ``{p, q}`` is formed while their cones are disjoint; rewiring
    ``q``'s fanin ``s`` onto ``r`` (a fanout of ``p``) then yields the
    collapsed cycle ``{p,q} -> r -> {p,q}`` with the structural graph
    still perfectly acyclic.
    """
    aig = Aig("collapsed-cycle")
    a, b, c, d = (aig.add_pi(n) for n in "abcd")
    p = aig.add_and(a, b) >> 1
    s = aig.add_and(a, c) >> 1
    q = aig.add_and(Aig.literal(s), d) >> 1
    r = aig.add_and(Aig.literal(p), c) >> 1
    aig.add_po(Aig.literal(q), "q")
    aig.add_po(Aig.literal(r), "r")
    assert aig.add_choice(p, Aig.literal(q))
    assert aig._choice_rank is not None and not aig._choice_rank_cyclic
    aig.substitute(s, Aig.literal(r))
    return aig


def test_substitute_closing_a_collapsed_cycle_trips_the_fallback() -> None:
    aig = _closed_collapsed_cycle()
    assert aig._choice_rank_cyclic
    assert aig._choice_rank is None
    # Merges still work -- answered by the exact oracle until the cyclic
    # classes dissolve.
    g1 = aig.add_and(Aig.literal(aig.pis[0]), Aig.literal(aig.pis[3], True)) >> 1
    g2 = aig.add_and(Aig.literal(aig.pis[1]), Aig.literal(aig.pis[3], True)) >> 1
    assert _expected_decision(aig, g1, Aig.literal(g2)) is True
    assert aig.add_choice(g1, Aig.literal(g2))
    assert aig._choice_rank_cyclic  # fallback does not rebuild ranks
    # Dissolving every class resets the flag and re-arms the rank path.
    for representative in list(aig._choice_members):
        for member in list(aig._choice_members.get(representative, ())):
            aig.remove_choice(member)
    assert not aig._choice_members
    assert not aig._choice_rank_cyclic
    assert aig.add_choice(g1, Aig.literal(g2))
    assert aig._choice_rank is not None


def test_clear_choices_resets_the_cyclic_flag() -> None:
    aig = _closed_collapsed_cycle()
    assert aig._choice_rank_cyclic
    aig.clear_choices()
    assert not aig._choice_rank_cyclic
    g1 = aig.add_and(Aig.literal(aig.pis[0]), Aig.literal(aig.pis[3], True)) >> 1
    g2 = aig.add_and(Aig.literal(aig.pis[1]), Aig.literal(aig.pis[3], True)) >> 1
    assert aig.add_choice(g1, Aig.literal(g2))
    assert aig._choice_rank is not None and not aig._choice_rank_cyclic


def test_rank_build_detects_a_pre_existing_collapsed_cycle() -> None:
    """White-box: a fresh build over a cyclic collapsed graph must bail."""
    aig = _closed_collapsed_cycle()
    # Simulate a state where the cycle exists but was never flagged (as a
    # fresh build would encounter it).
    aig._choice_rank_cyclic = False
    aig._choice_rank = None
    g1 = aig.add_and(Aig.literal(aig.pis[0]), Aig.literal(aig.pis[3], True)) >> 1
    g2 = aig.add_and(Aig.literal(aig.pis[1]), Aig.literal(aig.pis[3], True)) >> 1
    assert aig.add_choice(g1, Aig.literal(g2))  # oracle fallback, still correct
    assert aig._choice_rank_cyclic
    assert aig._choice_rank is None


def test_clone_copies_ranks_independently() -> None:
    aig = Aig("clone")
    a, b, c, d = (aig.add_pi() for _ in range(4))
    g1 = aig.add_and(a, b) >> 1
    g2 = aig.add_and(c, d) >> 1
    aig.add_po(Aig.literal(g1))
    aig.add_po(Aig.literal(g2))
    assert aig.add_choice(g1, Aig.literal(g2))
    other = aig.clone()
    assert other._choice_rank == aig._choice_rank
    assert other._choice_rank is not aig._choice_rank
    assert other._choice_rank_cyclic == aig._choice_rank_cyclic
    other.clear_choices()
    assert aig._choice_members  # original untouched
