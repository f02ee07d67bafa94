"""Tests for the maximum fanout-free cone computation."""

import pytest

from repro.networks import Aig
from repro.rewriting.mffc import collect_mffc


def _chain(width: int) -> tuple[Aig, list[int], list[int]]:
    """AND chain over ``width`` PIs; returns (aig, pi literals, gate nodes)."""
    aig = Aig()
    pis = [aig.add_pi() for _ in range(width)]
    gates = []
    literal = pis[0]
    for pi in pis[1:]:
        literal = aig.add_and(literal, pi)
        gates.append(literal >> 1)
    aig.add_po(literal)
    return aig, pis, gates


class TestCollectMffc:
    def test_single_fanout_chain_is_one_cone(self):
        aig, _pis, gates = _chain(5)
        assert collect_mffc(aig, gates[-1]) == set(gates)

    def test_interior_node_of_chain(self):
        aig, _pis, gates = _chain(5)
        # An interior gate's MFFC stops at itself downward: upstream gates
        # are referenced only through it, so they are all in the cone.
        assert collect_mffc(aig, gates[1]) == {gates[0], gates[1]}

    def test_shared_node_excluded(self):
        aig = Aig()
        a, b, c = (aig.add_pi() for _ in range(3))
        shared = aig.add_and(a, b)
        left = aig.add_and(shared, c)
        right = aig.add_and(shared, Aig.negate(c))
        aig.add_po(left)
        aig.add_po(right)
        # `shared` has two fanouts; deleting `left` must not free it.
        assert collect_mffc(aig, left >> 1) == {left >> 1}
        assert collect_mffc(aig, right >> 1) == {right >> 1}

    def test_po_reference_keeps_node_alive(self):
        aig, _pis, gates = _chain(4)
        aig.add_po(Aig.literal(gates[0]))  # the first gate also drives a PO
        cone = collect_mffc(aig, gates[-1])
        assert gates[0] not in cone
        assert cone == set(gates[1:])

    def test_leaves_bound_the_walk(self):
        aig, _pis, gates = _chain(5)
        cone = collect_mffc(aig, gates[-1], leaves=[gates[1]])
        assert cone == set(gates[2:])

    def test_max_size_aborts(self):
        aig, _pis, gates = _chain(10)
        assert collect_mffc(aig, gates[-1], max_size=3) is None
        assert collect_mffc(aig, gates[-1], max_size=len(gates)) == set(gates)

    def test_root_always_included(self):
        aig, _pis, gates = _chain(3)
        aig.add_po(Aig.literal(gates[-1]))  # extra PO ref on the root itself
        assert gates[-1] in collect_mffc(aig, gates[-1])

    def test_non_gate_rejected(self):
        aig, pis, _gates = _chain(3)
        with pytest.raises(ValueError):
            collect_mffc(aig, pis[0] >> 1)

class TestMffcAgainstCleanup:
    def test_mffc_matches_gates_freed_by_substitution(self):
        from repro.circuits.random_logic import random_aig
        from repro.networks.transforms import cleanup_dangling

        for seed in range(5):
            aig = random_aig(num_pis=5, num_gates=40, num_pos=4, seed=seed)
            cleaned, _ = cleanup_dangling(aig)
            order = cleaned.topological_order()
            root = order[-1]
            predicted = len(collect_mffc(cleaned, root))
            # Substituting the root by constant false frees exactly its MFFC.
            work = cleaned.clone()
            work.substitute(root, 0)
            after, _ = cleanup_dangling(work)
            assert cleaned.num_ands - after.num_ands == predicted, seed
