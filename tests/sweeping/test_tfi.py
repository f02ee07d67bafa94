"""Tests for the transitive-fanin manager."""

import random

import pytest

from repro.circuits.random_logic import random_aig
from repro.networks import Aig
from repro.sweeping import TfiManager


class TestTfiManager:
    def test_bounded_tfi_respects_limit(self, ripple_adder_4):
        manager = TfiManager(ripple_adder_4, limit=5)
        po_node = Aig.node_of(ripple_adder_4.pos[-1])
        cone = manager.bounded_tfi(po_node)
        assert len(cone) <= 5
        assert po_node in cone

    def test_bounded_tfi_is_the_bounded_bfs_cone(self, small_aig):
        manager = TfiManager(small_aig, limit=100)
        node = Aig.node_of(small_aig.pos[0])
        assert manager.bounded_tfi(node) == frozenset(small_aig.tfi([node], limit=100))

    def test_in_bounded_tfi(self, small_aig):
        manager = TfiManager(small_aig, limit=1000)
        po_node = Aig.node_of(small_aig.pos[0])
        fanin0, _ = small_aig.fanins(po_node)
        assert manager.in_bounded_tfi(Aig.node_of(fanin0), po_node)
        assert not manager.in_bounded_tfi(po_node, Aig.node_of(fanin0)) or Aig.node_of(fanin0) == po_node

    def test_is_legal_merge_rejects_cycles(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        aig.add_po(y)
        manager = TfiManager(aig)
        # Substituting x by y would create a cycle (x is in y's fanin).
        assert not manager.is_legal_merge(Aig.node_of(x), Aig.node_of(y))
        # The other direction is fine.
        assert manager.is_legal_merge(Aig.node_of(y), Aig.node_of(x))
        # Self-merge is never legal.
        assert not manager.is_legal_merge(Aig.node_of(x), Aig.node_of(x))

    def test_order_drivers_prefers_tfi_members(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        z = aig.add_and(a, c)  # not in y's TFI
        aig.add_po(y)
        aig.add_po(z)
        manager = TfiManager(aig)
        ordered = manager.order_drivers(Aig.node_of(y), [Aig.node_of(z), Aig.node_of(x)])
        assert ordered[0] == Aig.node_of(x)

    def test_limit_validation(self, small_aig):
        with pytest.raises(ValueError):
            TfiManager(small_aig, limit=0)


def _substituted_random_aig(seed: int) -> Aig:
    """A random AIG with a few sweeping-style merges (drivers created earlier)."""
    rng = random.Random(seed)
    aig = random_aig(num_pis=6, num_gates=80, num_pos=6, seed=seed)
    gates = list(aig.gates())
    for node in rng.sample(gates, 6):
        driver = rng.randrange(0, node)
        aig.substitute(node, Aig.literal(driver, rng.random() < 0.5))
    return aig


class TestOrderDriversOracle:
    @pytest.mark.parametrize("limit", [1, 5, 17, 1000])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_sorted_bounded_cone(self, seed, limit):
        rng = random.Random(1000 * seed + limit)
        aig = _substituted_random_aig(seed)
        manager = TfiManager(aig, limit=limit)
        nodes = list(aig.nodes())
        for candidate in aig.gates():
            cone = manager.bounded_tfi(candidate)
            for size in (0, 1, 2, 3, 8, len(nodes)):
                drivers = rng.sample(nodes, min(size, len(nodes)))
                expected = sorted(drivers, key=lambda d: (d not in cone, d))
                assert manager.order_drivers(candidate, drivers) == expected

    def test_short_lists_are_returned_unchanged(self, small_aig):
        manager = TfiManager(small_aig)
        assert manager.order_drivers(5, []) == []
        assert manager.order_drivers(5, [3]) == [3]
