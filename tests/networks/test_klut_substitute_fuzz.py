"""40-seed fuzz of the incremental k-LUT mutation surface.

Every seed maps a random AIG to LUTs, performs a burst of
function-preserving substitutions (each LUT replaced by a freshly built
replica with the same fanins and function), and asserts:

* simulation equivalence against the source AIG (exhaustive -- the fuzz
  circuits are small enough for exact pattern sets);
* bookkeeping consistency: the maintained fanout lists / PO reference
  map agree with a from-scratch recount after every burst;
* ``cleanup_dangling`` removes every replaced node and nothing else --
  afterwards no node is dangling and the function is still intact.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits import epfl_benchmark
from repro.circuits.random_logic import random_aig
from repro.networks import cleanup_dangling, map_aig_to_klut, technology_map
from repro.networks.traversal import fanout_counts as fanout_counts_oracle
from repro.simulation import (
    PatternSet,
    aig_po_signatures,
    klut_po_signatures,
    simulate_aig,
    simulate_klut_per_pattern,
)

#: Fuzz seeds; 40 as required by the acceptance criteria.
FUZZ_SEEDS = list(range(40))


def _assert_equivalent(aig, network):
    patterns = PatternSet.exhaustive(aig.num_pis)
    aig_signatures = aig_po_signatures(aig, simulate_aig(aig, patterns))
    klut_signatures = klut_po_signatures(network, simulate_klut_per_pattern(network, patterns))
    assert aig_signatures == klut_signatures


def _assert_bookkeeping_consistent(network):
    oracle = fanout_counts_oracle(network.nodes(), network.gate_fanin_nodes, network.po_nodes())
    assert network.fanout_counts() == oracle
    # The cached topological order stays fanin-consistent and covers
    # every LUT (including the dangling replaced ones).
    order = network.topological_order()
    assert sorted(order) == sorted(network.luts())
    position = {node: i for i, node in enumerate(order)}
    for node in order:
        for fanin in network.lut_fanins(node):
            if network.is_lut(fanin):
                assert position[fanin] < position[node]


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_klut_substitute_fuzz(seed):
    rng = random.Random(seed)
    aig = random_aig(num_pis=7, num_gates=40 + (seed % 13), num_pos=4, seed=seed)
    k = 3 + seed % 4  # rotate k in {3, 4, 5, 6}
    network, _node_map = map_aig_to_klut(aig, k=k)
    _assert_equivalent(aig, network)

    substituted = []
    luts = list(network.luts())
    for _ in range(min(6, len(luts))):
        candidates = [n for n in luts if n not in substituted and network.fanout_count(n) > 0]
        if not candidates:
            break
        target = rng.choice(candidates)
        replica = network.add_lut(network.lut_fanins(target), network.lut_function(target))
        rewritten = network.substitute(target, replica)
        assert rewritten > 0
        assert network.fanout_count(target) == 0  # dangling now
        substituted.append(target)
        _assert_bookkeeping_consistent(network)

    assert substituted, "fuzz network had no substitutable LUT"
    _assert_equivalent(aig, network)

    cleaned, node_map = cleanup_dangling(network)
    # Every replaced node is gone, no survivor is dangling (except PO
    # drivers, whose references live in the PO map).
    for target in substituted:
        assert target not in node_map
    counts = cleaned.fanout_counts()
    for node in cleaned.luts():
        assert counts[node] > 0, f"dangling LUT {node} survived cleanup"
    assert cleaned.num_luts == network.num_luts - len(substituted)
    _assert_equivalent(aig, cleaned)


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_klut_replace_fanin_fuzz(seed):
    """replace_fanin rewires a single LUT and keeps the function intact."""
    rng = random.Random(seed)
    aig = random_aig(num_pis=6, num_gates=35, num_pos=3, seed=seed + 100)
    network, _node_map = map_aig_to_klut(aig, k=4)
    pairs = [
        (gate, fanin)
        for gate in network.luts()
        for fanin in set(network.lut_fanins(gate))
        if network.is_lut(fanin)
    ]
    if not pairs:
        pytest.skip("single-level mapping")
    gate, fanin = rng.choice(pairs)
    replica = network.add_lut(network.lut_fanins(fanin), network.lut_function(fanin))
    assert network.replace_fanin(gate, fanin, replica)
    _assert_bookkeeping_consistent(network)
    _assert_equivalent(aig, network)


@pytest.mark.parametrize("name", ["sin", "mem_ctrl"])
def test_replica_burst_on_an_epfl_mapping(name):
    """Every referenced LUT of an EPFL profile's 6-LUT map replaced by a replica."""
    aig = epfl_benchmark(name)
    network = technology_map(aig, k=6).network.clone()
    rewritten = 0
    replaced = []
    for node in network.topological_order():
        if network.fanout_count(node) == 0:
            continue
        replica = network.add_lut(network.lut_fanins(node), network.lut_function(node))
        rewritten += network.substitute(node, replica)
        replaced.append(node)
    assert rewritten >= len(replaced) > 0
    assert all(network.fanout_count(node) == 0 for node in replaced)
    oracle = fanout_counts_oracle(network.nodes(), network.gate_fanin_nodes, network.po_nodes())
    assert network.fanout_counts() == oracle
    patterns = PatternSet.random(aig.num_pis, 256, 3)
    assert aig_po_signatures(aig, simulate_aig(aig, patterns)) == klut_po_signatures(
        network, simulate_klut_per_pattern(network, patterns)
    )


def test_fanout_counts_of_an_epfl_mapping_match_the_recount():
    network = technology_map(epfl_benchmark("mem_ctrl"), k=6).network
    oracle = fanout_counts_oracle(network.nodes(), network.gate_fanin_nodes, network.po_nodes())
    assert [network.fanout_count(node) for node in network.luts()] == [
        oracle[node] for node in network.luts()
    ]
