"""Fuzz and invariant tests for the multi-pass LUT mapper.

Every mapped KLUT network is equivalence-checked against its source AIG
by word-parallel simulation -- exhaustively, since the fuzz circuits
have few enough inputs that the exhaustive pattern set is exact -- and
the area-recovery passes are checked never to increase the mapped depth
or the LUT count relative to the depth-oriented first pass.  On small
EPFL profiles area recovery must strictly shrink the mapping.
"""

import pytest

from repro.circuits import epfl_benchmark
from repro.circuits.random_logic import random_aig
from repro.networks.mapping import technology_map
from repro.simulation import (
    PatternSet,
    aig_po_signatures,
    klut_po_signatures,
    simulate_aig,
    simulate_klut_per_pattern,
)

#: Fuzz seeds; 40 as required by the acceptance criteria.
FUZZ_SEEDS = list(range(40))


def _assert_equivalent(aig, network, patterns=None):
    """Word-parallel equivalence check of a mapping (exhaustive by default)."""
    if patterns is None:
        patterns = PatternSet.exhaustive(aig.num_pis)
    aig_signatures = aig_po_signatures(aig, simulate_aig(aig, patterns))
    klut_signatures = klut_po_signatures(network, simulate_klut_per_pattern(network, patterns))
    assert aig_signatures == klut_signatures


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_mapping_fuzz(seed):
    """40-seed fuzz: mapping correctness plus area/depth invariants."""
    aig = random_aig(num_pis=7, num_gates=45 + (seed % 17), num_pos=4, seed=seed)
    k = 3 + seed % 4  # rotate k in {3, 4, 5, 6}
    depth_only = technology_map(aig, k=k, area_rounds=0)
    full = technology_map(aig, k=k, area_rounds=2)

    _assert_equivalent(aig, depth_only.network)
    _assert_equivalent(aig, full.network)

    # Area recovery must never lose area or depth versus the first pass.
    assert full.stats.num_luts <= depth_only.stats.num_luts
    assert full.stats.depth <= depth_only.stats.depth
    assert full.network.max_fanin_size() <= k


@pytest.mark.parametrize("name", ["ctrl", "adder", "router", "cavlc"])
def test_area_recovery_strictly_shrinks_epfl_mappings(name):
    aig = epfl_benchmark(name)
    depth_only = technology_map(aig, k=6, area_rounds=0)
    full = technology_map(aig, k=6)
    _assert_equivalent(aig, full.network, PatternSet.random(aig.num_pis, 256, 11))
    assert full.stats.num_luts < depth_only.stats.num_luts
    assert full.stats.depth <= depth_only.stats.depth


@pytest.mark.parametrize("area_rounds", [0, 1, 2])
def test_each_pass_is_equivalent(area_rounds):
    """Every recovery stage preserves the function, not just the last."""
    aig = random_aig(num_pis=6, num_gates=60, num_pos=5, seed=1234)
    result = technology_map(aig, k=4, area_rounds=area_rounds)
    _assert_equivalent(aig, result.network)


def test_stats_are_consistent():
    aig = random_aig(num_pis=6, num_gates=50, num_pos=3, seed=7)
    result = technology_map(aig, k=4)
    stats = result.stats
    assert stats.num_luts == result.network.num_luts
    assert stats.depth == result.network.depth()
    assert stats.num_edges >= stats.num_luts  # every LUT has at least one edge
    assert stats.passes == ["depth", "area-flow", "exact-area"]
    assert 0.0 <= stats.cache_hit_rate <= 1.0
    assert stats.cache_hits + stats.cache_misses > 0


def test_deep_chain_maps_without_recursion_error():
    """Exact-area ref/deref must not recurse: a 2500-gate AND chain maps fine."""
    from repro.networks import Aig

    aig = Aig("chain")
    inputs = [aig.add_pi() for _ in range(2501)]
    literal = inputs[0]
    for pi in inputs[1:]:
        literal = aig.add_and(literal, pi)
    aig.add_po(literal)
    result = technology_map(aig, k=2, area_rounds=2)
    assert result.stats.num_luts == 2500
    patterns = PatternSet.random(aig.num_pis, 64, 3)
    aig_signatures = aig_po_signatures(aig, simulate_aig(aig, patterns))
    klut_signatures = klut_po_signatures(
        result.network, simulate_klut_per_pattern(result.network, patterns)
    )
    assert aig_signatures == klut_signatures


def test_cache_stats_are_per_run():
    """A pre-warmed shared cache reports this run's lookups, not lifetime totals."""
    from repro.cuts import CutFunctionCache

    aig = random_aig(num_pis=6, num_gates=50, num_pos=3, seed=33)
    cache = CutFunctionCache()
    first = technology_map(aig, k=4, cache=cache)
    second = technology_map(aig, k=4, cache=cache)
    assert second.stats.cache_misses == 0
    assert second.stats.cache_hit_rate == 1.0
    assert second.stats.cache_hits == first.stats.cache_hits + first.stats.cache_misses


def test_shared_cache_reuse_across_runs():
    """A caller-provided function cache carries hits across mappings."""
    from repro.cuts import CutFunctionCache

    aig = random_aig(num_pis=6, num_gates=50, num_pos=3, seed=21)
    cache = CutFunctionCache()
    technology_map(aig, k=4, cache=cache)
    misses_first, hits_first = cache.misses, cache.hits
    technology_map(aig, k=4, cache=cache)
    # The second, identical run answers every merge from the cache.
    assert cache.misses == misses_first
    assert cache.hits > hits_first


@pytest.mark.parametrize("name", ["adder", "sin"])
def test_depth_only_mapping_on_epfl(name):
    aig = epfl_benchmark(name)
    result = technology_map(aig, k=6, area_rounds=0)
    assert result.stats.num_luts == result.network.num_luts > 0
    assert result.stats.depth == result.network.depth()
    assert result.network.max_fanin_size() <= 6
    _assert_equivalent(aig, result.network, PatternSet.random(aig.num_pis, 128, 11))


@pytest.mark.parametrize("name", ["adder", "sin", "max", "mem_ctrl"])
def test_multi_pass_mapping_on_epfl(name):
    aig = epfl_benchmark(name)
    depth_only = technology_map(aig, k=6, area_rounds=0)
    full = technology_map(aig, k=6, area_rounds=2)
    assert 0 < full.stats.num_luts <= depth_only.stats.num_luts
    assert full.stats.depth <= depth_only.stats.depth
    assert full.network.max_fanin_size() <= 6
    _assert_equivalent(aig, full.network, PatternSet.random(aig.num_pis, 128, 11))
