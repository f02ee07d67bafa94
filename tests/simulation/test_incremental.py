"""Tests for the incremental simulator."""

import pytest

from repro.simulation import IncrementalAigSimulator, PatternSet, simulate_aig


class TestIncrementalSimulator:
    def test_initial_state_matches_full_simulation(self, small_aig):
        patterns = PatternSet.random(small_aig.num_pis, 32, seed=2)
        incremental = IncrementalAigSimulator(small_aig, patterns)
        full = simulate_aig(small_aig, patterns)
        for node in small_aig.gates():
            assert incremental.signature(node) == full.signature(node)

    def test_add_pattern_matches_full_resimulation(self, small_aig):
        patterns = PatternSet.random(small_aig.num_pis, 16, seed=3)
        incremental = IncrementalAigSimulator(small_aig, patterns)
        new_patterns = patterns.copy()
        for extra in [(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)]:
            incremental.add_pattern(extra)
            new_patterns.add_pattern(extra)
        full = simulate_aig(small_aig, new_patterns)
        assert incremental.num_patterns == 19
        for node in small_aig.gates():
            assert incremental.signature(node) == full.signature(node)

    def test_add_pattern_block(self, small_aig):
        incremental = IncrementalAigSimulator(small_aig, PatternSet.random(small_aig.num_pis, 8, seed=4))
        block = PatternSet.random(small_aig.num_pis, 8, seed=5)
        incremental.add_patterns(block)
        combined = PatternSet.random(small_aig.num_pis, 8, seed=4)
        combined.extend(block)
        full = simulate_aig(small_aig, combined)
        for node in small_aig.gates():
            assert incremental.signature(node) == full.signature(node)

    def test_empty_start(self, small_aig):
        incremental = IncrementalAigSimulator(small_aig)
        assert incremental.num_patterns == 0
        incremental.add_pattern((1, 0, 1, 0))
        assert incremental.num_patterns == 1

    def test_validation(self, small_aig):
        with pytest.raises(ValueError):
            IncrementalAigSimulator(small_aig, PatternSet.random(2, 4))
        incremental = IncrementalAigSimulator(small_aig)
        with pytest.raises(ValueError):
            incremental.add_pattern((1, 0))
        with pytest.raises(ValueError):
            incremental.add_patterns(PatternSet.random(2, 4))


def test_counterexample_refinement_on_priority():
    """48 counter-examples absorbed one at a time equal one full resimulation."""
    from repro.circuits import epfl_benchmark

    aig = epfl_benchmark("priority")
    patterns = PatternSet.random(aig.num_pis, 64, seed=1)
    simulator = IncrementalAigSimulator(aig, patterns)
    extended = patterns.copy()
    for seed in range(48):
        pattern = tuple((seed >> position) & 1 for position in range(aig.num_pis))
        simulator.add_pattern(pattern)
        extended.add_pattern(pattern)
    full = simulate_aig(aig, extended)
    assert simulator.num_patterns == 112
    for node in aig.gates():
        assert simulator.signature(node) == full.signature(node), node
