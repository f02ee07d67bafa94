"""Tests for the word-parallel and per-pattern baseline simulators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.random_logic import random_aig
from repro.networks import map_aig_to_klut
from repro.simulation import (
    PatternSet,
    StpSimulator,
    aig_po_signatures,
    klut_po_signatures,
    po_signatures,
    simulate_aig,
    simulate_aig_nodes,
    simulate_klut_per_pattern,
)


class TestAigSimulation:
    def test_matches_reference_evaluation(self, small_aig):
        patterns = PatternSet.exhaustive(small_aig.num_pis)
        result = simulate_aig(small_aig, patterns)
        po_signatures = aig_po_signatures(small_aig, result)
        for index in range(patterns.num_patterns):
            expected = small_aig.evaluate(patterns.pattern(index))
            got = [bool((sig >> index) & 1) for sig in po_signatures]
            assert got == expected

    def test_input_count_checked(self, small_aig):
        with pytest.raises(ValueError):
            simulate_aig(small_aig, PatternSet.random(3, 8))

    def test_selected_nodes_only(self, small_aig):
        patterns = PatternSet.random(small_aig.num_pis, 32, seed=9)
        full = simulate_aig(small_aig, patterns)
        some_nodes = list(small_aig.gates())[:3]
        partial = simulate_aig_nodes(small_aig, patterns, some_nodes)
        assert set(partial) == set(some_nodes)
        for node in some_nodes:
            assert partial[node] == full.signature(node)


class TestKlutSimulation:
    def test_per_pattern_matches_aig(self, small_aig, small_klut):
        patterns = PatternSet.exhaustive(small_aig.num_pis)
        aig_result = simulate_aig(small_aig, patterns)
        lut_result = simulate_klut_per_pattern(small_klut, patterns)
        assert aig_po_signatures(small_aig, aig_result) == klut_po_signatures(small_klut, lut_result)

    def test_word_parallel_matches_per_pattern(self, small_klut):
        patterns = PatternSet.random(small_klut.num_pis, 64, seed=5)
        per_pattern = simulate_klut_per_pattern(small_klut, patterns)
        word_parallel = StpSimulator(small_klut).simulate_all(patterns)
        for node in small_klut.luts():
            assert per_pattern.signature(node) == word_parallel.signature(node)

    def test_input_count_checked(self, small_klut):
        with pytest.raises(ValueError):
            simulate_klut_per_pattern(small_klut, PatternSet.random(1, 4))
        with pytest.raises(ValueError):
            po_signatures(small_klut, PatternSet.random(1, 4))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_networks_agree_across_simulators(self, seed):
        aig = random_aig(num_pis=6, num_gates=60, num_pos=5, seed=seed)
        klut, _ = map_aig_to_klut(aig, k=4)
        patterns = PatternSet.random(6, 32, seed=seed + 1)
        aig_result = simulate_aig(aig, patterns)
        lut_result = simulate_klut_per_pattern(klut, patterns)
        assert aig_po_signatures(aig, aig_result) == klut_po_signatures(klut, lut_result)
        assert po_signatures(aig, patterns) == po_signatures(klut, patterns) == klut_po_signatures(klut, lut_result)


def test_pattern_words_are_independent_on_bar():
    """1024 patterns in one word equal four 256-pattern slices of them on the ``bar`` profile."""
    from repro.circuits import epfl_benchmark

    aig = epfl_benchmark("bar")
    patterns = PatternSet.random(aig.num_pis, 1024, seed=1)
    full = simulate_aig(aig, patterns)
    for start in range(0, 1024, 256):
        block = PatternSet.from_patterns([patterns.pattern(i) for i in range(start, start + 256)])
        part = simulate_aig(aig, block)
        for node in aig.gates():
            assert part.signature(node) == full.signature(node) >> start & block.mask, (start, node)
