"""Tests for the STP-based simulator (Algorithm 1) and its window helpers."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.random_logic import random_aig
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import Aig, KLutNetwork, map_aig_to_klut
from repro.cuts import simulation_cuts
from repro.simulation import (
    PatternSet,
    StpSimulator,
    compute_local_truth_tables,
    compute_pi_supports,
    cut_limit_for_patterns,
    cut_truth_table_stp,
    klut_po_signatures,
    simulate_aig,
    simulate_klut_minterm,
    simulate_klut_per_pattern,
    simulate_klut_stp,
)
from repro.simulation.stp_simulator import complement_key, expand_truth_table, function_key
from repro.truthtable import TruthTable


class TestCutLimit:
    def test_matches_paper_example(self):
        # 10 patterns: 3 < log2(10) < 4, so the limit is 3.
        assert cut_limit_for_patterns(10) == 3

    def test_bounds(self):
        assert cut_limit_for_patterns(1) == 1
        assert cut_limit_for_patterns(2) == 1
        assert cut_limit_for_patterns(1 << 20) == 16
        assert cut_limit_for_patterns(1 << 20, maximum=12) == 12


class TestAllNodeMode:
    def test_matches_per_pattern_baseline(self, small_klut):
        patterns = PatternSet.random(small_klut.num_pis, 64, seed=11)
        baseline = simulate_klut_per_pattern(small_klut, patterns)
        stp = StpSimulator(small_klut).simulate_all(patterns)
        for node in small_klut.luts():
            assert stp.signature(node) == baseline.signature(node)

    def test_matches_aig_semantics(self, small_aig, small_klut):
        patterns = PatternSet.exhaustive(small_aig.num_pis)
        aig_result = simulate_aig(small_aig, patterns)
        stp_result = simulate_klut_stp(small_klut, patterns)
        from repro.simulation import aig_po_signatures

        assert aig_po_signatures(small_aig, aig_result) == klut_po_signatures(small_klut, stp_result)

    def test_input_count_checked(self, small_klut):
        with pytest.raises(ValueError):
            StpSimulator(small_klut).simulate_all(PatternSet.random(2, 8))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=5))
    def test_random_networks(self, seed, k):
        aig = random_aig(num_pis=6, num_gates=50, num_pos=4, seed=seed)
        klut, _ = map_aig_to_klut(aig, k=k)
        patterns = PatternSet.random(6, 48, seed=seed)
        baseline = simulate_klut_per_pattern(klut, patterns)
        stp = simulate_klut_stp(klut, patterns)
        assert klut_po_signatures(klut, baseline) == klut_po_signatures(klut, stp)


def _hand_built_network(seed: int, num_pis: int = 12) -> KLutNetwork:
    """LUTs of every arity 0-12 over PIs, constants and earlier LUTs.

    The mapper never emits 0-input or 9-12-input LUTs; here every arity
    appears.  Some LUTs are left dangling, and POs are driven by LUTs,
    PIs and constants.
    """
    rng = random.Random(seed)
    network = KLutNetwork()
    pis = [network.add_pi() for _ in range(num_pis)]
    nodes = [network.constant_node(False), network.constant_node(True), *pis]
    luts = []
    for arity in list(range(13)) + [rng.randint(0, 12) for _ in range(12)]:
        fanins = rng.sample(nodes, arity)
        luts.append(network.add_lut(fanins, TruthTable(arity, rng.getrandbits(1 << arity))))
        nodes.append(luts[-1])
    for node in rng.sample(luts, len(luts) // 2):
        network.add_po(node, negated=rng.random() < 0.5)
    network.add_po(pis[0])
    network.add_po(pis[-1], negated=True)
    network.add_po(network.constant_node(True))
    return network


def _lut_trees(seed: int, num_pis: int = 12) -> KLutNetwork:
    """Fanout-free trees of random 2- and 3-LUTs, each over all PIs.

    Every internal LUT has one fanout, so a tree's simulation cut grows
    up to the leaf limit.
    """
    rng = random.Random(seed)
    network = KLutNetwork()
    pis = [network.add_pi() for _ in range(num_pis)]
    for _tree in range(3):
        frontier = rng.sample(pis, num_pis)
        while len(frontier) > 1:
            arity = min(len(frontier), rng.choice((2, 2, 3)))
            fanins = [frontier.pop(rng.randrange(len(frontier))) for _ in range(arity)]
            frontier.append(network.add_lut(fanins, TruthTable(arity, rng.getrandbits(1 << arity))))
        network.add_po(frontier[0])
    return network


class TestAllNodeOracles:
    """Every node's STP signature equals both k-LUT baselines."""

    @pytest.mark.parametrize("num_patterns", [0, 1, 7, 8, 1001, 1024])
    @pytest.mark.parametrize("seed", range(3))
    def test_every_node_matches_baselines(self, seed, num_patterns):
        network = _hand_built_network(seed)
        assert {len(network.lut_fanins(node)) for node in network.luts()} == set(range(13))
        assert len(network.topological_order()) > len(set(network.tfi(network.po_nodes())) & set(network.luts()))
        patterns = PatternSet.random(network.num_pis, num_patterns, seed=seed + 100)
        stp = StpSimulator(network).simulate_all(patterns)
        per_pattern = simulate_klut_per_pattern(network, patterns)
        minterm = simulate_klut_minterm(network, patterns)
        assert stp.signatures.keys() == set(network.nodes())
        for node in network.nodes():
            assert stp.signature(node) == per_pattern.signature(node) == minterm.signature(node), node

    @pytest.mark.parametrize("num_patterns", [1, 1001])
    def test_mapped_network_matches_baselines(self, num_patterns):
        aig = random_aig(num_pis=10, num_gates=120, num_pos=6, seed=5)
        for k in (2, 6):
            network, _ = map_aig_to_klut(aig, k=k)
            patterns = PatternSet.random(network.num_pis, num_patterns, seed=k)
            stp = StpSimulator(network).simulate_all(patterns)
            minterm = simulate_klut_minterm(network, patterns)
            assert stp.signatures == minterm.signatures


class TestSpecifiedNodeMode:
    @pytest.mark.parametrize("limit", range(9, 13))
    def test_wide_cuts_match_all_node_mode(self, limit):
        # Limits above 8 give cut tables wider than one byte of index.
        network = _lut_trees(1)
        targets = network.po_nodes()
        assert max(len(cut.leaves) for cut in simulation_cuts(network, targets, limit)) > 8
        patterns = PatternSet.random(network.num_pis, 1001, seed=limit)
        full = StpSimulator(network).simulate_all(patterns)
        partial = StpSimulator(network).simulate_nodes(patterns, targets, limit=limit)
        assert set(targets) <= partial.signatures.keys()
        for node, signature in partial.signatures.items():
            assert signature == full.signature(node), node

    def test_hand_built_wide_luts_match_all_node_mode(self):
        network = _hand_built_network(7)
        patterns = PatternSet.random(network.num_pis, 1024, seed=7)
        full = StpSimulator(network).simulate_all(patterns)
        for limit in range(9, 13):
            partial = StpSimulator(network).simulate_nodes(patterns, list(network.luts()), limit=limit)
            for node, signature in partial.signatures.items():
                assert signature == full.signature(node), (limit, node)

    def test_targets_match_all_node_mode(self, small_klut):
        patterns = PatternSet.random(small_klut.num_pis, 64, seed=13)
        targets = list(small_klut.luts())[:3]
        full = simulate_klut_stp(small_klut, patterns)
        partial = simulate_klut_stp(small_klut, patterns, targets=targets)
        for target in targets:
            assert partial.signature(target) == full.signature(target)

    def test_explicit_limit(self, fig1_klut):
        nodes = fig1_klut.fig1_nodes
        patterns = PatternSet.random(5, 10, seed=1)
        result = simulate_klut_stp(fig1_klut, patterns, targets=[nodes[7], nodes[8]], limit=3)
        baseline = simulate_klut_per_pattern(fig1_klut, patterns)
        assert result.signature(nodes[7]) == baseline.signature(nodes[7])
        assert result.signature(nodes[8]) == baseline.signature(nodes[8])

    def test_input_count_checked(self, small_klut):
        with pytest.raises(ValueError):
            StpSimulator(small_klut).simulate_nodes(PatternSet.random(2, 8), [0])


class TestCutTruthTables:
    def test_word_level_matches_algebraic(self, small_klut):
        cuts = simulation_cuts(small_klut, list(small_klut.luts()), limit=4)
        for cut in cuts:
            word_level = cut_truth_table_stp(small_klut, cut)
            algebraic = cut_truth_table_stp(small_klut, cut, use_stp_algebra=True)
            assert word_level == algebraic

    def test_algebraic_leaf_limit(self, small_klut):
        from repro.cuts import SimulationCut

        wide_cut = SimulationCut(next(iter(small_klut.luts())), tuple(range(13)), ())
        with pytest.raises(ValueError):
            cut_truth_table_stp(small_klut, wide_cut, use_stp_algebra=True)

    def test_exhaustive_truth_tables(self, fig1_klut):
        nodes = fig1_klut.fig1_nodes
        simulator = StpSimulator(fig1_klut)
        tables = simulator.exhaustive_truth_tables([nodes[7], nodes[10]])
        # Node 7 is NAND(x2, x3): support of two PIs.
        assert tables[nodes[7]].num_vars == 2
        assert tables[nodes[7]].count_ones() == 3
        # Node 10 depends on x1, x2, x3.
        assert tables[nodes[10]].num_vars == 3

    def test_exhaustive_truth_tables_support_cap(self, small_klut):
        simulator = StpSimulator(small_klut)
        tables = simulator.exhaustive_truth_tables(list(small_klut.luts()), max_support=1)
        assert any(table is None for table in tables.values())


class TestSupportAndLocalTables:
    def test_supports_match_tfi(self, small_aig):
        supports = compute_pi_supports(small_aig)
        for node in small_aig.gates():
            expected = sorted(n for n in small_aig.tfi([node]) if small_aig.is_pi(n))
            assert list(supports[node]) == expected

    def test_support_bound(self, ripple_adder_4):
        supports = compute_pi_supports(ripple_adder_4, max_size=3)
        assert any(value is None for value in supports.values())

    def test_local_tables_match_cone_functions(self, small_aig):
        supports = compute_pi_supports(small_aig)
        tables = compute_local_truth_tables(small_aig, supports=supports)
        from repro.networks.mapping import aig_node_truth_table

        for node in small_aig.gates():
            expected = aig_node_truth_table(small_aig, node, list(supports[node]))
            assert tables[node] == expected

    def test_expand_truth_table(self):
        table = TruthTable.from_function(lambda a, b: a and not b, 2)
        expanded = expand_truth_table(table, [10, 20], [5, 10, 20])
        assert expanded.num_vars == 3
        for assignment in range(8):
            a = bool(assignment & 0b010)
            b = bool(assignment & 0b100)
            assert expanded.value_at(assignment) == (a and not b)

    def test_expand_requires_window_superset(self):
        table = TruthTable.from_function(lambda a: a, 1)
        with pytest.raises(ValueError):
            expand_truth_table(table, [3], [4, 5])


def _shift_or_expand(table, own_leaves, window):
    """Reference expansion: one full-array shift/or pass per own leaf."""
    positions = {leaf: index for index, leaf in enumerate(window)}
    assignments = np.arange(1 << len(window), dtype=np.int64)
    source_index = np.zeros_like(assignments)
    for own_position, leaf in enumerate(own_leaves):
        source_index |= ((assignments >> positions[leaf]) & 1) << own_position
    bits = [table.value_at(int(source)) for source in source_index]
    return TruthTable.from_bits([int(bit) for bit in bits])


class TestExpansionOracle:
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_shift_or_formula(self, seed):
        rng = random.Random(seed)
        window_size = rng.randint(0, 16) if seed % 4 else 16
        window = sorted(rng.sample(range(100), window_size))
        own = rng.sample(window, rng.randint(0, window_size))
        if seed % 3:
            own.sort()
        table = TruthTable(len(own), rng.getrandbits(1 << len(own)))
        assert expand_truth_table(table, own, window) == _shift_or_expand(table, own, window)


def _redundant_random_aig(seed: int) -> Aig:
    base = random_aig(num_pis=7, num_gates=50, num_pos=5, seed=seed)
    workload, _report = inject_redundancy(
        base, duplication_fraction=0.3, constant_cones=1, near_miss_count=2, cut_size=3, seed=seed + 1
    )
    return workload


class TestFunctionKeyOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_pair_verdict_matches_expand_and_compare(self, seed):
        aig = _redundant_random_aig(seed)
        max_leaves = 6
        supports = compute_pi_supports(aig, max_leaves)
        tables = compute_local_truth_tables(aig, max_leaves, supports)
        nodes = [n for n in aig.nodes() if tables.get(n) is not None and supports.get(n) is not None]
        keys = {n: function_key(tables[n], supports[n]) for n in nodes}
        verdicts = set()
        for a, b in itertools.combinations(nodes, 2):
            window = sorted(set(supports[a]) | set(supports[b]))
            if len(window) > max_leaves:
                continue
            table_a = expand_truth_table(tables[a], supports[a], window)
            table_b = expand_truth_table(tables[b], supports[b], window)
            for inverted in (False, True):
                expected = table_a == (~table_b if inverted else table_b)
                key_b = complement_key(keys[b]) if inverted else keys[b]
                assert (keys[a] == key_b) == expected
                verdicts.add(expected)
        assert verdicts == {False, True}

    def test_key_drops_inessential_leaves(self):
        table = TruthTable.from_function(lambda a, b, c: a and not c, 3)
        assert function_key(table, (4, 7, 9)) == ((4, 9), TruthTable.from_function(lambda a, c: a and not c, 2).bits)
        assert complement_key(function_key(table, (4, 7, 9))) == function_key(~table, (4, 7, 9))
        assert function_key(TruthTable.constant(True, 2), (1, 2)) == ((), 1)


def _gather_table(table, steps):
    """Reference numpy gather: output ``a`` reads ``table`` at ``sum of steps[i]`` over the set inputs ``i``."""
    index = np.zeros(1 << len(steps), dtype=np.int64)
    size = 1
    for step in steps:
        index[size : 2 * size] = index[:size] + step
        size *= 2
    raw = table.bits.to_bytes((table.num_bits + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[: table.num_bits][index]
    return TruthTable(len(steps), int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))


class TestWordLevelMatchesGather:
    """The word-operation projection and table build agree with an index gather."""

    @pytest.mark.parametrize("window_size", range(17, 21))
    def test_expansion_and_projection_beyond_16_leaves(self, window_size):
        # Windows wider than 16 leaves are legal (``--window-leaves`` up to
        # the 24-input table limit) and grow the shared swap masks.
        rng = random.Random(window_size)
        window = sorted(rng.sample(range(64), window_size))
        own = rng.sample(window, rng.randint(window_size - 6, window_size - 1))
        table = TruthTable(len(own), rng.getrandbits(1 << len(own)))
        expanded = expand_truth_table(table, own, window)
        assert expanded == _gather_table(table, [1 << own.index(leaf) if leaf in own else 0 for leaf in window])
        essential = expanded.support()
        projected = _gather_table(expanded, [1 << position for position in essential])
        assert function_key(expanded, window) == (tuple(window[p] for p in essential), projected.bits)

    @pytest.mark.parametrize("seed", range(40))
    def test_function_key_projection(self, seed):
        rng = random.Random(seed)
        window = sorted(rng.sample(range(64), rng.randint(1, 16) if seed % 4 else 16))
        own = sorted(rng.sample(window, rng.randint(0, len(window))))
        table = expand_truth_table(TruthTable(len(own), rng.getrandbits(1 << len(own))), own, window)
        essential = table.support()
        projected = _gather_table(table, [1 << position for position in essential])
        assert function_key(table, window) == (tuple(window[p] for p in essential), projected.bits)

    def test_local_tables_match_gather_expansion(self):
        aig = _redundant_random_aig(11)
        supports = compute_pi_supports(aig, 6)
        tables = compute_local_truth_tables(aig, 6, supports)
        for node in aig.gates():
            if tables[node] is None:
                continue
            fanin_tables = []
            for fanin in aig.fanins(node):
                own = supports[Aig.node_of(fanin)] or ()
                steps = [1 << own.index(leaf) if leaf in own else 0 for leaf in supports[node]]
                expanded = _gather_table(tables[Aig.node_of(fanin)], steps)
                fanin_tables.append(~expanded if Aig.is_complemented(fanin) else expanded)
            assert tables[node] == fanin_tables[0] & fanin_tables[1]
