"""Tests for the STP-based simulator (Algorithm 1) and its window helpers."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.epfl import EPFL_BENCHMARKS, epfl_benchmark
from repro.circuits.random_logic import random_aig
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import Aig, KLutNetwork, map_aig_to_klut
from repro.cuts import SimulationCut, cut_truth_table, simulation_cuts
from repro.simulation import (
    PatternSet,
    StpSimulator,
    aig_po_signatures,
    compute_local_truth_tables,
    compute_pi_supports,
    cut_limit_for_patterns,
    cut_truth_table_algebraic,
    cut_truth_table_stp,
    klut_po_signatures,
    simulate_aig,
    simulate_klut_per_pattern,
)
from repro.simulation.stp_simulator import (
    compile_table,
    complement_key,
    count_leaf_paths,
    expand_truth_table,
    function_key,
)
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
        stp_result = StpSimulator(small_klut).simulate_all(patterns)
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
        stp = StpSimulator(klut).simulate_all(patterns)
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
    """Every node's STP signature equals the per-pattern k-LUT baseline."""

    @pytest.mark.parametrize("num_patterns", [0, 1, 7, 8, 1001, 1024])
    @pytest.mark.parametrize("seed", range(3))
    def test_every_node_matches_baselines(self, seed, num_patterns):
        network = _hand_built_network(seed)
        assert {len(network.lut_fanins(node)) for node in network.luts()} == set(range(13))
        assert len(network.topological_order()) > len(set(network.tfi(network.po_nodes())) & set(network.luts()))
        patterns = PatternSet.random(network.num_pis, num_patterns, seed=seed + 100)
        stp = StpSimulator(network).simulate_all(patterns)
        per_pattern = simulate_klut_per_pattern(network, patterns)
        assert len(stp.signatures) == network.num_nodes
        for node in network.nodes():
            assert stp.signature(node) == per_pattern.signature(node), node

    @pytest.mark.parametrize("num_patterns", [1, 1001])
    def test_mapped_network_matches_baselines(self, num_patterns):
        aig = random_aig(num_pis=10, num_gates=120, num_pos=6, seed=5)
        for k in (2, 6):
            network, _ = map_aig_to_klut(aig, k=k)
            patterns = PatternSet.random(network.num_pis, num_patterns, seed=k)
            stp = StpSimulator(network).simulate_all(patterns)
            per_pattern = simulate_klut_per_pattern(network, patterns)
            assert stp.signatures == per_pattern.signatures


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
        assert set(targets) <= partial.keys()
        for node, signature in partial.items():
            assert signature == full.signature(node), node

    def test_hand_built_wide_luts_match_all_node_mode(self):
        network = _hand_built_network(7)
        patterns = PatternSet.random(network.num_pis, 1024, seed=7)
        full = StpSimulator(network).simulate_all(patterns)
        for limit in range(9, 13):
            partial = StpSimulator(network).simulate_nodes(patterns, list(network.luts()), limit=limit)
            for node, signature in partial.items():
                assert signature == full.signature(node), (limit, node)

    def test_targets_match_all_node_mode(self, small_klut):
        patterns = PatternSet.random(small_klut.num_pis, 64, seed=13)
        targets = list(small_klut.luts())[:3]
        simulator = StpSimulator(small_klut)
        full = simulator.simulate_all(patterns)
        partial = simulator.simulate_nodes(patterns, targets)
        for target in targets:
            assert partial[target] == full.signature(target)

    def test_explicit_limit(self, fig1_klut):
        nodes = fig1_klut.fig1_nodes
        patterns = PatternSet.random(5, 10, seed=1)
        result = StpSimulator(fig1_klut).simulate_nodes(patterns, [nodes[7], nodes[8]], limit=3)
        baseline = simulate_klut_per_pattern(fig1_klut, patterns)
        assert result[nodes[7]] == baseline.signature(nodes[7])
        assert result[nodes[8]] == baseline.signature(nodes[8])

    def test_input_count_checked(self, small_klut):
        with pytest.raises(ValueError):
            StpSimulator(small_klut).simulate_nodes(PatternSet.random(2, 8), [0])


def _lookup_signature(table, input_words, num_patterns):
    """Reference: read ``table`` at each pattern's assignment, one pattern at a time."""
    signature = 0
    for pattern in range(num_patterns):
        assignment = sum(((word >> pattern) & 1) << position for position, word in enumerate(input_words))
        signature |= table.value_at(assignment) << pattern
    return signature


def _program_registers(program):
    ops, output = program
    return {output} | {register for op in ops for register in op}


class TestCompiledTables:
    """Each LUT's op list equals a per-pattern lookup of its table."""

    @staticmethod
    def _tables(seed):
        rng = random.Random(seed)
        tables = [TruthTable(arity, bits) for arity in range(4) for bits in range(1 << (1 << arity))]
        return tables + [TruthTable(arity, rng.getrandbits(1 << arity)) for arity in range(4, 13) for _ in range(3)]

    @pytest.mark.parametrize("arity", range(1, 7))
    def test_column_blocks_are_the_top_input_cofactors(self, arity):
        # The derivation the compiler rests on: the structural matrix's
        # first row, reversed, is the table, and its left and right column
        # blocks are the matrices of the high and low cofactors.
        from repro.truthtable import truth_table_to_structural_matrix

        table = TruthTable(arity, random.Random(arity).getrandbits(1 << arity))
        matrix = truth_table_to_structural_matrix(table)
        assert [int(value) for value in matrix[0, ::-1]] == table.to_bit_list()
        half = 1 << (arity - 1)
        high = TruthTable(arity - 1, table.bits >> half)
        low = TruthTable(arity - 1, table.bits & ((1 << half) - 1))
        assert (matrix[:, :half] == truth_table_to_structural_matrix(high)).all()
        assert (matrix[:, half:] == truth_table_to_structural_matrix(low)).all()

    @pytest.mark.parametrize("num_patterns", [0, 7, 1001])
    def test_every_small_and_random_wide_function_matches_lookup(self, num_patterns):
        rng = random.Random(num_patterns)
        network = KLutNetwork()
        pis = [network.add_pi() for _ in range(12)]
        luts = []
        for table in self._tables(num_patterns):
            fanins = rng.sample(pis, table.num_vars)
            luts.append((network.add_lut(fanins, table), fanins, table))
        patterns = PatternSet.random(len(pis), num_patterns, seed=num_patterns + 1)
        result = StpSimulator(network).simulate_all(patterns)
        words = {pi: patterns.input_word(position) for position, pi in enumerate(pis)}
        for node, fanins, table in luts:
            expected = _lookup_signature(table, [words[fanin] for fanin in fanins], num_patterns)
            assert result.signature(node) == expected, table

    @pytest.mark.parametrize("arity", range(1, 9))
    def test_redundant_top_input_is_never_read(self, arity):
        rng = random.Random(arity)
        table = TruthTable(arity - 1, rng.getrandbits(1 << (arity - 1))).extend(arity)
        assert not table.depends_on(arity - 1)
        assert 2 + arity - 1 not in _program_registers(compile_table(table))

    @pytest.mark.parametrize("arity", range(6))
    def test_constants_compile_to_constant_registers(self, arity):
        assert compile_table(TruthTable.constant(False, arity)) == ((), 0)
        assert compile_table(TruthTable.constant(True, arity)) == ((), 1)

    @pytest.mark.parametrize("arity", range(1, 6))
    def test_constant_cofactors_of_both_polarities(self, arity):
        top = 2 + arity - 1
        variable = TruthTable.variable(arity - 1, arity)
        assert compile_table(variable) == ((), top)
        assert compile_table(~variable) == (((top, 1, 0),), 2 + arity)
        if arity < 2:
            return
        rest = TruthTable.variable(0, arity)
        cases = {
            variable & rest: (0, 2),  # low half 0
            variable | rest: (2, 1),  # high half 1
            ~variable & rest: (2, 0),  # high half 0
            ~variable | rest: (1, 2),  # low half 1
        }
        for table, (lo, hi) in cases.items():
            assert compile_table(table) == (((top, lo, hi),), 2 + arity), table


def _pi_pair_lut(table):
    """Two PIs ``a``, ``b`` and one LUT ``table`` over them, ``b`` its top input."""
    network = KLutNetwork()
    a, b = network.add_pi(), network.add_pi()
    return network, network.add_lut([a, b], table)


_A, _B = TruthTable.variable(0, 2), TruthTable.variable(1, 2)


class TestLaidOutOpForms:
    """Each op's form, read off its constant cofactor registers, equals a per-pattern lookup."""

    # Globally, register 2 holds PI ``a`` and register 3 PI ``b``.
    FORMS = {
        "lo & ~x": (_A & ~_B, (3, 2, 0)),
        "x & hi": (_A & _B, (3, 0, 2)),
        "lo | x": (_A | _B, (3, 2, 1)),
        "hi | ~x": (_A | ~_B, (3, 1, 2)),
        "~x": (~_B, (3, 1, 0)),
    }

    @pytest.mark.parametrize("num_patterns", [0, 7, 1001])
    @pytest.mark.parametrize("form", FORMS)
    def test_constant_cofactor_forms(self, form, num_patterns):
        table, op = self.FORMS[form]
        network, lut = _pi_pair_lut(table)
        simulator = StpSimulator(network)
        assert simulator._program == [op]
        patterns = PatternSet.random(2, num_patterns, seed=num_patterns)
        words = [patterns.input_word(0), patterns.input_word(1)]
        assert simulator.simulate_all(patterns).signature(lut) == _lookup_signature(table, words, num_patterns)

    @pytest.mark.parametrize("num_patterns", [0, 7, 1001])
    def test_general_select(self, num_patterns):
        # ``c ? b : a`` over PIs a, b, c: no cofactor is constant.
        network = KLutNetwork()
        pis = [network.add_pi() for _ in range(3)]
        table = TruthTable.from_function(lambda a, b, c: b if c else a, 3)
        lut = network.add_lut(pis, table)
        simulator = StpSimulator(network)
        assert simulator._program == [(4, 2, 3)]
        patterns = PatternSet.random(3, num_patterns, seed=num_patterns)
        words = [patterns.input_word(position) for position in range(3)]
        assert simulator.simulate_all(patterns).signature(lut) == _lookup_signature(table, words, num_patterns)

    @pytest.mark.parametrize("num_patterns", [0, 7, 1001])
    def test_aliases_and_forms_over_earlier_luts(self, num_patterns):
        # A LUT that passes a fanin through or outputs a constant gets no
        # op; LUTs reading it read the aliased register.  The other LUTs
        # chain every form on registers written by earlier ops.
        network = KLutNetwork()
        pis = [network.add_pi() for _ in range(3)]
        true = TruthTable.constant(True, 2)
        passthrough = network.add_lut(pis[:2], _B)
        constant = network.add_lut(pis[1:], true)
        luts = [(passthrough, pis[:2], _B), (constant, pis[1:], true)]
        for fanins, table in [
            ((pis[0], passthrough), _A & ~_B),
            ((passthrough, pis[2]), _A | ~_B),
            ((constant, pis[0]), _A & _B),
            ((pis[2], constant), _A | _B),
        ]:
            luts.append((network.add_lut(fanins, table), fanins, table))
        fanins = [node for node, _fanins, _table in luts[2:5]]
        mux = TruthTable.from_function(lambda a, b, c: b if c else a, 3)
        luts.append((network.add_lut(fanins, mux), fanins, mux))
        simulator = StpSimulator(network)
        assert simulator._registers[passthrough] == 3 and simulator._registers[constant] == 1
        assert len(simulator._program) == 5
        patterns = PatternSet.random(3, num_patterns, seed=num_patterns + 3)
        words = {pi: patterns.input_word(position) for position, pi in enumerate(pis)}
        result = simulator.simulate_all(patterns)
        for node, fanins, table in luts:
            words[node] = _lookup_signature(table, [words[fanin] for fanin in fanins], num_patterns)
            assert result.signature(node) == words[node], node


@pytest.fixture(scope="module")
def epfl_maps():
    maps = []
    for name in EPFL_BENCHMARKS:
        aig = epfl_benchmark(name)
        maps.append((name, aig, map_aig_to_klut(aig, k=6)[0], map_aig_to_klut(aig, k=2)[0]))
    return maps


class TestEpflMaps:
    """Every node of the EPFL profiles' 6- and 2-LUT maps against the per-pattern simulator."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_node_matches_per_pattern_and_aig(self, epfl_maps, seed):
        for name, aig, *maps in epfl_maps:
            patterns = PatternSet.random(aig.num_pis, 100, seed=seed)
            aig_outputs = aig_po_signatures(aig, simulate_aig(aig, patterns))
            for network in maps:
                stp = StpSimulator(network).simulate_all(patterns)
                assert len(stp.signatures) == network.num_nodes, name
                assert stp.signatures == simulate_klut_per_pattern(network, patterns).signatures, name
                assert klut_po_signatures(network, stp) == aig_outputs, name


class TestCutTruthTables:
    def test_word_level_matches_algebraic(self, small_klut):
        cuts = simulation_cuts(small_klut, list(small_klut.luts()), limit=4)
        for cut in cuts:
            assert cut_truth_table_stp(small_klut, cut) == cut_truth_table_algebraic(small_klut, cut)

    @pytest.mark.parametrize(
        "network_of",
        [pytest.param(lambda seed=seed: _hand_built_network(seed), id=f"hand-built-{seed}") for seed in range(3)]
        + [
            pytest.param(
                lambda k=k: map_aig_to_klut(random_aig(num_pis=10, num_gates=120, num_pos=6, seed=k), k=k)[0],
                id=f"mapped-k{k}",
            )
            for k in range(2, 7)
        ],
    )
    def test_composed_tables_match_both_references(self, network_of):
        # The algebraic reference multiplies matrices of 2^n columns, with n
        # the number of leaf occurrences in its unnormalised form (one per
        # root-to-leaf path): one 12-leaf cut takes about 40 s and 9 paths
        # take up to a second.  So it checks the cuts with at most 8 paths.
        network = network_of()
        leaf_counts, algebraic_leaf_counts = set(), set()
        for limit, targets in itertools.product((4, 8, 12, 16), (network.po_nodes(), list(network.luts()))):
            for cut in simulation_cuts(network, targets, limit):
                table = cut_truth_table_stp(network, cut)
                assert table == cut_truth_table(network, cut.root, cut.leaves), cut
                leaf_counts.add(len(cut.leaves))
                if count_leaf_paths(network, cut) <= 8:
                    assert table == cut_truth_table_algebraic(network, cut), cut
                    algebraic_leaf_counts.add(len(cut.leaves))
        assert max(leaf_counts) > 4
        assert max(algebraic_leaf_counts) >= 4

    def test_algebraic_leaf_limit(self, small_klut):
        wide_cut = SimulationCut(next(iter(small_klut.luts())), tuple(range(13)), ())
        with pytest.raises(ValueError):
            cut_truth_table_algebraic(small_klut, wide_cut)

    def test_algebraic_path_limit(self):
        # A 9-leaf cut whose cone reconverges into 18 root-to-leaf paths:
        # without the path guard numpy asks for a 32768 x 32768 matrix.
        network = map_aig_to_klut(random_aig(num_pis=10, num_gates=120, num_pos=6, seed=5), k=5)[0]
        # The cut simulation_cuts(network, network.po_nodes(), 12) gives node 23.
        cut = SimulationCut(23, (15, 6, 9, 10, 19, 18, 14, 3, 4), (13, 22, 21, 11, 16, 20))
        assert cut in simulation_cuts(network, network.po_nodes(), 12)
        assert count_leaf_paths(network, cut) == 18
        with pytest.raises(ValueError, match="18"):
            cut_truth_table_algebraic(network, cut)
        assert cut_truth_table_stp(network, cut) == cut_truth_table(network, cut.root, cut.leaves)

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
        from repro.cuts import aig_cone_table

        for node in small_aig.gates():
            expected = aig_cone_table(small_aig, node, list(supports[node]))
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
        # the 24-input table limit) and build their swap masks uncached.
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


def test_epfl_cut_tables_match_cone_walk():
    """Cut functions on the ``sin`` profile's 6-LUT map: matrix passes against the cone walk."""
    network = map_aig_to_klut(epfl_benchmark("sin"), k=6)[0]
    cuts = simulation_cuts(network, list(network.luts())[::8], limit=8)
    assert max(len(cut.leaves) for cut in cuts) > 6
    for cut in cuts:
        assert cut_truth_table_stp(network, cut) == cut_truth_table(network, cut.root, cut.leaves), cut


def test_local_tables_match_simulation_on_priority():
    """Per-node tables of the ``priority`` profile read back its simulated signatures."""
    aig = epfl_benchmark("priority")
    supports = compute_pi_supports(aig, 12)
    tables = compute_local_truth_tables(aig, 12, supports)
    patterns = PatternSet.random(aig.num_pis, 256, seed=3)
    result = simulate_aig(aig, patterns)
    position = {pi: index for index, pi in enumerate(aig.pis)}
    checked = 0
    for node in aig.gates():
        if tables[node] is None:
            continue
        inputs = [position[pi] for pi in supports[node]]
        for index in range(patterns.num_patterns):
            pattern = patterns.pattern(index)
            assignment = sum(pattern[input_] << bit for bit, input_ in enumerate(inputs))
            assert tables[node].value_at(assignment) == result.value(node, index), (node, index)
        checked += 1
    assert 0 < checked < aig.num_ands
