"""The Fig. 1 worked example of the paper, end to end.

A five-input network of 2-input NANDs is simulated with the ten patterns
printed in Section III-C; the signatures of the two specified nodes (7 and
8) obtained through the cut algorithm must agree with direct per-pattern
simulation, and the cut decomposition must be the one shown in Fig. 1(b).
"""

from repro.cuts import simulation_cuts
from repro.simulation import (
    PatternSet,
    StpSimulator,
    cut_limit_for_patterns,
    simulate_klut_per_pattern,
)

#: The pattern block printed in the paper: 5 inputs x 10 patterns.
PAPER_PATTERNS = "01110010111010011011111001100000000111111010000101"


def _paper_pattern_set() -> PatternSet:
    strings = [PAPER_PATTERNS[i * 10 : (i + 1) * 10] for i in range(5)]
    return PatternSet.from_input_strings(strings)


class TestFig1:
    def test_pattern_block_shape(self):
        patterns = _paper_pattern_set()
        assert patterns.num_inputs == 5
        assert patterns.num_patterns == 10

    def test_cut_limit_is_three(self):
        assert cut_limit_for_patterns(10) == 3

    def test_cut_decomposition(self, fig1_klut):
        nodes = fig1_klut.fig1_nodes
        targets = [nodes[7], nodes[8], nodes[10], nodes[11]]
        cuts = simulation_cuts(fig1_klut, targets, limit=3)
        roots = {cut.root for cut in cuts}
        assert roots == {nodes[7], nodes[8], nodes[10], nodes[11]}
        volumes = {cut.root: set(cut.volume) for cut in cuts}
        assert volumes[nodes[10]] == {nodes[6]}
        assert volumes[nodes[11]] == {nodes[9]}
        assert volumes[nodes[7]] == set()
        assert volumes[nodes[8]] == set()

    def test_specified_node_signatures_match_direct_simulation(self, fig1_klut):
        nodes = fig1_klut.fig1_nodes
        patterns = _paper_pattern_set()
        direct = simulate_klut_per_pattern(fig1_klut, patterns)
        via_cuts = StpSimulator(fig1_klut).simulate_nodes(patterns, [nodes[7], nodes[8]])
        for target in (nodes[7], nodes[8]):
            assert via_cuts[target] == direct.signature(target)

    def test_all_node_simulation_matches_direct(self, fig1_klut):
        patterns = _paper_pattern_set()
        direct = simulate_klut_per_pattern(fig1_klut, patterns)
        stp = StpSimulator(fig1_klut).simulate_all(patterns)
        for node in fig1_klut.luts():
            assert stp.signature(node) == direct.signature(node)

    def test_exhaustive_truth_tables_of_specified_nodes(self, fig1_klut):
        """Section III-C: nodes 7 and 8 are NAND functions over their PI support."""
        nodes = fig1_klut.fig1_nodes
        tables = StpSimulator(fig1_klut).exhaustive_truth_tables([nodes[7], nodes[8]])
        # Both are 2-input NANDs over their supports (exhaustive scale 4),
        # which is far smaller than the 10 original patterns.
        assert tables[nodes[7]].to_binary_string() == "0111"
        assert tables[nodes[8]].to_binary_string() == "0111"
