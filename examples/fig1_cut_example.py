#!/usr/bin/env python
"""The Fig. 1 worked example: simulation cuts on a small NAND network.

The paper's example network has five primary inputs, six 2-input NAND
LUTs (truth table "0111") and two outputs.  Ten simulation patterns are
given and only the signatures of nodes 7 and 8 are requested.  The cut
algorithm (Section III-B) with leaf limit floor(log2(10)) = 3 partitions
the network into the cuts (6,10), (7), (8), (9,11); the STP simulator then
computes one structural matrix per cut and evaluates only the cut roots.

Run with:  python examples/fig1_cut_example.py
"""

from __future__ import annotations

from repro.networks import KLutNetwork
from repro.cuts import simulation_cuts
from repro.simulation import (
    PatternSet,
    StpSimulator,
    cut_limit_for_patterns,
    cut_truth_table_stp,
    signature_to_string,
    simulate_klut_per_pattern,
)
from repro.truthtable import TruthTable

#: The ten patterns printed in the paper: five inputs times ten bits.
PAPER_PATTERNS = "01110010111010011011111001100000000111111010000101"


def build_fig1_network() -> tuple[KLutNetwork, dict[int, int]]:
    """The network of Fig. 1(a): all internal nodes are 2-input NANDs."""
    network = KLutNetwork("fig1")
    pi = {i: network.add_pi(f"x{i}") for i in range(1, 6)}
    nand = TruthTable.from_binary_string("0111")
    nodes = {
        6: network.add_lut([pi[1], pi[3]], nand),
        7: network.add_lut([pi[2], pi[3]], nand),
        8: network.add_lut([pi[3], pi[4]], nand),
        9: network.add_lut([pi[4], pi[5]], nand),
    }
    nodes[10] = network.add_lut([nodes[6], nodes[7]], nand)
    nodes[11] = network.add_lut([nodes[8], nodes[9]], nand)
    network.add_po(nodes[10], name="po1")
    network.add_po(nodes[11], name="po2")
    return network, nodes


def main() -> None:
    network, nodes = build_fig1_network()
    label_of = {node: label for label, node in nodes.items()}
    print(f"built {network!r}")

    strings = [PAPER_PATTERNS[i * 10 : (i + 1) * 10] for i in range(5)]
    patterns = PatternSet.from_input_strings(strings)
    print(f"simulation patterns ({patterns.num_patterns}), one row per input:")
    for index, row in enumerate(strings, start=1):
        print(f"  x{index}: {row}")

    limit = cut_limit_for_patterns(patterns.num_patterns)
    print(f"\ncut leaf limit = floor(log2({patterns.num_patterns})) = {limit}")

    targets = [nodes[7], nodes[8], nodes[10], nodes[11]]
    cuts = simulation_cuts(network, targets, limit)
    print("cuts (root <- absorbed interior nodes | leaves):")
    for cut in cuts:
        interior = ", ".join(str(label_of.get(n, n)) for n in cut.volume) or "-"
        leaves = ", ".join(network.pi_names[network.pi_index(n)] if network.is_pi(n) else str(label_of.get(n, n)) for n in cut.leaves)
        table = cut_truth_table_stp(network, cut)
        print(f"  node {label_of[cut.root]:>2} <- [{interior:>5}] | leaves: {leaves:<12} TT = {table.to_binary_string()}")

    # Signatures of the two specified nodes, via the cut-based STP simulation.
    simulator = StpSimulator(network)
    specified = simulator.simulate_nodes(patterns, [nodes[7], nodes[8]], limit=limit)
    direct = simulate_klut_per_pattern(network, patterns)
    print("\nsignatures of the specified nodes (pattern 0 leftmost):")
    for label in (7, 8):
        node = nodes[label]
        stp_signature = signature_to_string(specified[node], patterns.num_patterns)
        reference = direct.bit_string(node)
        print(f"  node {label}: STP-cut simulation {stp_signature}   direct simulation {reference}   match: {stp_signature == reference}")

    # Exhaustive simulation over each node's own support (Section III-C).
    tables = simulator.exhaustive_truth_tables([nodes[7], nodes[8]])
    print("\nexhaustive signatures over each node's own PI support:")
    for label in (7, 8):
        table = tables[nodes[label]]
        print(f"  node {label}: {table.num_vars} support PIs -> {1 << table.num_vars} exhaustive patterns, TT = {table.to_binary_string()}")


if __name__ == "__main__":
    main()
