"""Bitwise (word-parallel and per-pattern) reference simulators.

These are the baselines the paper compares the STP simulator against
(Table I, "Mockturtle" columns):

* :func:`simulate_aig` -- word-parallel AIG simulation ("TA"): every node's
  signature is computed with two bitwise operations on packed words, the
  classical fast path of modern simulators;
* :func:`simulate_klut_per_pattern` -- k-LUT simulation by extracting each
  pattern bit individually and looking it up in the node's truth table
  ("TL"): the slow path the paper observes in off-the-shelf simulators,
  because bitwise AND/OR/XOR words do not directly implement an arbitrary
  k-input LUT.

Word-parallel k-LUT simulation is the STP simulator's
(:class:`~repro.simulation.stp_simulator.StpSimulator`);
:func:`po_signatures` picks the word-parallel simulator by network kind.
"""

from __future__ import annotations

from typing import Iterable

from ..networks.aig import Aig
from ..networks.klut import KLutNetwork
from .patterns import PatternSet
from .signatures import SimulationResult
from .stp_simulator import StpSimulator

__all__ = [
    "simulate_aig",
    "simulate_aig_words",
    "simulate_aig_nodes",
    "simulate_klut_per_pattern",
    "aig_po_signatures",
    "klut_po_signatures",
    "po_signatures",
]


def simulate_aig_words(aig: Aig, patterns: PatternSet) -> list[int]:
    """Word-parallel simulation into a flat signature array.

    Returns one packed signature word per node, indexed by node number --
    the list :func:`simulate_aig` hands over as its result and the
    incremental simulator keeps.  The flat list avoids per-node
    dictionary hashing in the inner loop.
    """
    if patterns.num_inputs != aig.num_pis:
        raise ValueError(f"pattern set has {patterns.num_inputs} inputs, AIG has {aig.num_pis}")
    mask = patterns.mask
    words = [0] * aig.num_nodes
    for position, pi in enumerate(aig.pis):
        words[pi] = patterns.input_word(position) & mask
    entries = aig.node_entries
    for node in aig.topological_order():
        fanin0, fanin1 = entries[node]
        word0 = words[fanin0 >> 1]
        if fanin0 & 1:
            word0 ^= mask
        word1 = words[fanin1 >> 1]
        if fanin1 & 1:
            word1 ^= mask
        words[node] = word0 & word1
    return words


def simulate_aig(aig: Aig, patterns: PatternSet) -> SimulationResult:
    """Word-parallel simulation of every node of an AIG."""
    return SimulationResult(patterns.num_patterns, simulate_aig_words(aig, patterns))


def simulate_aig_nodes(aig: Aig, patterns: PatternSet, nodes: Iterable[int]) -> dict[int, int]:
    """Signatures of selected nodes only (simulates just their TFI cone).

    The cone is traversed with a cone-local topological sort, so the cost
    is O(|TFI(nodes)|) -- independent of the network size -- and the
    network's cached topological order is neither read nor built.  The
    sweepers' counter-example refinement falls back to it for the nodes
    still sitting in equivalence classes when no order is cached
    (:func:`repro.sweeping.equivalence.refine_with_counterexample`).
    """
    targets = list(nodes)
    if patterns.num_inputs != aig.num_pis:
        raise ValueError(f"pattern set has {patterns.num_inputs} inputs, AIG has {aig.num_pis}")
    mask = patterns.mask
    signatures: dict[int, int] = {0: 0}
    entries = aig.node_entries
    pi_positions = {pi: position for position, pi in enumerate(aig.pis)}
    # Inline iterative post-order DFS over the cone: leaves (PIs and the
    # constant) are evaluated on sight, AND gates after their fanins.
    # Sources are recognised by their sentinel fanins (-1), not by index.
    visited: set[int] = {0}
    stack: list[int] = [target for target in targets if target not in visited]
    order: list[int] = []
    while stack:
        node = stack.pop()
        if node < 0:
            order.append(-node)
            continue
        if node in visited:
            continue
        visited.add(node)
        fanin0, fanin1 = entries[node]
        if fanin0 >= 0:
            stack.append(-node)
            fanin0 >>= 1
            fanin1 >>= 1
            if fanin0 not in visited:
                stack.append(fanin0)
            if fanin1 not in visited:
                stack.append(fanin1)
        else:
            signatures[node] = patterns.input_word(pi_positions[node]) & mask
    for node in order:
        fanin0, fanin1 = entries[node]
        word0 = signatures[fanin0 >> 1]
        if fanin0 & 1:
            word0 ^= mask
        word1 = signatures[fanin1 >> 1]
        if fanin1 & 1:
            word1 ^= mask
        signatures[node] = word0 & word1
    return {node: signatures[node] for node in targets}


def aig_po_signatures(aig: Aig, result: SimulationResult) -> list[int]:
    """Signatures of the primary outputs given a full simulation result."""
    outputs = []
    for po in aig.pos:
        signature = result.signature(Aig.node_of(po))
        if Aig.is_complemented(po):
            signature ^= result.mask
        outputs.append(signature)
    return outputs


def simulate_klut_per_pattern(network: KLutNetwork, patterns: PatternSet) -> SimulationResult:
    """Per-pattern (bit-extraction) simulation of a k-LUT network.

    This mirrors the behaviour the paper attributes to conventional
    simulators on LUT networks: for every pattern, every node is visited in
    topological order, its input bits are gathered one by one and the output
    bit is read from the truth table.
    """
    if patterns.num_inputs != network.num_pis:
        raise ValueError(f"pattern set has {patterns.num_inputs} inputs, network has {network.num_pis}")
    node_order = network.topological_order()
    fanins = {node: network.lut_fanins(node) for node in node_order}
    functions = {node: network.lut_function(node) for node in node_order}
    values: dict[int, bool] = {}
    signatures = [0] * network.num_nodes

    for node in network.nodes():
        if network.is_constant(node) and network.constant_value(node):
            signatures[node] = patterns.mask

    for pattern_index in range(patterns.num_patterns):
        for node in network.nodes():
            if network.is_constant(node):
                values[node] = network.constant_value(node)
        for position, node in enumerate(network.pis):
            values[node] = bool((patterns.input_word(position) >> pattern_index) & 1)
        for node in node_order:
            assignment = 0
            for position, fanin in enumerate(fanins[node]):
                if values[fanin]:
                    assignment |= 1 << position
            values[node] = functions[node].value_at(assignment)
        for node, value in values.items():
            if value:
                signatures[node] |= 1 << pattern_index

    return SimulationResult(patterns.num_patterns, signatures)


def klut_po_signatures(network: KLutNetwork, result: SimulationResult) -> list[int]:
    """Signatures of the primary outputs of a k-LUT network."""
    outputs = []
    for node, negated in network.pos:
        signature = result.signature(node)
        if negated:
            signature ^= result.mask
        outputs.append(signature)
    return outputs


def po_signatures(network: Aig | KLutNetwork, patterns: PatternSet) -> list[int]:
    """Word-parallel primary-output signatures of either network kind.

    An AIG is simulated by :func:`simulate_aig`, a k-LUT network by the
    STP simulator's compiled op lists.
    """
    if isinstance(network, KLutNetwork):
        return klut_po_signatures(network, StpSimulator(network).simulate_all(patterns))
    return aig_po_signatures(network, simulate_aig(network, patterns))

