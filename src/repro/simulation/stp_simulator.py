"""The STP-based circuit simulator (Algorithm 1 of the paper).

Boolean values are logic vectors, every k-LUT is a 2 x 2^k structural
matrix, and simulating a node is one matrix pass: the STP of the node's
structural matrix with the (Kronecker-combined) logic vectors of its
fanins selects exactly one matrix column, which is the output logic
vector.  Two simulation modes are provided, mirroring Algorithm 1:

* ``all`` -- every node is visited in topological order and its signature
  is produced by one structural-matrix pass over all patterns at once
  (:meth:`StpSimulator.simulate_all`);
* ``specified`` -- only requested nodes are simulated: the network is first
  partitioned by the cut algorithm of Section III-B (leaf limit
  ``floor(log2(#patterns))``), the structural matrix of every cut is
  computed by STP composition, and only cut roots are evaluated
  (:meth:`StpSimulator.simulate_nodes`).

Both modes run the matrix pass as a byte-table lookup.  A node's value
over all patterns is held with one 0/1 byte per pattern (a Python int in
the loop, ``bytes`` when stored).  Under one pattern, with fanin ``i``
taking value ``b_i``, the STP product selects column
``c = sum_i (1 - b_i) * 2^i`` of the structural matrix ``M``; equivalently
``M[0, 2^k - 1 - j]`` with ``j = sum_i b_i * 2^i``.  So each LUT keeps the
row ``R[j] = M[0, 2^k - 1 - j]``, built once from its matrix, and ``j``
for every pattern at once is ``OR_i value_i << i``: the shifted bits are
disjoint and stay inside their byte for up to 8 inputs.  The pass is then
``j.to_bytes(P, "little").translate(R)``.  Wider tables (mode ``s`` cuts
reach ``floor(log2 P)`` leaves) build ``j`` 8 inputs at a time and gather
from ``R`` with numpy.  All signatures are packed at the end by one
``np.packbits``.

Two equivalent implementations of the structural-matrix composition are
available: the literal STP-algebra path (:func:`cut_truth_table_stp` with
``use_stp_algebra=True``) builds the canonical form with swap and
power-reducing matrices exactly as in Section II-B, and the word-level
path computes the same matrix with Kronecker-structured integer
arithmetic, which is what makes large cuts practical.  The test suite
cross-checks the two.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from ..cuts import SimulationCut, klut_cone_table, simulation_cuts
from ..networks.aig import Aig
from ..networks.klut import KLutNetwork
from ..networks.mapping import aig_node_truth_table
from ..stp.canonical import STPForm, apply_operator, constant_form, normalize, variable_form
from ..truthtable import (
    TruthTable,
    stp_form_to_truth_table,
    truth_table_to_structural_matrix,
)
from .patterns import PatternSet
from .signatures import SimulationResult

__all__ = [
    "StpSimulator",
    "simulate_klut_stp",
    "cut_truth_table_stp",
    "stp_aig_truth_table",
    "common_window_leaves",
    "stp_window_truth_tables",
    "compute_pi_supports",
    "compute_local_truth_tables",
    "expand_truth_table",
    "function_key",
    "complement_key",
    "cut_limit_for_patterns",
]


def cut_limit_for_patterns(num_patterns: int, maximum: int = 16) -> int:
    """Leaf limit of the simulation cuts, ``floor(log2(#patterns))`` (Alg. 1 line 5).

    The paper additionally restricts exhaustive windows to fewer than 16
    leaves; ``maximum`` enforces that cap.
    """
    if num_patterns < 2:
        return 1
    return max(1, min(maximum, int(math.floor(math.log2(num_patterns)))))


# ---------------------------------------------------------------------------
# Byte-per-pattern column selection
# ---------------------------------------------------------------------------


def _matrix_row(matrix: np.ndarray) -> bytes:
    """Column-select table of a structural matrix: byte ``j`` is ``M[0, 2^k - 1 - j]``.

    Padded to 256 bytes so that it is a ``bytes.translate`` table for LUTs
    of up to 8 inputs.
    """
    return matrix[0, ::-1].astype(np.uint8).tobytes().ljust(256, b"\0")


def _spread(word: int, num_patterns: int) -> bytes:
    """A packed signature word as one 0/1 byte per pattern."""
    raw = np.frombuffer(word.to_bytes((num_patterns + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=num_patterns, bitorder="little").tobytes()


def _select_columns(row: bytes, fanin_values: Sequence[int], num_patterns: int) -> bytes:
    """One structural-matrix pass over all patterns, one 0/1 byte per pattern.

    ``fanin_values`` hold one 0/1 byte per pattern each, so OR-ing fanin
    ``i``'s value shifted by ``i`` builds every pattern's assignment ``j``
    in its own byte without carries; ``row[j]`` is the output the STP
    column selection yields for it.  Up to 8 inputs this is a single
    ``bytes.translate``; wider tables gather from ``row`` with a numpy
    index assembled 8 inputs at a time.
    """
    if len(fanin_values) <= 8:
        return _byte_index(fanin_values).to_bytes(num_patterns, "little").translate(row)
    gather = np.zeros(num_patterns, dtype=np.intp)
    for low in range(0, len(fanin_values), 8):
        chunk = _byte_index(fanin_values[low : low + 8]).to_bytes(num_patterns, "little")
        gather |= np.frombuffer(chunk, dtype=np.uint8).astype(np.intp) << low
    return np.frombuffer(row, dtype=np.uint8)[gather].tobytes()


def _byte_index(fanin_values: Sequence[int]) -> int:
    """``OR_i fanin_values[i] << i``: up to 8 inputs' bits, one byte per pattern."""
    if not fanin_values:
        return 0
    index = fanin_values[0]
    for position in range(1, len(fanin_values)):
        index |= fanin_values[position] << position
    return index


class _ByteValues:
    """Node values with one 0/1 byte per pattern, for one simulation run.

    ``values`` is a flat list indexed by node (``None`` until simulated)
    holding each value as a Python int for the shift/OR of
    :func:`_byte_index`; ``buffer`` holds the same bytes, node after node,
    so that :meth:`result` packs every signature with one ``np.packbits``.
    Constants and PIs are stored on construction.
    """

    def __init__(self, network: KLutNetwork, patterns: PatternSet) -> None:
        if patterns.num_inputs != network.num_pis:
            raise ValueError(f"pattern set has {patterns.num_inputs} inputs, network has {network.num_pis}")
        self.num_patterns = num_patterns = patterns.num_patterns
        self.values: list[int | None] = [None] * network.num_nodes
        self.buffer = bytearray(network.num_nodes * num_patterns)
        for node in network.nodes():
            if network.is_constant(node):
                self.store(node, bytes([network.constant_value(node)]) * num_patterns)
        for position, node in enumerate(network.pis):
            self.store(node, _spread(patterns.input_word(position) & patterns.mask, num_patterns))

    def store(self, node: int, raw: bytes) -> None:
        """Record the value of ``node`` (one 0/1 byte per pattern)."""
        num_patterns = self.num_patterns
        self.buffer[node * num_patterns : (node + 1) * num_patterns] = raw
        self.values[node] = int.from_bytes(raw, "little")

    def result(self) -> SimulationResult:
        """Signatures of every stored node."""
        num_patterns = self.num_patterns
        stride = (num_patterns + 7) // 8
        rows = np.frombuffer(self.buffer, dtype=np.uint8).reshape(len(self.values), num_patterns)
        packed = np.packbits(rows, axis=1, bitorder="little").tobytes()
        result = SimulationResult(num_patterns)
        result.signatures = {
            node: int.from_bytes(packed[node * stride : (node + 1) * stride], "little")
            for node, value in enumerate(self.values)
            if value is not None
        }
        return result


# ---------------------------------------------------------------------------
# Structural-matrix composition over a cut
# ---------------------------------------------------------------------------


def cut_truth_table_stp(
    network: KLutNetwork,
    cut: SimulationCut,
    use_stp_algebra: bool = False,
) -> TruthTable:
    """Function of a cut root over its leaves, computed through STP composition.

    With ``use_stp_algebra`` the canonical form is assembled with the
    literal matrix algebra of Section II-B (swap matrix, power-reducing
    matrix); this is exponential in the leaf count and intended for small
    cuts and cross-checking.  The default path computes the identical
    structural matrix with Kronecker-structured word arithmetic.
    """
    leaves = list(cut.leaves)
    if use_stp_algebra:
        return _cut_truth_table_algebraic(network, cut)
    # The shared cone walker drives the traversal; only the word-level
    # minterm composition (the structural-matrix product) is local.
    return klut_cone_table(network, cut.root, leaves, compose=_compose_minterms)


def _compose_minterms(function: TruthTable, fanins: Sequence[TruthTable], num_vars: int) -> TruthTable:
    """Word-level composition: OR over satisfying LUT assignments of fanin ANDs."""
    full = (1 << (1 << num_vars)) - 1
    bits = 0
    for assignment in range(function.num_bits):
        if not function.value_at(assignment):
            continue
        term = full
        for position, fanin in enumerate(fanins):
            term &= fanin.bits if (assignment >> position) & 1 else (~fanin.bits & full)
            if not term:
                break
        bits |= term
    return TruthTable(num_vars, bits)


def _cut_truth_table_algebraic(network: KLutNetwork, cut: SimulationCut) -> TruthTable:
    """Literal STP-algebra computation of a cut function (small cuts only)."""
    leaves = list(cut.leaves)
    if len(leaves) > 12:
        raise ValueError(f"algebraic STP composition limited to 12 leaves, cut has {len(leaves)}")
    leaf_names = {leaf: f"v{index}" for index, leaf in enumerate(leaves)}
    memo: dict[int, STPForm] = {}

    def form_of(node: int) -> STPForm:
        if node in memo:
            return memo[node]
        if node in leaf_names:
            result = variable_form(leaf_names[node])
        elif network.is_constant(node):
            result = constant_form(network.constant_value(node))
        elif network.is_pi(node):
            raise ValueError(f"primary input {node} reached but not listed as a cut leaf")
        else:
            matrix = truth_table_to_structural_matrix(network.lut_function(node))
            # The structural matrix of a truth table expects the *last* fanin
            # as the first STP factor (column 0 is the all-True assignment
            # with assignments read most-significant-first).
            operands = [form_of(f) for f in reversed(network.lut_fanins(node))]
            result = apply_operator(matrix, operands)
        memo[node] = result
        return result

    raw = form_of(cut.root)
    # Normalising over the natural leaf order makes form variable ``v_i``
    # correspond to truth-table input ``i`` after conversion.
    order = [f"v{index}" for index in range(len(leaves))]
    canonical = normalize(raw, order)
    return stp_form_to_truth_table(canonical)


# ---------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------


class StpSimulator:
    """STP-based simulator of a k-LUT network (Algorithm 1)."""

    def __init__(self, network: KLutNetwork) -> None:
        self.network = network
        # One structural matrix per LUT, precomputed once: this is the
        # "logic matrices as primitives of the logic network" part of the
        # paper -- the simulator never looks at gate operators again.  Only
        # the matrix's column-select row is kept (see _select_columns), one
        # per distinct LUT function.
        shared: dict[TruthTable, bytes] = {}
        self._rows: dict[int, bytes] = {}
        for node in network.luts():
            function = network.lut_function(node)
            row = shared.get(function)
            if row is None:
                row = shared[function] = _matrix_row(truth_table_to_structural_matrix(function))
            self._rows[node] = row

    # -- mode 'a': all nodes --------------------------------------------

    def simulate_all(self, patterns: PatternSet) -> SimulationResult:
        """Simulate every node; one structural-matrix pass per node."""
        network = self.network
        state = _ByteValues(network, patterns)
        values, rows, num_patterns = state.values, self._rows, state.num_patterns
        for node in network.topological_order():
            fanin_values = [values[fanin] for fanin in network.fanins(node)]
            state.store(node, _select_columns(rows[node], fanin_values, num_patterns))
        return state.result()

    # -- mode 's': specified nodes ----------------------------------------

    def simulate_nodes(
        self,
        patterns: PatternSet,
        targets: Sequence[int],
        limit: int | None = None,
    ) -> SimulationResult:
        """Simulate only ``targets`` using the cut algorithm (Algorithm 1, mode s).

        ``limit`` defaults to ``floor(log2(#patterns))`` as in the paper;
        the returned result contains signatures for the cut roots (which
        include every target), the PIs and the constants.
        """
        network = self.network
        state = _ByteValues(network, patterns)
        if limit is None:
            limit = cut_limit_for_patterns(state.num_patterns)
        for cut in simulation_cuts(network, list(targets), limit):
            row = _matrix_row(truth_table_to_structural_matrix(cut_truth_table_stp(network, cut)))
            leaf_values = [state.values[leaf] for leaf in cut.leaves]
            state.store(cut.root, _select_columns(row, leaf_values, state.num_patterns))
        return state.result()

    # -- exhaustive local signatures (Section III-C) -----------------------

    def exhaustive_truth_tables(
        self,
        targets: Sequence[int],
        max_support: int = 16,
    ) -> dict[int, TruthTable | None]:
        """Truth table of every target over its own PI support.

        This is the exhaustive-pattern simulation of Section III-C: the
        scale of the exhaustive pattern set is ``2^|support|``, usually far
        smaller than the global pattern count.  Targets whose support
        exceeds ``max_support`` map to ``None``.
        """
        network = self.network
        results: dict[int, TruthTable | None] = {}
        for target in targets:
            cone = network.tfi([target])
            support = [node for node in cone if network.is_pi(node)]
            if len(support) > max_support:
                results[target] = None
                continue
            cut = SimulationCut(target, tuple(support), tuple(n for n in cone if network.is_lut(n) and n != target))
            if network.is_pi(target):
                results[target] = TruthTable.variable(0, 1)
            elif network.is_constant(target):
                results[target] = TruthTable.constant(network.constant_value(target))
            else:
                results[target] = cut_truth_table_stp(network, cut)
        return results


def simulate_klut_stp(
    network: KLutNetwork,
    patterns: PatternSet,
    targets: Sequence[int] | None = None,
    limit: int | None = None,
) -> SimulationResult:
    """Algorithm 1 as a single function: mode a (no targets) or mode s."""
    simulator = StpSimulator(network)
    if targets is None:
        return simulator.simulate_all(patterns)
    return simulator.simulate_nodes(patterns, targets, limit)


# ---------------------------------------------------------------------------
# Exhaustive window simulation on AIGs (used by the STP sweeper)
# ---------------------------------------------------------------------------


def stp_aig_truth_table(aig: Aig, literal: int, leaves: Sequence[int]) -> TruthTable:
    """Function of an AIG literal over ``leaves``, via structural-matrix composition.

    Every AND gate contributes its 2x4 structural matrix and every
    complemented edge an ``M_not``; the word-level composition in
    :func:`repro.networks.mapping.aig_node_truth_table` computes the same
    structural matrix and is used as the engine.
    """
    table = aig_node_truth_table(aig, Aig.node_of(literal), leaves, allow_unused_leaves=True)
    return ~table if Aig.is_complemented(literal) else table


def compute_pi_supports(aig: Aig, max_size: int | None = None) -> dict[int, tuple[int, ...] | None]:
    """Structural PI support of every node, in one bottom-up pass.

    With ``max_size`` the support of a node is stored as ``None`` as soon
    as it exceeds the bound, which keeps the pass cheap on wide circuits;
    such nodes are simply not eligible for exhaustive window simulation.
    """
    supports: dict[int, frozenset[int] | None] = {0: frozenset()}
    for pi in aig.pis:
        supports[pi] = frozenset([pi])
    for node in aig.topological_order():
        fanin0, fanin1 = aig.fanin_nodes(node)
        left = supports.get(fanin0)
        right = supports.get(fanin1)
        if left is None or right is None:
            supports[node] = None
            continue
        union = left | right
        supports[node] = None if (max_size is not None and len(union) > max_size) else union
    return {
        node: (tuple(sorted(value)) if value is not None else None)
        for node, value in supports.items()
    }


def common_window_leaves(
    aig: Aig,
    targets: Sequence[int],
    max_leaves: int = 16,
    supports: Mapping[int, tuple[int, ...] | None] | None = None,
) -> list[int] | None:
    """The combined primary-input support of a group of AIG nodes.

    Exhaustive window simulation can only *disprove* an equivalence soundly
    when the window leaves are free inputs: over an internal cut, two
    equivalent nodes may still have different local functions on the
    unreachable leaf combinations (satisfiability don't-cares).  The window
    is therefore the union of the targets' PI supports; ``None`` is
    returned when it exceeds ``max_leaves`` (the paper's "fewer than 16
    leaf nodes" restriction).  A precomputed ``supports`` map (see
    :func:`compute_pi_supports`) avoids repeated cone traversals.
    """
    leaves: list[int] = []
    for target in targets:
        target_support: Sequence[int] | None
        if supports is not None:
            target_support = supports.get(target)
            if target_support is None:
                return None
        else:
            target_support = [node for node in aig.tfi([target]) if aig.is_pi(node)]
        for node in target_support:
            if node not in leaves:
                leaves.append(node)
                if len(leaves) > max_leaves:
                    return None
    return leaves


def expand_truth_table(table: TruthTable, own_leaves: Sequence[int], window: Sequence[int]) -> TruthTable:
    """Re-express a function over a larger window of leaves.

    ``own_leaves`` are the leaves (e.g. PI node indices) of ``table``'s
    inputs in order; ``window`` is a superset.  Added leaves become
    don't-cares.  The expansion is a handful of word operations on the
    packed table (:meth:`TruthTable.extend`), so comparing two node
    functions over the union of their supports costs microseconds instead
    of a cone traversal.
    """
    window_list = list(window)
    window_positions = {leaf: index for index, leaf in enumerate(window_list)}
    missing = [leaf for leaf in own_leaves if leaf not in window_positions]
    if missing:
        raise ValueError(f"window is missing leaves {missing}")
    if list(own_leaves) == window_list:
        return table
    return table.extend(len(window_list), [window_positions[leaf] for leaf in own_leaves])


def function_key(table: TruthTable, leaves: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Canonical key of the function ``table`` computes over ``leaves``.

    The key is the essential support (the leaves the function actually
    depends on) and the table projected onto it.  Two functions of the
    same free inputs are equal exactly when their keys are equal, whatever
    windows their tables were built over, so a pairwise exhaustive check
    needs no expansion to a common window.  The complement of a function
    has the same support and the complemented projection (see
    :func:`complement_key`).
    """
    projected, essential = table.shrink_to_support()
    return tuple(leaves[position] for position in essential), projected.bits


def complement_key(key: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
    """The :func:`function_key` of the complemented function."""
    support, bits = key
    return support, bits ^ ((1 << (1 << len(support))) - 1)


def compute_local_truth_tables(
    aig: Aig,
    max_support: int = 16,
    supports: Mapping[int, tuple[int, ...] | None] | None = None,
) -> dict[int, TruthTable | None]:
    """Function of every node over its own PI support, in one bottom-up pass.

    Nodes whose support exceeds ``max_support`` map to ``None``.  This is
    the precomputation behind the sweeper's exhaustive refinement: each
    node's table over its own support is canonicalised by
    :func:`function_key`, and equal keys prove two nodes equivalent with
    no SAT call.  Each gate's table is the AND of its fanins' tables,
    expanded to the gate's support with word operations on the packed
    integers (:meth:`TruthTable.extend`).
    """
    if supports is None:
        supports = compute_pi_supports(aig, max_support)
    tables: dict[int, TruthTable | None] = {0: TruthTable.constant(False)}
    for pi in aig.pis:
        tables[pi] = TruthTable.variable(0, 1)
    fulls: dict[int, int] = {}
    for node in aig.topological_order():
        support = supports.get(node)
        if support is None or len(support) > max_support:
            tables[node] = None
            continue
        fanin0, fanin1 = aig.fanins(node)
        table0, table1 = tables.get(Aig.node_of(fanin0)), tables.get(Aig.node_of(fanin1))
        if table0 is None or table1 is None:
            tables[node] = None
            continue
        width = len(support)
        full = fulls.get(width)
        if full is None:
            full = fulls[width] = (1 << (1 << width)) - 1
        bits = full
        positions: dict[int, int] | None = None
        for fanin, table in ((fanin0, table0), (fanin1, table1)):
            own = supports.get(Aig.node_of(fanin)) or ()
            if own != support:
                if positions is None:
                    positions = {leaf: index for index, leaf in enumerate(support)}
                table = table.extend(width, [positions[leaf] for leaf in own])
            expanded = table.bits
            bits &= expanded ^ full if Aig.is_complemented(fanin) else expanded
        tables[node] = TruthTable(len(support), bits)
    return tables


def stp_window_truth_tables(
    aig: Aig,
    targets: Sequence[int],
    max_leaves: int = 16,
    supports: Mapping[int, tuple[int, ...] | None] | None = None,
) -> dict[int, TruthTable] | None:
    """Exhaustive window signatures of a group of AIG nodes.

    Computes one shared window (at most ``max_leaves`` leaves) covering all
    targets and returns each target's truth table over that window -- the
    exhaustive local simulation the STP sweeper uses to disprove candidate
    equivalences without calling SAT.  Returns ``None`` when no such window
    exists (or when a stale ``supports`` cache no longer covers a target's
    cone after the network was rewritten).
    """
    leaves = common_window_leaves(aig, targets, max_leaves, supports)
    if leaves is None:
        return None
    tables: dict[int, TruthTable] = {}
    for target in targets:
        if target in leaves:
            tables[target] = TruthTable.variable(leaves.index(target), len(leaves))
        else:
            try:
                tables[target] = aig_node_truth_table(aig, target, leaves, allow_unused_leaves=True)
            except ValueError:
                # A substitution enlarged the structural support beyond the
                # cached window; treat the pair as not coverable.
                return None
    return tables
