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

Both modes run the matrix pass on packed pattern words, one Python int
per node with bit ``p`` the node's value under pattern ``p``, as the
word-parallel AIG simulator does.  The pass follows from the STP product
itself.  A k-LUT's structural matrix ``M`` multiplies its fanins' logic
vectors last fanin first, ``M x_{k-1} ... x_0``, and ``M[0, c]`` is the
output for the assignment with ``b_i = 1 - bit i of c``; so the first row
of ``M``, reversed, is the truth table.  With ``x = δ₂¹`` (true) the
product ``M x`` keeps the left column block of ``M`` and with ``x = δ₂²``
(false) the right one, so ``M x = x·M_hi + ¬x·M_lo``: the blocks are the
structural matrices of the cofactors on input ``k - 1``, and their first
rows, reversed, are the high and low halves of the truth table.  Over all
patterns at once, with ``x`` a pattern word, the selection is
``lo ^ (x & (hi ^ lo))``.  Recursing into the blocks down to 2 x 1
matrices (the constant words 0 and ``mask``) turns the LUT into a short
op list (:func:`compile_table`): a block pair that is equal means the
input is redundant and is folded away, a constant block becomes ``0`` or
``mask``, and a block seen before is shared.  Each distinct LUT function
is compiled once; mode ``s`` compiles each cut's table the same way.

The simulator lays the whole network out once as one flat op program
over one register file (:class:`StpSimulator`): the constants 0 and
``mask``, then the PIs, then one register per op.  Each LUT's op list is
remapped onto the global registers, and a LUT whose output is a fanin or
a constant is an alias to that register, with no op.  An op whose
cofactor block is a constant runs the select with that constant
substituted, a cheaper form: ``lo & ~x`` (``hi`` is 0), ``x & hi``
(``lo`` is 0), ``lo | x`` (``hi`` is ``mask``) or ``hi | ~x`` (``lo`` is
``mask``).  Only an op with two non-constant blocks runs the general
select (:func:`_execute`).

A cut's structural matrix is composed by the same op lists
(:func:`cut_truth_table_stp`): each LUT of the cut runs its program on
its fanins' truth tables, whose bits are the patterns of an exhaustive
pattern set over the cut's leaves.  The literal STP-algebra composition
(:func:`cut_truth_table_algebraic`) builds the canonical form with swap
and power-reducing matrices exactly as in Section II-B; it is
exponential in the number of root-to-leaf paths, and the test suite uses
it as the reference the op lists are checked against.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Mapping, Sequence

from ..cuts import SimulationCut, klut_cone_table, simulation_cuts
from ..networks.aig import Aig
from ..networks.klut import KLutNetwork
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
    "cut_truth_table_stp",
    "cut_truth_table_algebraic",
    "count_leaf_paths",
    "compile_table",
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
# Column selection as an op list over pattern words
# ---------------------------------------------------------------------------

#: A compiled table: ops ``(x, lo, hi)`` and the register of the output.
Program = tuple[tuple[tuple[int, int, int], ...], int]

#: A LUT (or cut) ready to lay out: its node, its fanins (its programs'
#: registers 2 on) and its program.
_Compiled = tuple[int, Sequence[int], Program]


@functools.lru_cache(maxsize=4096)
def compile_table(table: TruthTable) -> Program:
    """Op list selecting the column of ``table``'s structural matrix for all patterns.

    Registers 0 and 1 hold the constant words 0 and ``mask``, register
    ``2 + i`` holds input ``i``'s pattern word, and op ``j`` writes
    register ``2 + k + j`` with ``lo ^ (x & (hi ^ lo))`` of registers
    ``(x, lo, hi)``: the selection of the column block for the top input
    ``x`` between the low and high cofactor blocks.  The table is split on
    its top input, recursing from the highest input down (see the module
    docstring); a split whose halves are the constants 0 and 1 is the
    input itself and needs no op, and a cofactor block that is a constant
    is register 0 or 1, which :func:`_execute` turns into a cheaper form
    of the select.  Programs are memoised per function, so LUTs that
    compute the same function share one.
    """
    num_vars = table.num_vars
    ops: list[tuple[int, int, int]] = []
    memo: dict[tuple[int, int], int] = {}

    def build(bits: int, width: int) -> int:
        while width:
            half = 1 << (width - 1)
            hi = bits >> half
            lo = bits ^ (hi << half)
            if lo != hi:
                break
            bits, width = lo, width - 1  # equal blocks: the input is redundant
        else:
            return bits  # a constant: register 0 or 1
        key = (width, bits)
        register = memo.get(key)
        if register is None:
            lo_register, hi_register = build(lo, width - 1), build(hi, width - 1)
            if (lo_register, hi_register) == (0, 1):
                register = width + 1
            else:
                register = 2 + num_vars + len(ops)
                ops.append((width + 1, lo_register, hi_register))
            memo[key] = register
        return register

    output = build(table.bits, num_vars)
    return tuple(ops), output


def _execute(ops: Iterable[tuple[int, int, int]], registers: list[int], mask: int) -> None:
    """Append one word to ``registers`` per op ``(x, lo, hi)``: the select ``lo ^ (x & (hi ^ lo))``.

    Registers 0 and 1 hold the constant words 0 and ``mask``, so a
    cofactor register below 2 is a constant block, and substituting it
    into the select gives a cheaper form: ``lo & ~x`` when ``hi`` is 0,
    ``x & hi`` when ``lo`` is 0, ``lo | x`` when ``hi`` is ``mask`` and
    ``hi | ~x`` when ``lo`` is ``mask``.  The constant forms are tested
    in the order of their frequency on mapped networks, most often
    ``lo & ~x``; the general select, about a fifth of the ops, is left.
    """
    append = registers.append
    for x, lo, hi in ops:
        if not hi:
            low = registers[lo]
            append(low ^ (low & registers[x]))
        elif not lo:
            append(registers[x] & registers[hi])
        elif hi == 1:
            append(registers[lo] | registers[x])
        elif lo == 1:
            append(registers[hi] | (registers[x] ^ mask))
        else:
            low = registers[lo]
            append(low ^ (registers[x] & (registers[hi] ^ low)))


# ---------------------------------------------------------------------------
# Structural-matrix composition over a cut
# ---------------------------------------------------------------------------


def cut_truth_table_stp(network: KLutNetwork, cut: SimulationCut) -> TruthTable:
    """Function of a cut root over its leaves, computed through STP composition.

    The shared cone walker (:func:`~repro.cuts.klut_cone_table`) drives
    the traversal and validates the leaves; each LUT runs its compiled op
    list (:func:`compile_table`) on its fanins' tables, the exhaustive
    pattern words of the cut's leaves.
    """
    return klut_cone_table(network, cut.root, cut.leaves, compose=_compose_program)


def _compose_program(function: TruthTable, fanins: Sequence[TruthTable], num_vars: int) -> TruthTable:
    """``function`` of the ``fanins`` tables: its op list run on their bits."""
    ops, output = compile_table(function)
    full = (1 << (1 << num_vars)) - 1
    registers = [0, full]
    registers += [fanin.bits for fanin in fanins]
    _execute(ops, registers, full)
    return TruthTable(num_vars, registers[output])


#: Ceiling on the leaves and on the root-to-leaf paths of an algebraic
#: composition: its matrices have ``2^n`` columns for ``n`` of either.
_ALGEBRAIC_LIMIT = 12


def count_leaf_paths(network: KLutNetwork, cut: SimulationCut) -> int:
    """Number of paths from the cut root down to its leaves.

    The unnormalised STP form of the root holds one variable factor per
    path, so this, not the leaf count, sizes the algebraic composition's
    matrices.  Paths ending at a constant or an unlisted input count 0.
    """
    leaves = set(cut.leaves)

    @functools.cache
    def paths(node: int) -> int:
        if node in leaves:
            return 1
        if not network.is_lut(node):
            return 0
        return sum(paths(fanin) for fanin in network.lut_fanins(node))

    return paths(cut.root)


def cut_truth_table_algebraic(network: KLutNetwork, cut: SimulationCut) -> TruthTable:
    """Function of a cut root over its leaves, by the literal STP algebra of Section II-B.

    The canonical form is assembled with the swap and power-reducing
    matrices; this is exponential in the number of root-to-leaf paths
    (:func:`count_leaf_paths`), so cuts are limited to 12 leaves and 12
    paths, checked before any matrix is built.  It is the reference
    :func:`cut_truth_table_stp` is checked against.
    """
    leaves = list(cut.leaves)
    if len(leaves) > _ALGEBRAIC_LIMIT:
        raise ValueError(
            f"algebraic STP composition limited to {_ALGEBRAIC_LIMIT} leaves, cut has {len(leaves)}"
        )
    num_paths = count_leaf_paths(network, cut)
    if num_paths > _ALGEBRAIC_LIMIT:
        raise ValueError(
            f"algebraic STP composition limited to {_ALGEBRAIC_LIMIT} root-to-leaf paths, cut has {num_paths}"
        )
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
    """STP-based simulator of a k-LUT network (Algorithm 1).

    The network is laid out once, at construction, as one flat op program
    over one register file: register 0 holds the constant word 0,
    register 1 ``mask``, registers ``2 .. 2 + #PIs - 1`` the PIs' pattern
    words in order, and each op appends one register.  Every LUT's
    compiled program (:func:`compile_table`) is remapped onto the global
    registers: its local registers 0 and 1 stay the constants, its inputs
    become its fanins' registers and each of its ops gets the next free
    register.  A LUT whose program needs no op, its output being a fanin
    or a constant, is an alias to that register.  Each remapped op keeps
    its ``(x, lo, hi)`` registers and runs in one of five forms: the
    general select ``lo ^ (x & (hi ^ lo))``, or, when a cofactor register
    is a constant, the select with that constant substituted: ``lo & ~x``,
    ``x & hi``, ``lo | x`` or ``hi | ~x`` (see :func:`_execute`).  Mode
    ``s`` lays out its cuts' programs the same way and runs the same loop.
    """

    def __init__(self, network: KLutNetwork) -> None:
        self.network = network
        self._sources: list[int] = []
        registers = [0] * network.num_nodes
        for node in network.nodes():
            if network.is_constant(node):
                self._sources.append(node)
                registers[node] = int(network.constant_value(node))
        for position, node in enumerate(network.pis):
            self._sources.append(node)
            registers[node] = 2 + position
        #: Register of each node before any LUT is laid out (0 for LUTs).
        self._source_registers = registers
        # Every LUT's structural matrix is compiled into an op list: this
        # is the "logic matrices as primitives of the logic network" part
        # of the paper -- the simulator never looks at gate operators
        # again.  LUTs that compute the same function share one program.
        self._program, self._registers = self._layout(
            (node, network.lut_fanins(node), compile_table(network.lut_function(node)))
            for node in network.topological_order()
        )

    def _layout(self, luts: Iterable[_Compiled]) -> tuple[list[tuple[int, int, int]], list[int]]:
        """One flat op program running ``luts`` in order, and every node's register."""
        register_of = self._source_registers.copy()
        program: list[tuple[int, int, int]] = []
        add_op = program.append
        next_register = 2 + self.network.num_pis
        for node, fanins, (ops, output) in luts:
            local = [0, 1]
            local += map(register_of.__getitem__, fanins)
            for x, lo, hi in ops:
                add_op((local[x], local[lo], local[hi]))
                local.append(next_register)
                next_register += 1
            register_of[node] = local[output]
        return program, register_of

    def _register_file(self, patterns: PatternSet, program: list[tuple[int, int, int]]) -> list[int]:
        """The register file after running ``program`` on ``patterns``."""
        num_pis = self.network.num_pis
        if patterns.num_inputs != num_pis:
            raise ValueError(f"pattern set has {patterns.num_inputs} inputs, network has {num_pis}")
        mask = patterns.mask
        registers = [0, mask]
        registers += [patterns.input_word(position) & mask for position in range(num_pis)]
        _execute(program, registers, mask)
        return registers

    # -- mode 'a': all nodes --------------------------------------------

    def simulate_all(self, patterns: PatternSet) -> SimulationResult:
        """Simulate every node; one structural-matrix pass per node."""
        words = self._register_file(patterns, self._program)
        return SimulationResult(patterns.num_patterns, list(map(words.__getitem__, self._registers)))

    # -- mode 's': specified nodes ----------------------------------------

    def simulate_nodes(
        self,
        patterns: PatternSet,
        targets: Sequence[int],
        limit: int | None = None,
    ) -> dict[int, int]:
        """Simulate only ``targets`` using the cut algorithm (Algorithm 1, mode s).

        ``limit`` defaults to ``floor(log2(#patterns))`` as in the paper;
        the returned map holds the signatures of the cut roots (which
        include every target), the PIs and the constants.  The cuts' tables
        are compiled and laid out as one program, as mode ``a`` lays out
        the LUTs.
        """
        network = self.network
        if limit is None:
            limit = cut_limit_for_patterns(patterns.num_patterns)
        cuts = simulation_cuts(network, list(targets), limit)
        # Cut tables bypass the program cache: a 16-leaf cut's program can
        # take megabytes, and cuts rarely repeat a function.
        compile_cut = compile_table.__wrapped__
        program, register_of = self._layout(
            (cut.root, cut.leaves, compile_cut(cut_truth_table_stp(network, cut))) for cut in cuts
        )
        words = self._register_file(patterns, program)
        return {node: words[register_of[node]] for node in self._sources + [cut.root for cut in cuts]}

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


# ---------------------------------------------------------------------------
# Exhaustive window simulation on AIGs (used by the STP sweeper)
# ---------------------------------------------------------------------------


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
    roots: Iterable[int] | None = None,
    tables: dict[int, TruthTable | None] | None = None,
) -> dict[int, TruthTable | None]:
    """Function of every node over its own PI support, in one bottom-up pass.

    Nodes whose support exceeds ``max_support`` map to ``None``.  This is
    the precomputation behind the sweeper's exhaustive refinement: each
    node's table over its own support is canonicalised by
    :func:`function_key`, and equal keys prove two nodes equivalent with
    no SAT call.  Each gate's table is the AND of its fanins' tables,
    expanded to the gate's support with word operations on the packed
    integers (:meth:`TruthTable.extend`).

    With ``roots`` only the part of the roots' fanin cones that ``tables``
    does not hold yet is built, bottom-up, and added to ``tables`` in
    place; a root wider than ``max_support`` maps to ``None`` without
    its cone being walked.  A table depends only on the node's cone, so
    each one equals the table the whole-network pass builds.
    """
    if supports is None:
        supports = compute_pi_supports(aig, max_support)
    if tables is None:
        tables = {}
    if 0 not in tables:
        tables[0] = TruthTable.constant(False)
        for pi in aig.pis:
            tables[pi] = TruthTable.variable(0, 1)
    order = aig.topological_order() if roots is None else _missing_cone(aig, roots, tables, supports, max_support)
    fulls: dict[int, int] = {}
    for node in order:
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


def _missing_cone(
    aig: Aig,
    roots: Iterable[int],
    tables: Mapping[int, TruthTable | None],
    supports: Mapping[int, tuple[int, ...] | None],
    max_support: int,
) -> list[int]:
    """The roots' fanin-cone nodes ``tables`` lacks, fanins first.

    The walk stops at every node ``tables`` holds (the constant and the
    PIs always are) and does not enter a root wider than
    ``max_support``: every node in a narrow root's cone is narrow too.
    """
    entries = aig.node_entries
    order: list[int] = []
    placed: set[int] = set()
    for root in roots:
        if root in tables or root in placed:
            continue
        support = supports.get(root)
        if support is None or len(support) > max_support:
            placed.add(root)
            order.append(root)
            continue
        stack = [root]
        while stack:
            node = stack[-1]
            if node in placed:
                stack.pop()
                continue
            fanin0, fanin1 = entries[node]
            node0, node1 = fanin0 >> 1, fanin1 >> 1
            ready = True
            if node0 not in tables and node0 not in placed:
                stack.append(node0)
                ready = False
            if node1 not in tables and node1 not in placed:
                stack.append(node1)
                ready = False
            if ready:
                stack.pop()
                placed.add(node)
                order.append(node)
    return order
