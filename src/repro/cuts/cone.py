"""Reference cone-to-truth-table walkers for AIGs and k-LUT networks.

The fused cut engine never walks cones -- tables ride along with the
cuts -- but a reference construction is still needed: the simulation
cuts compute over k-LUT networks, the sweeping workloads build local
functions of ad-hoc leaf sets, and tests cross-check the fused tables
against these walkers.

Both walkers *validate* the leaf set.  A leaf set "cuts" a cone when
every path from the root to a primary input passes through a leaf; a
set that does not produces a table that silently misrepresents the
root's function (the root still depends on nodes the table does not
mention).  Reaching an unlisted PI therefore raises, and so does listing
a leaf the cone walk never reaches, which is how stale or mismatched
leaf sets used to slip through as don't-care inputs.  Window-style AIG
callers (the redundancy injection of :mod:`repro.circuits.sweep_workloads`)
legitimately pass a superset of the support and opt out with
``aig_cone_table(..., allow_unused_leaves=True)``; every k-LUT caller
passes an exact cut.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..truthtable import TruthTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..networks.aig import Aig
    from ..networks.klut import KLutNetwork

__all__ = ["aig_cone_table", "klut_cone_table"]


def aig_cone_table(
    aig: "Aig",
    root: int,
    leaves: Sequence[int],
    allow_unused_leaves: bool = False,
) -> TruthTable:
    """Truth table of AIG node ``root`` as a function of the cut ``leaves``.

    ``leaves`` are node indices; leaf ``i`` becomes input ``i`` of the
    resulting table.  Raises :class:`ValueError` when the leaf set does
    not actually cut the cone: a primary input reached without being
    listed, a leaf index that is not a node of the network, or (unless
    ``allow_unused_leaves``) a listed leaf the cone never reaches.
    """
    leaf_positions = {leaf: index for index, leaf in enumerate(leaves)}
    num_vars = len(leaves)
    for leaf in leaves:
        if not 0 <= leaf < aig.num_nodes:
            raise ValueError(f"cut leaf {leaf} is not a node of the network")
    memo: dict[int, TruthTable] = {}

    def table_of(current: int) -> TruthTable:
        if current in memo:
            return memo[current]
        if current in leaf_positions:
            result = TruthTable.variable(leaf_positions[current], num_vars)
        elif aig.is_constant(current):
            result = TruthTable.constant(False, num_vars)
        elif aig.is_pi(current):
            raise ValueError(f"primary input {current} reached but not listed as a cut leaf")
        else:
            fanin0, fanin1 = aig.fanins(current)
            table0 = table_of(aig.node_of(fanin0))
            table1 = table_of(aig.node_of(fanin1))
            if aig.is_complemented(fanin0):
                table0 = ~table0
            if aig.is_complemented(fanin1):
                table1 = ~table1
            result = table0 & table1
        memo[current] = result
        return result

    table = table_of(root)
    if not allow_unused_leaves:
        unused = [leaf for leaf in leaves if leaf not in memo]
        if unused:
            raise ValueError(
                f"leaves {unused} are not part of the cone of node {root}: "
                "the leaf set does not cut the cone (pass allow_unused_leaves=True "
                "for window semantics where extra leaves are don't-cares)"
            )
    return table


def klut_cone_table(
    network: "KLutNetwork",
    root: int,
    leaves: Sequence[int],
    compose: Callable[[TruthTable, Sequence[TruthTable], int], TruthTable] | None = None,
) -> TruthTable:
    """Truth table of k-LUT node ``root`` as a function of ``leaves``.

    ``compose(function, fanin_tables, num_vars)`` combines one LUT's
    function with its fanin tables; the default uses
    :meth:`TruthTable.compose`, and the STP simulator passes one that
    runs the LUT's compiled op list on the fanin tables' bits, so both
    paths share this one walker.
    Leaf validation matches :func:`aig_cone_table` without
    ``allow_unused_leaves``: every listed leaf must be reached.
    """
    leaf_positions = {leaf: index for index, leaf in enumerate(leaves)}
    num_vars = len(leaves)
    for leaf in leaves:
        if not 0 <= leaf < network.num_nodes:
            raise ValueError(f"cut leaf {leaf} is not a node of the network")
    memo: dict[int, TruthTable] = {}

    def table_of(node: int) -> TruthTable:
        if node in memo:
            return memo[node]
        if node in leaf_positions:
            result = TruthTable.variable(leaf_positions[node], num_vars)
        elif network.is_constant(node):
            result = TruthTable.constant(network.constant_value(node), num_vars)
        elif network.is_pi(node):
            raise ValueError(f"primary input {node} reached but not listed as a cut leaf")
        else:
            fanin_tables = [table_of(f) for f in network.lut_fanins(node)]
            function = network.lut_function(node)
            if compose is None:
                result = function.compose(fanin_tables)
            else:
                result = compose(function, fanin_tables, num_vars)
        memo[node] = result
        return result

    table = table_of(root)
    unused = [leaf for leaf in leaves if leaf not in memo]
    if unused:
        raise ValueError(
            f"leaves {unused} are not part of the cone of node {root}: "
            "the leaf set does not cut the cone"
        )
    return table
