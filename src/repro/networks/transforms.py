"""Structural transforms on logic networks: cleanup, re-hashing, constant propagation.

SAT-sweeping and the resynthesis passes mutate networks in place (node
substitution); these helpers restore the usual invariants afterwards:
dangling nodes are removed, structurally identical gates are merged
again, and constants are propagated.  All transforms are
non-destructive -- they return a fresh network plus a translation map
(old literal to new literal for AIGs, old node to new node for k-LUT
networks).  :func:`cleanup_dangling` dispatches on the network kind, so
the generic ``cleanup`` pass of the pipeline works on either container.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aig import Aig
from .klut import KLutNetwork

__all__ = [
    "cleanup_dangling",
    "cleanup_dangling_klut",
    "rebuild_strashed",
    "network_statistics",
    "NetworkStatistics",
]


def _choice_reachable(aig: Aig) -> set[int]:
    """PO-reachable nodes, closed over choice classes.

    Starting from the PO cones, any choice class with a reachable member
    pulls the cones of *all* its members in (alternatives are dangling
    by construction -- nothing references them -- yet they must survive
    a cleanup so the mapper can still choose them); iterate to a
    fixpoint since an alternative's cone may reach further classes.
    """
    reachable = set(aig.tfi([aig.node_of(po) for po in aig.pos]))
    pending = True
    while pending:
        pending = False
        extra_roots = []
        for node in list(reachable):
            for member, _phase in aig.choices(node):
                if member not in reachable:
                    extra_roots.append(member)
        if extra_roots:
            reachable.update(aig.tfi(extra_roots))
            pending = True
    return reachable


def rebuild_strashed(aig: Aig) -> tuple[Aig, dict[int, int]]:
    """Rebuild the PO cones of the AIG through the strashing constructor.

    Reconstructing every PO-reachable gate through :meth:`Aig.add_and`
    merges structurally identical gates, applies the one-level
    simplifications (which propagates constants) and drops dangling nodes.
    Returns the new graph and a map from old literal to new literal
    (positive literals of reachable nodes; complement by xor-ing bit 0).

    Choice classes survive the rebuild: the cones of alternatives whose
    class has a PO-reachable member are rebuilt too (even though they
    are dangling) and the class links are re-registered through the
    literal map.  Links that collapse structurally (the alternative
    strashes onto its representative) or degenerate (an alternative
    simplifies to a constant/PI) are silently dropped.
    """
    has_choices = aig.has_choices
    reachable = _choice_reachable(aig) if has_choices else set(aig.tfi([aig.node_of(po) for po in aig.pos]))
    rebuilt = Aig(aig.name)
    literal_map: dict[int, int] = {0: 0, 1: 1}
    for pi, name in zip(aig.pis, aig.pi_names):
        new_literal = rebuilt.add_pi(name)
        literal_map[Aig.literal(pi)] = new_literal
        literal_map[Aig.literal(pi, True)] = Aig.negate(new_literal)
    for node in aig.topological_order():
        if node not in reachable:
            continue
        fanin0, fanin1 = aig.fanins(node)
        new0 = literal_map[Aig.regular(fanin0)] ^ (fanin0 & 1)
        new1 = literal_map[Aig.regular(fanin1)] ^ (fanin1 & 1)
        new_literal = rebuilt.add_and(new0, new1)
        literal_map[Aig.literal(node)] = new_literal
        literal_map[Aig.literal(node, True)] = Aig.negate(new_literal)
    for po, name in zip(aig.pos, aig.po_names):
        new_po = literal_map[Aig.regular(po)] ^ (po & 1)
        rebuilt.add_po(new_po, name)
    if has_choices:
        for node in aig.topological_order():
            if node not in reachable or aig.choice_repr(node) != node:
                continue
            repr_literal = literal_map.get(Aig.literal(node))
            if repr_literal is None:
                continue
            for member, phase in aig.choices(node):
                member_literal = literal_map.get(Aig.literal(member))
                if member_literal is None:
                    continue
                rebuilt.add_choice(
                    Aig.node_of(repr_literal),
                    member_literal ^ int(phase) ^ (repr_literal & 1),
                )
    return rebuilt, literal_map


def cleanup_dangling_klut(network: KLutNetwork) -> tuple[KLutNetwork, dict[int, int]]:
    """Remove k-LUT nodes not reachable from any primary output.

    Rebuilds the PO cones into a fresh :class:`KLutNetwork`; returns the
    cleaned network and a map from old node index to new node index
    (PIs, reachable constants and reachable LUTs).  PO complementation
    flags and PI/PO names are preserved.
    """
    reachable = set(network.tfi(network.po_nodes()))
    rebuilt = KLutNetwork(network.name)
    node_map: dict[int, int] = {}
    for node in network.nodes():
        if network.is_constant(node) and node in reachable:
            node_map[node] = rebuilt.constant_node(network.constant_value(node))
    for pi, name in zip(network.pis, network.pi_names):
        node_map[pi] = rebuilt.add_pi(name)
    for node in network.topological_order():
        if node not in reachable:
            continue
        fanins = [node_map[f] for f in network.lut_fanins(node)]
        node_map[node] = rebuilt.add_lut(fanins, network.lut_function(node))
    for (node, negated), name in zip(network.pos, network.po_names):
        rebuilt.add_po(node_map[node], negated=negated, name=name)
    return rebuilt, node_map


def cleanup_dangling(network: Aig | KLutNetwork) -> tuple[Aig | KLutNetwork, dict[int, int]]:
    """Remove nodes not reachable from any primary output (kind-generic).

    AIGs go through the strashing rebuild restricted to the PO cones and
    return an old-literal to new-literal map; k-LUT networks go through
    :func:`cleanup_dangling_klut` and return an old-node to new-node map.
    """
    if isinstance(network, KLutNetwork):
        return cleanup_dangling_klut(network)
    return rebuild_strashed(network)


@dataclass(frozen=True)
class NetworkStatistics:
    """Size statistics of an AIG, mirroring the columns of Table II."""

    num_pis: int
    num_pos: int
    num_gates: int
    depth: int

    def __str__(self) -> str:
        return (
            f"PI/PO {self.num_pis}/{self.num_pos}  Lev {self.depth}  Gate {self.num_gates}"
        )


def network_statistics(aig: Aig) -> NetworkStatistics:
    """PI/PO/gate/level statistics of an AIG (the Table II "Statistics" block)."""
    return NetworkStatistics(
        num_pis=aig.num_pis,
        num_pos=aig.num_pos,
        num_gates=aig.num_ands,
        depth=aig.depth(),
    )
