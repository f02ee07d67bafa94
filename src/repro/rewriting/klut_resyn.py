"""Mapped-network resynthesis: MFFC collapse on k-LUT networks (the ``lutmffc`` pass).

Technology mapping selects cuts over the *subject AIG*; once the network
is expressed as LUTs, new area opportunities appear that no AIG cut can
see -- most importantly, a LUT cone whose combined support still fits
into ``k`` inputs can collapse into a **single** LUT, and wider cones can
be re-decomposed from their collapsed truth table into fewer LUTs than
the mapper chose.  This is the first pass that *optimizes the mapped
network in place*, which the read-only seed ``KLutNetwork`` made
impossible; it exists because the container now carries the full
:class:`~repro.networks.protocol.MutableNetwork` surface (O(1)
``fanout_count`` for the MFFC walk, incremental :meth:`substitute`
with listener events, ``cleanup_dangling`` for the freed cones).

Per LUT node, in topological order:

1. collect the node's maximum fanout-free cone (the LUTs freed if the
   node is substituted away) with the network-generic
   :func:`~repro.rewriting.mffc.collect_mffc`;
2. collapse the cone into one truth table over its boundary leaves with
   the validating k-LUT cone walker, and shrink it to its true support
   (mapping regularly leaves don't-care inputs behind);
3. price a replacement: a constant or wire for degenerate functions,
   one LUT when the support fits ``k``, otherwise a re-decomposition --
   the collapsed function goes through the existing decomposition
   synthesiser (:func:`~repro.rewriting.library.synthesize_structure`)
   and the multi-pass mapper, and the resulting LUT cone is spliced in;
4. commit through the incremental :meth:`KLutNetwork.substitute` when
   the replacement uses fewer LUTs than the cone frees (``gain > 0``;
   ``zero_gain`` accepts break-even restructurings too).

Every committed replacement computes the collapsed cone function
exactly, so the pass is equivalence-preserving by construction; the
test suite additionally verifies results by word-parallel simulation
against the source AIG.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cuts import klut_cone_table
from ..networks.aig import Aig
from ..networks.klut import KLutNetwork
from ..networks.transforms import cleanup_dangling_klut
from ..truthtable import TruthTable
from .library import synthesize_structure
from .mffc import collect_mffc

__all__ = ["LutResynReport", "lut_resynthesize"]

#: Cones of more LUTs than this are skipped.
_MAX_CONE = 32


@dataclass
class LutResynReport:
    """Counters collected by one LUT-MFFC resynthesis pass."""

    luts_before: int = 0
    luts_after: int = 0
    nodes_visited: int = 0
    cones_evaluated: int = 0
    collapsed: int = 0
    decomposed: int = 0
    constants_folded: int = 0
    wires_folded: int = 0
    zero_gain_applied: int = 0
    estimated_gain: int = 0

    def as_details(self) -> dict[str, float]:
        """Flat numeric view for per-pass statistics."""
        return {
            "nodes_visited": float(self.nodes_visited),
            "cones_evaluated": float(self.cones_evaluated),
            "collapsed": float(self.collapsed),
            "decomposed": float(self.decomposed),
            "constants_folded": float(self.constants_folded),
            "wires_folded": float(self.wires_folded),
            "zero_gain_applied": float(self.zero_gain_applied),
            "estimated_gain": float(self.estimated_gain),
        }


def _decompose_cost(table: TruthTable, k: int) -> tuple[KLutNetwork, int]:
    """Re-map a collapsed function into LUTs of arity <= k (not spliced yet).

    The function is synthesised into a small AIG structure by the shared
    decomposition synthesiser and run through the multi-pass mapper; the
    returned miniature network is spliced into the host only if its LUT
    count wins against the freed cone.
    """
    from ..networks.mapping import technology_map

    mini = Aig("lutmffc_cone")
    pi_literals = [mini.add_pi() for _ in range(table.num_vars)]
    structure = synthesize_structure(table)
    mini.add_po(structure.instantiate(mini, pi_literals))
    result = technology_map(mini, k=k)
    return result.network, result.network.num_luts


def _splice(work: KLutNetwork, sub: KLutNetwork, leaves: list[int]) -> int:
    """Copy a miniature mapped cone into ``work``; returns the new root node.

    ``sub`` has exactly one PO; its PIs map positionally onto ``leaves``.
    A negated PO is absorbed into the root LUT's function (the host
    network has no complemented edges).
    """
    node_map: dict[int, int] = {}
    for pi_node, leaf in zip(sub.pis, leaves):
        node_map[pi_node] = leaf
    root_node, root_negated = sub.pos[0]
    for lut in sub.topological_order():
        function = sub.lut_function(lut)
        if lut == root_node and root_negated:
            function = ~function
        fanins = []
        for fanin in sub.lut_fanins(lut):
            mapped = node_map.get(fanin)
            if mapped is None:  # a constant node pulled in by the mapper
                mapped = work.constant_node(sub.constant_value(fanin))
                node_map[fanin] = mapped
            fanins.append(mapped)
        node_map[lut] = work.add_lut(fanins, function)
    return node_map[root_node]


def lut_resynthesize(
    network: KLutNetwork,
    k: int | None = None,
    max_leaves: int = 10,
    zero_gain: bool = False,
) -> tuple[KLutNetwork, LutResynReport]:
    """One MFFC-resynthesis pass over a copy of a mapped network.

    ``k`` bounds the fan-in of every LUT the pass creates; it defaults
    to the network's current maximum fan-in (so resynthesis never
    exceeds the mapper's LUT size).  Cones wider than ``max_leaves``
    boundary inputs or larger than 32 LUTs are skipped.
    Returns the resynthesised, dangling-cleaned network and a report.
    """
    if max_leaves < 2:
        raise ValueError("max_leaves must be at least 2")
    work = network.clone()
    effective_k = k if k is not None else max(2, work.max_fanin_size())
    if effective_k < 2:
        raise ValueError("LUT size k must be at least 2")
    report = LutResynReport(luts_before=work.num_luts)
    dead: set[int] = set()
    # References held by already-committed (dead, not-yet-cleaned) cones,
    # per referenced node.  Subtracting them from the maintained counts
    # keeps later MFFCs exact within one pass: a dead cone must not pin
    # the fanin logic it shares with a live cone.
    dead_refs: dict[int, int] = {}

    def live_count(member: int) -> int:
        return work.fanout_count(member) - dead_refs.get(member, 0)

    for node in work.topological_order():
        if node in dead:
            continue
        if live_count(node) == 0:
            continue  # dangling (or referenced only by dead cones)
        report.nodes_visited += 1
        mffc = collect_mffc(work, node, max_size=_MAX_CONE, fanout_count=live_count)
        if mffc is None or len(mffc) < 2:
            continue
        leaves: list[int] = []
        for member in mffc:
            for fanin in work.lut_fanins(member):
                if fanin not in mffc and not work.is_constant(fanin) and fanin not in leaves:
                    leaves.append(fanin)
        if len(leaves) > max_leaves:
            continue
        leaves.sort()
        # The MFFC boundary always cuts the cone (every non-member fanin
        # of a member is a leaf), so the strict walker cannot raise here.
        table = klut_cone_table(work, node, leaves)
        report.cones_evaluated += 1
        shrunk, kept = table.shrink_to_support()
        kept_leaves = [leaves[i] for i in kept]

        threshold = 0 if zero_gain else 1
        freed = len(mffc)
        if shrunk.num_vars == 0:
            # The whole cone computes a constant.
            gain = freed
            if gain < threshold:
                continue
            new_node = work.constant_node(bool(shrunk.bits & 1))
            report.constants_folded += 1
        elif shrunk.num_vars == 1 and shrunk.bits == 0b10:
            # The cone is a wire onto one leaf.
            gain = freed
            if gain < threshold:
                continue
            new_node = kept_leaves[0]
            report.wires_folded += 1
        elif shrunk.num_vars <= effective_k:
            # The collapsed support fits one LUT (an inverted wire lands
            # here too, as a 1-input LUT).
            gain = freed - 1
            if gain < threshold:
                continue
            new_node = work.add_lut(kept_leaves, shrunk)
            report.collapsed += 1
        else:
            # Too wide for one LUT: re-decompose and re-map the cone.
            sub, cost = _decompose_cost(shrunk, effective_k)
            gain = freed - cost
            if gain < threshold:
                continue
            new_node = _splice(work, sub, kept_leaves)
            report.decomposed += 1

        work.substitute(node, new_node)
        dead.update(mffc)
        for member in mffc:
            for fanin in work.lut_fanins(member):
                dead_refs[fanin] = dead_refs.get(fanin, 0) + 1
        report.estimated_gain += gain
        if gain == 0:
            report.zero_gain_applied += 1

    cleaned, _node_map = cleanup_dangling_klut(work)
    report.luts_after = cleaned.num_luts
    return cleaned, report
