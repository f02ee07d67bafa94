"""Maximum fanout-free cones (MFFCs), network-generic.

The MFFC of a node is the part of its fanin cone that is referenced
*only* through the node: exactly the gates that become dangling when the
node is substituted away.  DAG-aware rewriting prices a candidate
replacement as ``gain = |MFFC| - gates_added``, so the MFFC is the
"budget" a rewrite is allowed to spend.

The computation is the classical virtual-dereference walk: starting from
the root, each fanin's reference count is decremented as if its parent
were deleted; a count hitting zero recursively frees the fanin.  It is
written against the :class:`~repro.networks.protocol.LogicNetwork`
read surface (``is_gate`` / ``gate_fanin_nodes`` / ``fanout_count``),
so the same walk serves AIG rewriting/refactoring and the mapped-network
(k-LUT) resynthesis pass.  Counts come from the network's O(1)
``fanout_count`` (including primary-output references), so collecting
one MFFC costs O(cone), never O(network).
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..networks.protocol import LogicNetwork

__all__ = ["collect_mffc"]


def collect_mffc(
    network: LogicNetwork,
    root: int,
    leaves: Iterable[int] = (),
    max_size: int | None = None,
    fanout_count: Callable[[int], int] | None = None,
) -> set[int] | None:
    """Gates freed when ``root`` is substituted away.

    The walk never crosses ``leaves`` (the cut boundary), primary inputs
    or constant nodes; the root itself is always part of the cone (a
    substitution always frees it).  Reference counts include primary
    outputs, so a cone gate that also drives a PO is correctly kept.
    With ``max_size`` the walk aborts and returns ``None`` as soon as the
    cone exceeds the bound (used by refactoring to skip huge cones).
    ``fanout_count`` overrides the network's own O(1) counter -- passes
    that accumulate dangling cones between cleanups (the LUT
    resynthesis) discount references held by already-dead gates, so one
    committed cone does not shrink the MFFCs of later roots sharing its
    fanin logic.
    """
    if not network.is_gate(root):
        raise ValueError(f"node {root} is not an internal gate")
    count_of = fanout_count if fanout_count is not None else network.fanout_count
    stop = set(leaves)
    mffc: set[int] = {root}
    remaining: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        for fanin in network.gate_fanin_nodes(node):
            if fanin in stop or not network.is_gate(fanin) or fanin in mffc:
                continue
            count = remaining.get(fanin)
            if count is None:
                count = count_of(fanin)
            count -= 1
            remaining[fanin] = count
            if count == 0:
                mffc.add(fanin)
                if max_size is not None and len(mffc) > max_size:
                    return None
                stack.append(fanin)
    return mffc

