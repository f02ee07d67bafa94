"""AND-tree balancing (the ``b`` pass).

AND is associative and commutative, so any maximal single-fanout tree of
non-complemented AND edges can be flattened into one n-ary conjunction
and rebuilt as a depth-minimal tree.  Following ABC's ``balance``, the
rebuild pairs the two shallowest operands first (the Huffman-style
greedy that minimises the depth of the resulting tree), which shortens
the critical path and -- through the strashing constructor -- often
shares gates between overlapping trees.

Tree boundaries are complemented edges, primary inputs, constants and
multi-fanout nodes (collapsing a shared node would duplicate its cone).
The pass is non-destructive: it returns a freshly built network
containing only the PO-reachable logic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..networks.aig import Aig

__all__ = ["BalanceReport", "balance"]


@dataclass
class BalanceReport:
    """Counters collected by one balance pass."""

    gates_before: int = 0
    gates_after: int = 0
    depth_before: int = 0
    depth_after: int = 0
    trees_flattened: int = 0
    widest_tree: int = 0

    def as_details(self) -> dict[str, float]:
        """Flat numeric view for per-pass statistics."""
        return {
            "trees_flattened": float(self.trees_flattened),
            "widest_tree": float(self.widest_tree),
            "depth_before": float(self.depth_before),
            "depth_after": float(self.depth_after),
        }


def balance(aig: Aig) -> tuple[Aig, BalanceReport]:
    """Depth-balance every maximal AND tree of a network.

    Returns the balanced network (dangling logic dropped by
    construction) and a report.  The result is functionally equivalent:
    only associativity/commutativity of AND is used.
    """
    report = BalanceReport(
        gates_before=aig.num_ands,
        depth_before=aig.depth(),
    )
    balanced = Aig(aig.name)
    literal_map: dict[int, int] = {0: 0}
    for pi, name in zip(aig.pis, aig.pi_names):
        literal_map[pi] = balanced.add_pi(name)
    levels: dict[int, int] = {0: 0}
    for pi in balanced.pis:
        levels[pi] = 0

    def tree_leaves(root: int) -> list[int]:
        """Old-graph leaf literals of the maximal AND tree rooted at ``root``.

        Descends through non-complemented edges into single-fanout AND
        gates; everything else terminates a branch.
        """
        leaves: list[int] = []
        work = list(aig.fanins(root))
        while work:
            literal = work.pop()
            node = literal >> 1
            if literal & 1 == 0 and aig.is_and(node) and aig.fanout_count(node) == 1:
                work.extend(aig.fanins(node))
            else:
                leaves.append(literal)
        return leaves

    def build(root: int) -> int:
        """New-graph literal of old node ``root`` (iterative, memoised)."""
        pending = [root]
        while pending:
            node = pending[-1]
            if node in literal_map:
                pending.pop()
                continue
            leaves = tree_leaves(node)
            missing = [
                leaf >> 1 for leaf in leaves if (leaf >> 1) not in literal_map
            ]
            if missing:
                pending.extend(missing)
                continue
            pending.pop()
            report.trees_flattened += 1
            report.widest_tree = max(report.widest_tree, len(leaves))
            # Huffman-style shallowest-first pairing; the tie-break index
            # keeps the heap deterministic.
            heap: list[tuple[int, int, int]] = []
            for index, leaf in enumerate(leaves):
                mapped = literal_map[leaf >> 1] ^ (leaf & 1)
                heapq.heappush(heap, (levels.get(mapped >> 1, 0), index, mapped))
            counter = len(leaves)
            while len(heap) > 1:
                level_a, _, literal_a = heapq.heappop(heap)
                level_b, _, literal_b = heapq.heappop(heap)
                combined = balanced.add_and(literal_a, literal_b)
                node_index = combined >> 1
                if node_index not in levels:
                    levels[node_index] = max(level_a, level_b) + 1
                heapq.heappush(heap, (levels.get(node_index, 0), counter, combined))
                counter += 1
            literal_map[node] = heap[0][2] if heap else 1  # empty tree: constant true
        return literal_map[root]

    for po, name in zip(aig.pos, aig.po_names):
        node = po >> 1
        if aig.is_and(node):
            mapped = build(node)
        else:
            mapped = literal_map[node]
        balanced.add_po(mapped ^ (po & 1), name)

    report.gates_after = balanced.num_ands
    report.depth_after = balanced.depth()
    return balanced, report
