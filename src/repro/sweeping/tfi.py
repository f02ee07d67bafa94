"""Transitive-fanin manager (Fig. 2, "Transitive fanin manager").

Algorithm 2 bounds the number of nodes inspected in the transitive fanin
of a class member when searching for a merge driver (``n = 1000`` in the
paper, line 1).  The manager answers the two questions the sweeper asks:
"which drivers are reachable within the budget?" and "is this merge
structurally legal?" (a driver inside the candidate's transitive fanout
would create a combinational cycle).

Incremental-engine design
-------------------------

* :meth:`TfiManager.is_legal_merge` never materialises the driver's
  full unbounded TFI (O(N) per candidate/driver pair).  It relies on the
  AIG's cached topological positions: a driver positioned *before* the
  candidate cannot contain it in its fanin cone, which settles the common
  sweeping case in O(1).  Otherwise a DFS from the driver runs with
  ancestor pruning -- any node positioned at or before the candidate is
  never expanded, because its entire TFI sits at strictly smaller
  positions -- so only the nodes strictly between the candidate and the
  driver in topological position are ever visited.
* :meth:`TfiManager.order_drivers` never builds the bounded cone either:
  it runs the bounded breadth-first search only until every driver is
  classified, and nothing is cached, so merges need no invalidation.
"""

from __future__ import annotations

from typing import Sequence

from ..networks.aig import Aig

__all__ = ["TfiManager"]


class TfiManager:
    """Bounded-TFI queries and merge legality on one AIG."""

    def __init__(self, aig: Aig, limit: int = 1000) -> None:
        if limit < 1:
            raise ValueError("TFI node limit must be positive")
        self.aig = aig
        self.limit = limit

    def bounded_tfi(self, node: int) -> frozenset[int]:
        """Up to ``limit`` nodes of the transitive fanin of ``node`` (node included)."""
        return frozenset(self.aig.tfi([node], limit=self.limit))

    def in_bounded_tfi(self, node: int, of: int) -> bool:
        """True if ``node`` lies within the bounded TFI cone of ``of``."""
        return node in self.bounded_tfi(of)

    def is_legal_merge(self, candidate: int, driver: int) -> bool:
        """True if substituting ``candidate`` by ``driver`` cannot create a cycle.

        The substitution redirects the fanouts of ``candidate`` to
        ``driver``; it is structurally safe exactly when ``candidate`` is
        not in the (full) transitive fanin of ``driver``.

        Decided via cached topological positions: fanin edges strictly
        decrease position, so a driver positioned before the candidate is
        legal in O(1), and the fallback DFS from the driver prunes every
        node positioned at or before the candidate -- it visits only the
        position interval between the two nodes, never the whole cone.
        """
        if candidate == driver:
            return False
        aig = self.aig
        candidate_position = aig.topological_position(candidate)
        if aig.topological_position(driver) < candidate_position:
            return True
        stack = [driver]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node == candidate:
                return False
            if node in seen:
                continue
            seen.add(node)
            if aig.topological_position(node) <= candidate_position:
                # Everything in this node's TFI sits at strictly smaller
                # positions than the candidate; no path can reach it.
                continue
            stack.extend(aig.gate_fanin_nodes(node))
        return True

    def order_drivers(self, candidate: int, drivers: Sequence[int]) -> list[int]:
        """Order merge drivers: bounded-TFI members first, then by node index.

        The paper inspects the TFI cones of the class members to maximise
        the quality of result; drivers that already sit in the candidate's
        bounded fanin cone are structurally closest and are tried first.

        The cone is the one :meth:`bounded_tfi` returns: the first
        ``limit`` distinct nodes of a breadth-first search from the
        candidate.  The search is inlined over the raw node array and
        stops as soon as every driver is classified, so the cone itself is
        never built.
        """
        if len(drivers) < 2:
            return list(drivers)
        pending = set(drivers)
        inside: set[int] = set()
        if candidate in pending:
            pending.discard(candidate)
            inside.add(candidate)
        entries = self.aig.node_entries
        limit = self.limit
        # Deduplicating at push time keeps the BFS order of first visits,
        # so ``frontier[:limit]`` is exactly the bounded cone.
        frontier = [candidate]
        seen = {candidate}
        cursor = 0
        while pending and cursor < len(frontier) and len(frontier) < limit:
            fanin0, fanin1 = entries[frontier[cursor]]
            cursor += 1
            if fanin0 < 0:
                continue
            for fanin in (fanin0 >> 1, fanin1 >> 1):
                if fanin in seen or len(frontier) >= limit:
                    continue
                seen.add(fanin)
                frontier.append(fanin)
                if fanin in pending:
                    pending.discard(fanin)
                    inside.add(fanin)
        return sorted(drivers, key=lambda d: (d not in inside, d))
