"""The paper's simulation cuts (Section III-B), on the shared cut layer.

Given the set of nodes whose simulation signatures are requested, the
network is partitioned into tree-structured cuts whose leaf counts
respect a limit derived from the number of simulation patterns
(``limit = floor(log2(#patterns))``).  Single-fanout chains collapse
into one cut; multi-fanout nodes and requested nodes form cut
boundaries so that no value is recomputed.

Cut functions are computed by the shared k-LUT cone walker
(:func:`repro.cuts.cone.klut_cone_table`); the STP simulator passes its
compiled op lists into the same walker as the composition step instead
of keeping a private copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..truthtable import TruthTable
from .cone import klut_cone_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..networks.klut import KLutNetwork
    from ..networks.protocol import LogicNetwork

__all__ = ["SimulationCut", "simulation_cuts", "simulation_cuts_generic", "cut_truth_table"]


@dataclass(frozen=True)
class SimulationCut:
    """One tree cut produced by the paper's simulation-cut algorithm.

    Attributes
    ----------
    root:
        The node whose value the cut computes.
    leaves:
        Boundary nodes whose values the cut consumes (other cut roots,
        requested nodes or primary inputs), in a fixed order.
    volume:
        Interior nodes absorbed into the cut (excluding the root), in
        topological order; these nodes are *not* simulated individually.
    """

    root: int
    leaves: tuple[int, ...]
    volume: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of leaves."""
        return len(self.leaves)


def simulation_cuts_generic(
    targets: Sequence[int],
    fanins_of: Callable[[int], Iterable[int]],
    is_source: Callable[[int], bool],
    limit: int,
) -> list[SimulationCut]:
    """Partition the TFI of ``targets`` into tree cuts with at most ``limit`` leaves.

    ``is_source`` marks nodes that already carry values (PIs, constants);
    they never become cut roots.  Cuts are returned in topological order (a
    cut only consumes leaves that are sources or roots of earlier cuts).
    """
    if limit < 1:
        raise ValueError("cut leaf limit must be at least 1")

    # Collect the cone and per-node fanout counts *within* the cone.
    cone: list[int] = []
    seen: set[int] = set()
    stack = [t for t in targets]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        cone.append(node)
        if is_source(node):
            continue
        stack.extend(fanins_of(node))
    fanout_in_cone: dict[int, int] = {node: 0 for node in cone}
    for node in cone:
        if is_source(node):
            continue
        for fanin in fanins_of(node):
            fanout_in_cone[fanin] = fanout_in_cone.get(fanin, 0) + 1

    boundary: set[int] = set(targets)
    boundary.update(node for node, count in fanout_in_cone.items() if count >= 2)

    def expand(root: int) -> tuple[list[int], list[int]]:
        """Leaves and interior volume of the tree cut rooted at ``root``."""
        leaves: list[int] = []
        volume: list[int] = []
        work = list(fanins_of(root))
        while work:
            node = work.pop(0)
            if is_source(node) or node in boundary:
                if node not in leaves:
                    leaves.append(node)
                continue
            volume.append(node)
            work.extend(fanins_of(node))
        return leaves, volume

    def subtree_leaf_count(node: int) -> int:
        """Leaves of the subtree hanging below an interior node."""
        count = 0
        work = list(fanins_of(node))
        seen_local: set[int] = set()
        while work:
            child = work.pop()
            if child in seen_local:
                continue
            seen_local.add(child)
            if is_source(child) or child in boundary:
                count += 1
            else:
                work.extend(fanins_of(child))
        return count

    pending = [t for t in targets if not is_source(t)]
    processed: dict[int, SimulationCut] = {}
    queue = list(dict.fromkeys(pending))
    while queue:
        root = queue.pop(0)
        if root in processed or is_source(root):
            continue
        leaves, volume = expand(root)
        # Enforce the leaf limit by promoting the heaviest interior node to
        # a boundary (it becomes a cut of its own) and re-expanding.
        while len(leaves) > limit:
            candidates = [n for n in volume if 1 < subtree_leaf_count(n) < len(leaves)]
            if not candidates:
                break
            heaviest = max(candidates, key=subtree_leaf_count)
            boundary.add(heaviest)
            leaves, volume = expand(root)
        processed[root] = SimulationCut(root, tuple(leaves), tuple(volume))
        for leaf in leaves:
            if not is_source(leaf) and leaf not in processed:
                queue.append(leaf)

    # Order cuts topologically: a cut goes after the cuts of its non-source leaves.
    order: list[SimulationCut] = []
    emitted: set[int] = set()

    def emit(root: int) -> None:
        stack2: list[tuple[int, bool]] = [(root, False)]
        while stack2:
            node, expanded = stack2.pop()
            if expanded:
                order.append(processed[node])
                emitted.add(node)
                continue
            if node in emitted or node not in processed:
                continue
            emitted.add(node)
            stack2.append((node, True))
            for leaf in processed[node].leaves:
                if leaf in processed and leaf not in emitted:
                    stack2.append((leaf, False))

    # ``emitted`` doubles as a visited marker during the DFS; reset per root
    # is unnecessary because processed cuts are appended exactly once.
    emitted.clear()
    for target in targets:
        if target in processed and target not in emitted:
            emit(target)
    for root in processed:
        if root not in emitted:
            emit(root)
    return order


def simulation_cuts(network: "LogicNetwork", targets: Sequence[int], limit: int) -> list[SimulationCut]:
    """The paper's simulation-cut algorithm on any logic network.

    Operates on the :class:`~repro.networks.protocol.LogicNetwork` read
    surface (``gate_fanin_nodes`` / ``is_gate``), so the partitioning
    works identically on k-LUT networks (the paper's setting) and AIGs.
    """
    return simulation_cuts_generic(
        targets,
        network.gate_fanin_nodes,
        lambda node: not network.is_gate(node),
        limit,
    )


def cut_truth_table(network: "KLutNetwork", root: int, leaves: Sequence[int]) -> TruthTable:
    """Truth table of ``root`` as a function of ``leaves`` on a k-LUT network.

    This is the reference construction by :meth:`TruthTable.compose`;
    the STP simulator computes the same function by running each LUT's
    compiled op list, and the two are cross-checked in the test suite.
    """
    return klut_cone_table(network, root, leaves)
