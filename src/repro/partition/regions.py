"""Region decomposition: convex partitions with a frozen boundary.

A :class:`Region` is a set of AND gates of the parent AIG together with
its *frozen boundary*: the ``inputs`` (nodes outside the region feeding
it -- PIs or upstream gates) and the ``outputs`` (region gates visible
outside -- referenced by a PO or by a gate of another region).  A worker
optimizes the region as a standalone sub-network over the boundary
inputs; merge-back substitutes the boundary outputs.

Convexity is the safety property the whole scheme rests on: every
region is a **contiguous slice of one fixed topological order** of the
parent's gates.  In a fixed topological order, any path ``a -> ... ->
b`` between two slice members runs entirely through positions between
``a`` and ``b``, i.e. inside the slice -- so no path leaves a region
and re-enters it.  Every boundary input therefore precedes the whole
slice, no replacement cone (a function of boundary inputs only) can
depend on a region output, and merge-back substitution cannot create a
combinational cycle.

Two decomposition strategies share that invariant:

* ``"window"`` -- greedy slices of the parent's own topological order,
  with each cut point chosen (within the back half of the window) to
  minimise the number of values live across the cut.  This snaps region
  boundaries to the natural fanout-free seams of the network.
* ``"level"`` -- gates sorted by ``(level, node)`` (also a valid
  topological order, since every fanin has a strictly smaller level)
  and packed into whole level bands: regions of structurally
  comparable depth, the shape the level-banded literature uses.

Both strategies are deterministic functions of the network structure
alone -- no randomness, no dependence on worker scheduling -- which is
what makes ``--jobs 1`` and ``--jobs 4`` decompose identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..networks.aig import Aig

__all__ = ["Region", "partition_network", "extract_region", "stream_region_networks"]

#: Decomposition strategies accepted by :func:`partition_network`.
STRATEGIES = ("window", "level")


@dataclass(frozen=True)
class Region:
    """One optimization region of a parent AIG.

    ``gates`` is the contiguous topological-order slice (parent node
    ids, in that order -- the extraction iterates it directly);
    ``inputs`` and ``outputs`` are the frozen boundary, sorted by node
    id.  A gate with no fanout and no PO reference (already dangling in
    the parent) is a member but never an output.
    """

    index: int
    gates: tuple[int, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    @property
    def num_gates(self) -> int:
        return len(self.gates)


def _window_slices(aig: Aig, order: list[int], max_gates: int) -> list[list[int]]:
    """Greedy contiguous slices with boundary-minimising cut points.

    For a slice starting at ``start`` the hard cap is ``start +
    max_gates``; among the candidate cuts in the back half of that
    window the one crossed by the fewest live values (gates used at or
    beyond the cut, PO-referenced gates counting as live forever) is
    chosen, ties going to the largest slice.  The live counts for all
    candidate cuts come from one difference-array sweep, so slicing is
    O(n) overall.
    """
    n = len(order)
    position = {node: index for index, node in enumerate(order)}
    po_nodes = set(aig.po_nodes())
    last_use = [0] * n
    for index, node in enumerate(order):
        if node in po_nodes:
            last_use[index] = n
        else:
            last_use[index] = max(
                (position[gate] for gate in aig.fanouts(node) if gate in position),
                default=index,
            )
    slices: list[list[int]] = []
    start = 0
    while start < n:
        hard_end = min(start + max_gates, n)
        if hard_end == n:
            slices.append(order[start:n])
            break
        low = min(start + max(1, max_gates // 2), hard_end)
        # crossing(k) = |{p in [start, k) : last_use[p] >= k}| for every
        # candidate cut k in [low, hard_end], via a difference array:
        # gate p contributes to cuts in (p, last_use[p]].
        size = hard_end - low + 1
        delta = [0] * (size + 1)
        for p in range(start, hard_end):
            k_from = max(low, p + 1)
            k_to = min(hard_end, last_use[p])
            if k_to >= k_from:
                delta[k_from - low] += 1
                delta[k_to - low + 1] -= 1
        best_cut = hard_end
        best_cost: int | None = None
        running = 0
        for offset in range(size):
            running += delta[offset]
            if best_cost is None or running <= best_cost:
                best_cost = running
                best_cut = low + offset
        slices.append(order[start:best_cut])
        start = best_cut
    return slices


def _level_slices(order: list[int], level: dict[int, int], max_gates: int) -> list[list[int]]:
    """Pack whole level bands into slices of at most ``max_gates`` gates.

    ``order`` must already be sorted by ``(level, node)``.  A band
    larger than ``max_gates`` on its own is split (still contiguous, so
    still convex); otherwise band boundaries are respected.
    """
    slices: list[list[int]] = []
    current: list[int] = []
    index = 0
    n = len(order)
    while index < n:
        band_level = level[order[index]]
        band_end = index
        while band_end < n and level[order[band_end]] == band_level:
            band_end += 1
        band = order[index:band_end]
        if current and len(current) + len(band) > max_gates:
            slices.append(current)
            current = []
        if len(band) > max_gates:
            for chunk_start in range(0, len(band), max_gates):
                chunk = band[chunk_start : chunk_start + max_gates]
                if len(chunk) == max_gates:
                    slices.append(chunk)
                else:
                    current = list(chunk)
        else:
            current.extend(band)
        index = band_end
    if current:
        slices.append(current)
    return slices


def partition_network(aig: Aig, max_gates: int = 400, strategy: str = "window") -> list[Region]:
    """Decompose ``aig`` into disjoint convex regions of <= ``max_gates`` gates.

    Deterministic: the same network yields the same region list
    regardless of how (or where) the regions are later optimized.
    Every gate belongs to exactly one region; regions are returned in
    topological order of their slices.
    """
    if max_gates < 2:
        raise ValueError(f"max_gates must be >= 2, got {max_gates}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown partition strategy {strategy!r} (expected one of {', '.join(STRATEGIES)})")
    order = aig.topological_order()
    if not order:
        return []
    if strategy == "level":
        level = aig.levels()
        order = sorted(order, key=lambda node: (level[node], node))
        slices = _level_slices(order, level, max_gates)
    else:
        slices = _window_slices(aig, order, max_gates)
    po_nodes = set(aig.po_nodes())
    regions: list[Region] = []
    for index, chunk in enumerate(slices):
        members = set(chunk)
        inputs = sorted(
            {
                fanin
                for gate in chunk
                for fanin in aig.fanin_nodes(gate)
                if fanin not in members and not aig.is_constant(fanin)
            }
        )
        outputs = sorted(
            gate
            for gate in chunk
            if gate in po_nodes or any(fanout not in members for fanout in aig.fanouts(gate))
        )
        regions.append(Region(index, tuple(chunk), tuple(inputs), tuple(outputs)))
    return regions


def extract_region(aig: Aig, region: Region) -> Aig:
    """Materialise ``region`` as a standalone sub-network.

    The sub-network has one PI per boundary input (in ``region.inputs``
    order, named ``i<parent node>``) and one PO per boundary output (in
    ``region.outputs`` order, named ``o<parent node>``); the gates are
    re-instantiated through the sub-network's own strashing constructor
    in the region's topological order.  Workers must preserve PI and PO
    order, which every registered pass does -- merge-back zips the
    optimized POs against ``region.outputs`` positionally.
    """
    sub = Aig(f"{aig.name}.part{region.index}")
    literal_map: dict[int, int] = {0: 0}
    for node in region.inputs:
        literal_map[node] = sub.add_pi(f"i{node}")
    for node in region.gates:
        fanin0, fanin1 = aig.fanins(node)
        literal_map[node] = sub.add_and(
            literal_map[fanin0 >> 1] ^ (fanin0 & 1),
            literal_map[fanin1 >> 1] ^ (fanin1 & 1),
        )
    for node in region.outputs:
        sub.add_po(literal_map[node], f"o{node}")
    return sub


def stream_region_networks(
    aig: Aig, regions: Sequence[Region]
) -> Iterator[tuple[Region, Aig]]:
    """Yield ``(region, sub_network)`` one region at a time.

    The regions of one decomposition tile a single fixed topological
    order of the parent (contiguous slices, in order), so iterating them
    in sequence *is* one topological sweep over the parent's gates: each
    gate is visited exactly once, in order, and only the per-region
    literal map of the region currently being built is alive.  Peak
    materialized state is therefore O(largest region), not O(network) --
    the property the million-gate driver path relies on (the driver
    encodes each yielded sub-network to compact wire bytes and drops it
    before advancing the generator).

    Each yielded sub-network is ``extract_region(aig, region)``, which
    the streaming fuzz suite asserts.  The parent must not be mutated
    while the generator is live.
    """
    for region in regions:
        yield region, extract_region(aig, region)
