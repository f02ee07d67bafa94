"""The cut datatype and the single merge/dominance implementation.

A :class:`Cut` is a set of leaf nodes bounding a cone, optionally
carrying the cone's function over those leaves as a word-packed
:class:`~repro.truthtable.TruthTable` (leaf ``i`` = table input ``i``).
The table is *fused* into cut merging: once the union of two fanin
cuts is selected as a kept cut, its table is built directly from the
fanin tables (expand each to the merged leaf set, apply the fanin
complements, AND) -- no cone is ever re-walked, and no table is built
for a candidate that selection drops.  Equality and hashing ignore the
table, so cuts compare by their leaf sets exactly as before the tables
existed.

:func:`merge_cut_sets` is the one merge/dominance implementation in the
tree; the static enumeration, the incremental rewriting database and the
mapper all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from ..truthtable import TruthTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .cache import CutFunctionCache

__all__ = ["Cut", "trivial_cut", "merge_cut_sets"]

#: Table of a trivial cut ``{node}``: the identity function of one input.
_IDENTITY = TruthTable.variable(0, 1)

#: Sort key of a ``(size, mask, cut0, cut1)`` merge candidate.
_by_size = itemgetter(0)


@dataclass(frozen=True)
class Cut:
    """A k-feasible cut: the leaf set, plus (optionally) its fused function.

    ``table`` is the function of the cut's root over ``leaves`` (leaf
    ``i`` = input ``i``); it does not participate in equality or hashing,
    so cut sets compare by leaf sets alone.
    """

    leaves: tuple[int, ...]
    table: TruthTable | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        """Number of leaves."""
        return len(self.leaves)

    def merge(self, other: "Cut") -> "Cut":
        """Union of two cuts (leaves stay sorted and deduplicated)."""
        return Cut(tuple(sorted(set(self.leaves) | set(other.leaves))))

    def dominates(self, other: "Cut") -> bool:
        """True if this cut's leaves are a subset of the other's."""
        return set(self.leaves) <= set(other.leaves)


def trivial_cut(node: int, with_table: bool = True) -> Cut:
    """The trivial cut ``{node}`` (function: identity of one input)."""
    return Cut((node,), _IDENTITY if with_table else None)


def _merge_leaves(leaves0: Sequence[int], leaves1: Sequence[int]) -> tuple[int, ...]:
    """Sorted union of two sorted leaf tuples."""
    if leaves0 == leaves1:
        return tuple(leaves0)
    return tuple(sorted(set(leaves0) | set(leaves1)))


def merge_cut_sets(
    node: int,
    fanin0: int,
    fanin1: int,
    cuts0: Sequence[Cut],
    cuts1: Sequence[Cut],
    k: int,
    cut_limit: int,
    cache: "CutFunctionCache | None" = None,
) -> list[Cut]:
    """Cut set of ``node`` from its two fanin cut sets.

    ``fanin0`` and ``fanin1`` are the fanin *literals* (complement bits
    are folded into the fused tables).  The result holds at most
    ``cut_limit - 1`` merged cuts, smallest first, followed by the
    trivial cut ``{node}`` (downstream nodes use it to treat this node
    as a leaf).

    Selection is one pass over the candidate pairs ``(cut0, cut1)``:

    1. every pair whose leaf union has at most ``k`` leaves becomes a
       candidate, in arrival order (``cuts0`` outer, ``cuts1`` inner);
    2. the candidates are stably sorted by size;
    3. a candidate is kept unless an already-kept leaf set is a subset
       of its own (equal sets included);
    4. the pass stops once ``cut_limit - 1`` candidates are kept.

    Leaves are built only for kept cuts and, with a
    :class:`~repro.cuts.cache.CutFunctionCache`, so are truth tables,
    fused from the fanin cut tables (never by a cone walk): exactly one
    ``merge_table`` call per kept cut.  Without a cache the cuts carry
    ``table=None``.

    This is the same selection as merging every candidate eagerly,
    evicting the ones a later candidate dominates, then sorting by size
    and truncating.  That eager result is the set of *minimal* leaf
    sets, each at its first arrival, in arrival order, stably sorted by
    size and truncated.  In (size, arrival) order every strict subset of
    a candidate is smaller, so it is visited first and has a kept subset
    by then: a non-minimal candidate is always rejected, a later copy of
    a kept set is rejected, and the first arrival of a minimal set finds
    no kept subset but itself.  The kept sequence is therefore the
    eager one, and stopping at ``cut_limit - 1`` is its truncation;
    each kept cut also comes from the same ``(cut0, cut1)`` pair, so its
    table is the same.

    Subset tests run on per-call leaf *bitmasks* (each distinct leaf of
    the two fanin sets gets one bit), so a test is two integer ops.
    """
    comp0, comp1 = fanin0 & 1, fanin1 & 1
    # One bit per distinct leaf appearing in either fanin set.
    bit_of: dict[int, int] = {}
    for cut in cuts0:
        for leaf in cut.leaves:
            if leaf not in bit_of:
                bit_of[leaf] = 1 << len(bit_of)
    for cut in cuts1:
        for leaf in cut.leaves:
            if leaf not in bit_of:
                bit_of[leaf] = 1 << len(bit_of)
    leaf_bit = bit_of.__getitem__
    masks1 = [(sum(map(leaf_bit, cut.leaves)), cut) for cut in cuts1]

    candidates: list[tuple[int, int, Cut, Cut]] = []
    for cut0 in cuts0:
        mask0 = sum(map(leaf_bit, cut0.leaves))
        for mask1, cut1 in masks1:
            mask = mask0 | mask1
            size = mask.bit_count()
            if size <= k:
                candidates.append((size, mask, cut0, cut1))
    candidates.sort(key=_by_size)  # list.sort is stable: ties keep arrival order

    room = cut_limit - 1
    merged: list[Cut] = []
    kept_masks: list[int] = []
    for _size, mask, cut0, cut1 in candidates:
        if len(merged) >= room:
            break
        for existing in kept_masks:
            if existing & mask == existing:
                break
        else:
            kept_masks.append(mask)
            leaves = _merge_leaves(cut0.leaves, cut1.leaves)
            if cache is not None and cut0.table is not None and cut1.table is not None:
                table = cache.merge_table(cut0.table, cut0.leaves, comp0, cut1.table, cut1.leaves, comp1, leaves)
                merged.append(Cut(leaves, table))
            else:
                merged.append(Cut(leaves))
    merged.append(trivial_cut(node, with_table=cache is not None))
    return merged
