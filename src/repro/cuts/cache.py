"""Memoisation of cut functions, keyed by structural signatures.

The expensive step of fused cut merging is expanding the two fanin
tables to the merged leaf set and combining them.  The result depends
only on the *structural signature* of the merge -- the fanin table bits,
the positions the fanin leaves take inside the merged leaf set, and the
fanin complement flags -- never on the concrete node indices.  Real
netlists repeat local structures constantly (adder chains, shifter
stages, decoder slices), so a signature-keyed cache turns most merges
into one dictionary lookup.  The hit rate is reported by the mapper and
the ``repro map`` CLI.
"""

from __future__ import annotations

from ..truthtable import TruthTable
from ..truthtable.truth_table import spread_bits

__all__ = ["CutFunctionCache"]


class CutFunctionCache:
    """Structural-signature-keyed memo of fused cut-merge functions.

    One instance is shared by every consumer of a
    :class:`~repro.cuts.engine.CutEngine`; ``hits``/``misses`` count the
    merge-table lookups and :attr:`hit_rate` is the headline number the
    mapping benchmarks record.  :func:`~repro.cuts.cut.merge_cut_sets`
    looks up a table only for each cut it keeps, so the counters and the
    hit rate cover kept cuts alone, not every candidate it considered.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._tables: dict[tuple[int, ...], TruthTable] = {}
        self._complements: dict[tuple[int, int], TruthTable] = {}

    # -- fused merge tables -------------------------------------------------

    def merge_table(
        self,
        table0: TruthTable,
        leaves0: tuple[int, ...],
        comp0: int,
        table1: TruthTable,
        leaves1: tuple[int, ...],
        comp1: int,
        leaves: tuple[int, ...],
    ) -> TruthTable:
        """Function of ``AND(fanin0 ^ comp0, fanin1 ^ comp1)`` over ``leaves``.

        ``table0``/``table1`` are the fanin cut functions over
        ``leaves0``/``leaves1``, sorted like every cut's leaves and both
        subsets of the sorted ``leaves``.  The result
        is memoised under the merge's structural signature, so two
        structurally identical merges anywhere in the network share one
        computation.
        """
        position = leaves.index
        pos0 = tuple(map(position, leaves0))
        pos1 = tuple(map(position, leaves1))
        num_vars = len(leaves)
        key = (table0.bits, *pos0, -1 - comp0, table1.bits, *pos1, -1 - comp1, num_vars)
        cached = self._tables.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        full = (1 << (1 << num_vars)) - 1
        # Sorted leaves give increasing positions: no permutation needed.
        bits0 = spread_bits(table0.bits, table0.num_vars, num_vars, pos0)
        bits1 = spread_bits(table1.bits, table1.num_vars, num_vars, pos1)
        if comp0:
            bits0 ^= full
        if comp1:
            bits1 ^= full
        result = TruthTable(num_vars, bits0 & bits1)
        self._tables[key] = result
        return result

    def complement_table(self, table: TruthTable) -> TruthTable:
        """Complement of a fused cut table, memoised by signature.

        Choice-aware cut merging borrows a class member's cuts for the
        other members; a member of opposite phase contributes the
        *complement* of its fused table.  The complement is keyed by the
        table's structural signature (``(num_vars, bits)``), so repeated
        borrows across a class -- and across structurally identical
        classes -- share one interned table object instead of allocating
        a fresh complement per borrow.
        """
        key = (table.num_vars, table.bits)
        cached = self._complements.get(key)
        if cached is None:
            cached = ~table
            self._complements[key] = cached
        return cached

    # -- statistics ---------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Fraction of merge-table lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def num_entries(self) -> int:
        """Number of distinct merge signatures stored."""
        return len(self._tables)

    def stats(self) -> dict[str, float]:
        """Flat numeric view for reports and benchmarks."""
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "entries": float(self.num_entries),
        }

    def clear(self) -> None:
        """Drop all memoised tables and reset the counters."""
        self._tables.clear()
        self._complements.clear()
        self.hits = self.misses = 0
