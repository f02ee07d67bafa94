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

The cache also memoises NPN-canonical lookup of cut functions (arity
<= 4): rewriting prices one library structure per NPN class, so the
class of a repeated cut function resolves without re-running the
768-transform search.
"""

from __future__ import annotations

from ..truthtable import TruthTable

__all__ = ["CutFunctionCache"]

#: Memoised source-index tuples for table expansion, keyed by
#: ``(positions, num_vars)``: entry ``a`` is the fanin-table assignment
#: matching merged-table assignment ``a``.
_EXPAND_SOURCES: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}


def _expand_sources(positions: tuple[int, ...], num_vars: int) -> tuple[int, ...]:
    key = (positions, num_vars)
    sources = _EXPAND_SOURCES.get(key)
    if sources is None:
        gathered = []
        for assignment in range(1 << num_vars):
            source = 0
            for index, position in enumerate(positions):
                if (assignment >> position) & 1:
                    source |= 1 << index
            gathered.append(source)
        sources = tuple(gathered)
        _EXPAND_SOURCES[key] = sources
    return sources


def _expand_bits(bits: int, positions: tuple[int, ...], num_vars: int) -> int:
    """Re-express table ``bits`` over ``num_vars`` inputs, input ``i`` moving to ``positions[i]``."""
    if positions == tuple(range(num_vars)):
        return bits
    out = 0
    for assignment, source in enumerate(_expand_sources(positions, num_vars)):
        if (bits >> source) & 1:
            out |= 1 << assignment
    return out


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
        self.npn_hits = 0
        self.npn_misses = 0
        self._tables: dict[tuple[int, ...], TruthTable] = {}
        self._npn: dict[tuple[int, int], TruthTable] = {}
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
        ``leaves0``/``leaves1`` (both subsets of ``leaves``).  The result
        is memoised under the merge's structural signature, so two
        structurally identical merges anywhere in the network share one
        computation.
        """
        positions = {leaf: index for index, leaf in enumerate(leaves)}
        pos0 = tuple(positions[leaf] for leaf in leaves0)
        pos1 = tuple(positions[leaf] for leaf in leaves1)
        key = (table0.bits, *pos0, -1 - comp0, table1.bits, *pos1, -1 - comp1, len(leaves))
        cached = self._tables.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        num_vars = len(leaves)
        full = (1 << (1 << num_vars)) - 1
        bits0 = _expand_bits(table0.bits, pos0, num_vars)
        bits1 = _expand_bits(table1.bits, pos1, num_vars)
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

    # -- NPN-canonical lookup -----------------------------------------------

    def npn_canonical(self, table: TruthTable) -> TruthTable | None:
        """NPN-canonical representative of a cut function, memoised.

        Functions wider than the exact-canonicalization bound (4 inputs)
        report ``None``.  Repeated functions -- the common case -- skip
        the transform search entirely.
        """
        # Imported lazily: repro.rewriting itself builds on repro.cuts.
        from ..rewriting.npn import MAX_NPN_VARS, npn_canonicalize

        if table.num_vars > MAX_NPN_VARS:
            return None
        key = (table.num_vars, table.bits)
        cached = self._npn.get(key)
        if cached is not None:
            self.npn_hits += 1
            return cached
        self.npn_misses += 1
        representative, _transform = npn_canonicalize(table)
        self._npn[key] = representative
        return representative

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
            "npn_hits": float(self.npn_hits),
            "npn_misses": float(self.npn_misses),
        }

    def clear(self) -> None:
        """Drop all memoised tables and reset the counters."""
        self._tables.clear()
        self._npn.clear()
        self._complements.clear()
        self.hits = self.misses = 0
        self.npn_hits = self.npn_misses = 0
