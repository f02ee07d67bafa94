"""NPN canonicalization of small truth tables.

Two Boolean functions are *NPN-equivalent* when one can be obtained from
the other by Negating inputs, Permuting inputs and optionally Negating
the output.  The 65536 four-input functions collapse into 222 NPN
classes, so a rewriting library only has to store one good AIG structure
per class instead of one per function -- the classical trick behind
DAG-aware AIG rewriting (ABC's ``rewrite``, mockturtle's cut rewriting).

For the arities the rewriter uses (``k <= 4``) the canonical form is
computed *exactly*, by enumerating all ``k! * 2^k * 2`` transforms and
taking the one whose transformed bit pattern is numerically smallest;
ties go to the first transform in enumeration order (permutations, then
input-negation masks, then output phase).  Each transform is a fixed
permutation of the ``2^k <= 16`` truth-table bits, precomputed once per
arity as two 256-entry byte tables, so applying it is two lookups and an
OR: ``low[bits & 255] | high[bits >> 8]``.  The tables are stored as
``array('H')`` (about 0.5 MB over all arities) rather than tuples of Python
ints.  Results are memoised per function, so repeated cut functions
(ubiquitous in real netlists) canonicalise in one dictionary lookup.

Conventions
-----------

A transform ``t = (permutation, input_negations, output_negation)`` maps
a function ``f`` to ``g = t(f)`` with

    g(x_0, ..., x_{n-1}) = c ^ f(z_0, ..., z_{n-1}),
    z_j = x_{permutation[j]} ^ ((input_negations >> j) & 1)

i.e. input ``j`` of ``f`` reads variable ``permutation[j]`` of ``g``,
possibly negated, and ``c`` is the output negation.
:func:`npn_canonicalize` returns the canonical representative together
with the transform that produced it, and the library inverts that
transform when instantiating a stored structure (see
:mod:`repro.rewriting.library`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from ..truthtable import TruthTable

__all__ = ["NpnTransform", "npn_canonicalize", "apply_npn_transform", "npn_classes"]

#: Largest arity the exhaustive canonicalization supports.  ``k = 5``
#: would already mean 7680 transforms of 32 bits each per new function.
MAX_NPN_VARS = 4


@dataclass(frozen=True)
class NpnTransform:
    """One NPN transform ``f -> output_negation ^ f(inputs permuted/negated)``.

    ``permutation[j]`` is the transformed-function variable read by input
    ``j`` of the original function; bit ``j`` of ``input_negations``
    complements that input; ``output_negation`` complements the result.
    """

    permutation: tuple[int, ...]
    input_negations: int
    output_negation: bool

    @property
    def num_vars(self) -> int:
        """Arity of the functions this transform acts on."""
        return len(self.permutation)


def _source_indices(permutation: tuple[int, ...], negations: int) -> tuple[int, ...]:
    """For each output assignment, the input assignment of the original function."""
    num_vars = len(permutation)
    sources = []
    for assignment in range(1 << num_vars):
        source = 0
        for j in range(num_vars):
            bit = (assignment >> permutation[j]) & 1
            if (negations >> j) & 1:
                bit ^= 1
            if bit:
                source |= 1 << j
        sources.append(source)
    return tuple(sources)


def _byte_table(contributions: list[int]) -> array[int]:
    """``table[v]``: the OR of ``contributions[i]`` over the set bits ``i`` of ``v``.

    Filled by the lowest-set-bit recurrence, one OR per entry.
    """
    table = [0] * (1 << len(contributions))
    for value in range(1, len(table)):
        rest = value & (value - 1)
        table[value] = table[rest] | contributions[(value ^ rest).bit_length() - 1]
    return array("H", table)


@lru_cache(maxsize=MAX_NPN_VARS + 1)
def _gather_tables(num_vars: int) -> dict[tuple[tuple[int, ...], int], tuple[array[int], array[int]]]:
    """Byte tables ``(low, high)`` of all ``n! * 2^n`` (permutation, negation-mask) pairs.

    A transform moves bit ``_source_indices(...)[a]`` of a truth table to
    bit ``a``, so its gather is ``low[bits & 255] | high[bits >> 8]``.
    The dictionary iterates in enumeration order: permutations, then masks.
    """
    num_bits = 1 << num_vars
    low_bits = min(num_bits, 8)
    tables: dict[tuple[tuple[int, ...], int], tuple[array[int], array[int]]] = {}
    for permutation in permutations(range(num_vars)):
        for negations in range(1 << num_vars):
            contributions = [0] * num_bits
            for assignment, source in enumerate(_source_indices(permutation, negations)):
                contributions[source] = 1 << assignment
            tables[permutation, negations] = (
                _byte_table(contributions[:low_bits]),
                _byte_table(contributions[low_bits:]),
            )
    return tables


def apply_npn_transform(table: TruthTable, transform: NpnTransform) -> TruthTable:
    """Apply one NPN transform to a truth table."""
    if transform.num_vars != table.num_vars:
        raise ValueError(
            f"transform arity {transform.num_vars} does not match table arity {table.num_vars}"
        )
    low, high = _gather_tables(table.num_vars)[transform.permutation, transform.input_negations]
    bits = low[table.bits & 255] | high[table.bits >> 8]
    if transform.output_negation:
        bits ^= (1 << table.num_bits) - 1
    return TruthTable(table.num_vars, bits)


#: Memoised canonicalization results, keyed by (num_vars, bits).
_canonical_cache: dict[tuple[int, int], tuple[TruthTable, NpnTransform]] = {}


def npn_canonicalize(table: TruthTable) -> tuple[TruthTable, NpnTransform]:
    """Exact NPN-canonical representative of a function of at most 4 inputs.

    Returns ``(representative, transform)`` with
    ``apply_npn_transform(table, transform) == representative``; the
    representative is the numerically smallest transformed bit pattern,
    so it is identical for every member of the NPN class.
    """
    if table.num_vars > MAX_NPN_VARS:
        raise ValueError(
            f"NPN canonicalization limited to {MAX_NPN_VARS} variables, got {table.num_vars}"
        )
    key = (table.num_vars, table.bits)
    cached = _canonical_cache.get(key)
    if cached is not None:
        return cached
    full = (1 << table.num_bits) - 1
    tables = _gather_tables(table.num_vars)
    low_byte, high_byte = table.bits & 255, table.bits >> 8
    gathered = [low[low_byte] | high[high_byte] for low, high in tables.values()]
    # The smallest pattern over every transform and both output phases,
    # and the first (transform, phase) in enumeration order reaching it:
    # no transform reaches it in both phases, since ``full`` is nonzero.
    best_bits = min(min(gathered), full ^ max(gathered))
    index = next(i for i, bits in enumerate(gathered) if bits == best_bits or bits ^ full == best_bits)
    permutation, negations = list(tables)[index]
    best = NpnTransform(permutation, negations, gathered[index] != best_bits)
    result = (TruthTable(table.num_vars, best_bits), best)
    _canonical_cache[key] = result
    return result


def npn_classes(num_vars: int) -> set[int]:
    """Canonical-representative bit patterns of *all* functions of ``num_vars`` inputs.

    Exhaustive over ``2^(2^n)`` functions -- intended for tests at
    ``n <= 3`` (4 classes at ``n = 2``, 14 at ``n = 3``); at ``n = 4``
    the known answer is 222, but enumerating it takes a while in Python.
    """
    representatives: set[int] = set()
    for bits in range(1 << (1 << num_vars)):
        representative, _ = npn_canonicalize(TruthTable(num_vars, bits))
        representatives.add(representative.bits)
    return representatives
