"""Precomputed library of small AIG implementations, keyed by NPN class.

The rewriting pass replaces the logic inside a 4-input cut with a
precomputed AIG subgraph computing the same function.  This module owns
those subgraphs:

* :class:`AigStructure` -- a tiny standalone AIG (constant, ``k`` input
  variables, AND gates with complemented edges) that can be simulated to
  a truth table or instantiated into a host :class:`~repro.networks.aig.Aig`
  on arbitrary leaf literals;
* :class:`RewriteLibrary` -- the structure store.  Lookups canonicalise
  the requested function with :func:`repro.rewriting.npn.npn_canonicalize`
  and keep one structure per NPN class, so the 65536 possible 4-input cut
  functions share 222 stored entries.

Library construction is a two-stage hybrid:

1. *Bounded exhaustive enumeration*: every function reachable by an AIG
   of at most ``RewriteLibrary.exact_gate_limit`` AND gates (6, ~15k of the
   65536 4-input functions, built in ~0.15 s) is discovered by
   breadth-first bottom-up enumeration over function pairs, recording the
   first -- hence smallest within the enumeration's pairing model -- AND
   realisation.  This covers all 2-input functions, all 3-input classes
   except full parity, and the small 4-input classes with size-minimal
   structures.
2. *Decomposition synthesis*: classes beyond the enumeration bound are
   synthesised by memoised Shannon decomposition with special-cased
   AND / OR / XOR / MUX shapes.  The same synthesiser also serves the
   refactoring pass, which needs functions of up to ~10 inputs where no
   exhaustive library can exist.

Both stages run lazily and are memoised per process (see
:func:`default_library`), so the cost is paid once per arity, not once
per cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..networks.aig import Aig
from ..truthtable import TruthTable
from .npn import MAX_NPN_VARS, NpnTransform, npn_canonicalize

__all__ = ["AigStructure", "RewriteLibrary", "default_library", "synthesize_structure", "warm_worker"]

#: Support size up to which the decomposition synthesiser searches all
#: splitting variables with the memoised cost estimator; above it a local
#: heuristic picks the variable (cofactor special cases, then support
#: shrinkage) to keep refactoring cones cheap.
_FULL_SEARCH_VARS = 8


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AigStructure:
    """A small standalone AIG over ``num_vars`` input variables.

    Node numbering mirrors :class:`~repro.networks.aig.Aig`: node 0 is
    constant false, nodes ``1 .. num_vars`` are the input variables, and
    node ``num_vars + 1 + i`` is gate ``i``.  Literals are
    ``2 * node + complement``.  ``gates[i]`` holds the two fanin literals
    of gate ``i`` (referencing only earlier nodes) and ``output`` is the
    literal computing the structure's function.
    """

    num_vars: int
    gates: tuple[tuple[int, int], ...]
    output: int

    @property
    def num_gates(self) -> int:
        """Number of AND gates in the structure."""
        return len(self.gates)

    def truth_table(self) -> TruthTable:
        """Simulate the structure into a truth table (word-parallel)."""
        full = (1 << (1 << self.num_vars)) - 1
        values = [0] + [TruthTable.variable(i, self.num_vars).bits for i in range(self.num_vars)]
        for fanin0, fanin1 in self.gates:
            value0 = values[fanin0 >> 1] ^ (full if fanin0 & 1 else 0)
            value1 = values[fanin1 >> 1] ^ (full if fanin1 & 1 else 0)
            values.append(value0 & value1)
        result = values[self.output >> 1] ^ (full if self.output & 1 else 0)
        return TruthTable(self.num_vars, result)

    def instantiate(self, aig: Aig, leaf_literals: Sequence[int]) -> int:
        """Build the structure inside a host AIG; returns the output literal.

        ``leaf_literals[i]`` drives input variable ``i``.  Construction
        goes through :meth:`Aig.add_and`, so existing gates are reused by
        structural hashing and trivial shapes simplify away.
        """
        if len(leaf_literals) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} leaf literals, got {len(leaf_literals)}")
        literals = [0] + list(leaf_literals)
        for fanin0, fanin1 in self.gates:
            literal0 = literals[fanin0 >> 1] ^ (fanin0 & 1)
            literal1 = literals[fanin1 >> 1] ^ (fanin1 & 1)
            literals.append(aig.add_and(literal0, literal1))
        return literals[self.output >> 1] ^ (self.output & 1)


class _StructureBuilder:
    """Mini-AIG builder with structural hashing, used to assemble structures."""

    def __init__(self, num_vars: int) -> None:
        self.num_vars = num_vars
        self.gates: list[tuple[int, int]] = []
        self._strash: dict[tuple[int, int], int] = {}

    def var(self, index: int) -> int:
        """Positive literal of input variable ``index``."""
        return 2 * (1 + index)

    def add_and(self, a: int, b: int) -> int:
        """AND of two literals with the usual one-level simplifications."""
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        if a == b:
            return a
        if a == (b ^ 1):
            return 0
        if a > b:
            a, b = b, a
        existing = self._strash.get((a, b))
        if existing is not None:
            return existing
        node = self.num_vars + 1 + len(self.gates)
        self.gates.append((a, b))
        literal = 2 * node
        self._strash[(a, b)] = literal
        return literal

    def add_or(self, a: int, b: int) -> int:
        """OR of two literals (De Morgan)."""
        return self.add_and(a ^ 1, b ^ 1) ^ 1

    def add_xor(self, a: int, b: int) -> int:
        """XOR of two literals (two ANDs plus an OR)."""
        return self.add_or(self.add_and(a, b ^ 1), self.add_and(a ^ 1, b))

    def add_mux(self, select: int, when_true: int, when_false: int) -> int:
        """2:1 multiplexer ``select ? when_true : when_false``."""
        return self.add_or(self.add_and(select, when_true), self.add_and(select ^ 1, when_false))

    def structure(self, output: int) -> AigStructure:
        """Freeze the builder into an :class:`AigStructure`."""
        return AigStructure(self.num_vars, tuple(self.gates), output)


# ---------------------------------------------------------------------------
# Stage 1: bounded exhaustive enumeration
# ---------------------------------------------------------------------------


def _enumerate_exact(num_vars: int, max_gates: int) -> dict[int, tuple]:
    """Breadth-first enumeration of every function reachable in ``max_gates`` ANDs.

    Returns a map from function bits to either ``("leaf", 0, literal)``
    or ``("and", cost, fanin_bits_a, phase_a, fanin_bits_b, phase_b)``
    where the fanin entries reference other keys of the map.  The
    enumeration builds AND-rooted functions only, so a cheap function may
    still get an expensive entry when its *complement* is the cheap one
    (output complementation is free in an AIG); callers must compare the
    recorded costs of both phases and take the minimum.  BFS order
    guarantees each recorded realisation has the minimum gate count
    within the pairing model (operand costs add; sharing between the two
    operand cones is discovered only at instantiation time).
    """
    full = (1 << (1 << num_vars)) - 1
    entries: dict[int, tuple] = {0: ("leaf", 0, 0)}
    by_cost: list[list[int]] = [[0]]
    for index in range(num_vars):
        bits = TruthTable.variable(index, num_vars).bits
        entries[bits] = ("leaf", 0, 2 * (1 + index))
        by_cost[0].append(bits)
    for cost in range(1, max_gates + 1):
        fresh: dict[int, tuple] = {}
        for cost_a in range((cost - 1) // 2 + 1):
            cost_b = cost - 1 - cost_a
            group_a = by_cost[cost_a]
            group_b = by_cost[cost_b]
            same = cost_a == cost_b
            for ia, bits_a in enumerate(group_a):
                complement_a = full ^ bits_a
                start = ia if same else 0
                for bits_b in group_b[start:]:
                    complement_b = full ^ bits_b
                    for phase_a, value_a in ((0, bits_a), (1, complement_a)):
                        for phase_b, value_b in ((0, bits_b), (1, complement_b)):
                            product = value_a & value_b
                            if product == 0 or product == value_a or product == value_b:
                                continue
                            if product in entries or product in fresh:
                                continue
                            fresh[product] = ("and", cost, bits_a, phase_a, bits_b, phase_b)
        entries.update(fresh)
        by_cost.append(list(fresh))
    return entries


def _materialize(entries: dict[int, tuple], bits: int, num_vars: int) -> AigStructure:
    """Turn one enumeration entry into an :class:`AigStructure` (with sharing)."""
    builder = _StructureBuilder(num_vars)
    memo: dict[int, int] = {}

    def literal_of(function_bits: int) -> int:
        cached = memo.get(function_bits)
        if cached is not None:
            return cached
        record = entries[function_bits]
        if record[0] == "leaf":
            literal = record[2]
        else:
            _, _, bits_a, phase_a, bits_b, phase_b = record
            literal = builder.add_and(literal_of(bits_a) ^ phase_a, literal_of(bits_b) ^ phase_b)
        memo[function_bits] = literal
        return literal

    return builder.structure(literal_of(bits))


# ---------------------------------------------------------------------------
# Stage 2: decomposition synthesis
# ---------------------------------------------------------------------------

#: Memoised gate-count estimates for the decomposition chooser.
_cost_memo: dict[tuple[int, int], int] = {}


def _estimate_cost(table: TruthTable) -> int:
    """Estimated AND count of the decomposition of ``table`` (no sharing)."""
    key = (table.num_vars, table.bits)
    cached = _cost_memo.get(key)
    if cached is not None:
        return cached
    support = table.support()
    if table.is_constant() or len(support) <= 1:
        cost = 0
    else:
        cost = min(_split_cost(table, variable) for variable in support)
    _cost_memo[key] = cost
    return cost


def _split_cost(table: TruthTable, variable: int) -> int:
    """Cost of decomposing ``table`` on one splitting variable."""
    cofactor0 = table.cofactor(variable, False)
    cofactor1 = table.cofactor(variable, True)
    if cofactor0.is_constant() or cofactor1.is_constant():
        other = cofactor1 if cofactor0.is_constant() else cofactor0
        return 1 + _estimate_cost(other)
    if cofactor1.bits == (~cofactor0).bits:
        return 3 + _estimate_cost(cofactor0)
    return 3 + _estimate_cost(cofactor0) + _estimate_cost(cofactor1)


def _choose_split(table: TruthTable, support: list[int]) -> int:
    """Pick the splitting variable for the Shannon decomposition.

    Small supports are searched exactly with the memoised cost estimator;
    larger ones (refactoring cones) use a local heuristic: prefer
    variables whose cofactors hit a special case, then minimise the
    remaining combined support.
    """
    if len(support) <= _FULL_SEARCH_VARS:
        return min(support, key=lambda variable: _split_cost(table, variable))

    def local_score(variable: int) -> tuple[int, int]:
        cofactor0 = table.cofactor(variable, False)
        cofactor1 = table.cofactor(variable, True)
        special = (
            cofactor0.is_constant()
            or cofactor1.is_constant()
            or cofactor1.bits == (~cofactor0).bits
        )
        return (0 if special else 1, len(cofactor0.support()) + len(cofactor1.support()))

    return min(support, key=local_score)


def _emit_decomposition(table: TruthTable, builder: _StructureBuilder, memo: dict[int, int]) -> int:
    """Emit the decomposition of ``table`` into ``builder``; returns a literal."""
    cached = memo.get(table.bits)
    if cached is not None:
        return cached
    full = (1 << table.num_bits) - 1
    support = table.support()
    if table.is_constant():
        literal = 1 if table.bits == full else 0
    elif len(support) == 1:
        variable = builder.var(support[0])
        literal = variable if table.bits == TruthTable.variable(support[0], table.num_vars).bits else variable ^ 1
    else:
        split = _choose_split(table, support)
        select = builder.var(split)
        cofactor0 = table.cofactor(split, False)
        cofactor1 = table.cofactor(split, True)
        if cofactor0.bits == 0:
            literal = builder.add_and(select, _emit_decomposition(cofactor1, builder, memo))
        elif cofactor0.bits == full:
            literal = builder.add_or(select ^ 1, _emit_decomposition(cofactor1, builder, memo))
        elif cofactor1.bits == 0:
            literal = builder.add_and(select ^ 1, _emit_decomposition(cofactor0, builder, memo))
        elif cofactor1.bits == full:
            literal = builder.add_or(select, _emit_decomposition(cofactor0, builder, memo))
        elif cofactor1.bits == (~cofactor0).bits:
            literal = builder.add_xor(select, _emit_decomposition(cofactor0, builder, memo))
        else:
            literal = builder.add_mux(
                select,
                _emit_decomposition(cofactor1, builder, memo),
                _emit_decomposition(cofactor0, builder, memo),
            )
    memo[table.bits] = literal
    return literal


def synthesize_structure(table: TruthTable) -> AigStructure:
    """Synthesise an AIG structure for an arbitrary function by decomposition.

    Used directly by the refactoring pass (arities beyond the NPN bound)
    and as the library's fallback for classes the bounded enumeration does
    not reach.  Shared subfunctions are emitted once per call (memoised on
    the cofactor bits) and the builder's structural hashing folds
    structurally identical gates.
    """
    builder = _StructureBuilder(table.num_vars)
    output = _emit_decomposition(table, builder, {})
    return builder.structure(output)


# ---------------------------------------------------------------------------
# The library
# ---------------------------------------------------------------------------


def _transform_structure(structure: AigStructure, transform: NpnTransform) -> AigStructure:
    """Structure for ``f`` given the structure of its NPN representative.

    With ``rep = transform(f)`` (see :mod:`repro.rewriting.npn`),
    ``f(z) = c ^ rep(x)`` where representative input ``i`` reads
    ``z_j ^ neg_j`` for ``j = permutation^{-1}(i)``; variables are
    remapped accordingly and the output phase absorbs ``c``.
    """
    num_vars = transform.num_vars
    inverse = [0] * num_vars
    for j, i in enumerate(transform.permutation):
        inverse[i] = j

    def remap(literal: int) -> int:
        node = literal >> 1
        if 1 <= node <= num_vars:
            j = inverse[node - 1]
            negated = (transform.input_negations >> j) & 1
            return 2 * (1 + j) + ((literal & 1) ^ negated)
        return literal

    gates = tuple((remap(fanin0), remap(fanin1)) for fanin0, fanin1 in structure.gates)
    output = remap(structure.output) ^ (1 if transform.output_negation else 0)
    return AigStructure(num_vars, gates, output)


class RewriteLibrary:
    """Structure store keyed by NPN class, shared by all rewriting passes.

    One library instance serves every arity up to ``num_vars`` (cuts of
    fewer leaves canonicalise at their own arity).  Exact-enumeration
    tables and per-class structures are built lazily and cached, so the
    first lookup of an arity pays the enumeration cost.  On top of the
    class store, :meth:`structure` memoises its answer per function, keyed
    by ``(num_vars, bits)``: a repeated cut function is one dictionary hit
    that skips both canonicalisation and the transform of the stored
    structure.  Structures are frozen, so every caller can share them; the
    memo is bounded by the function space (the four largest EPFL flow
    profiles look up about 2,300 distinct functions).  ``exact_hits`` and
    ``decomposed`` count class misses only.
    """

    #: The exhaustive stage enumerates every AIG of at most this many gates.
    exact_gate_limit = 6

    def __init__(self, num_vars: int = 4) -> None:
        if num_vars > MAX_NPN_VARS:
            raise ValueError(f"library limited to {MAX_NPN_VARS}-input cuts, got {num_vars}")
        self.num_vars = num_vars
        self._exact_by_arity: dict[int, dict[int, tuple]] = {}
        self._class_structures: dict[tuple[int, int], AigStructure] = {}
        self._function_structures: dict[tuple[int, int], AigStructure] = {}
        self.exact_hits = 0
        self.decomposed = 0

    @property
    def num_cached_classes(self) -> int:
        """Number of NPN classes with a cached structure."""
        return len(self._class_structures)

    def structure(self, table: TruthTable) -> AigStructure:
        """AIG structure computing ``table`` exactly (arity preserved)."""
        key = (table.num_vars, table.bits)
        cached = self._function_structures.get(key)
        if cached is not None:
            return cached
        if table.num_vars > self.num_vars:
            raise ValueError(
                f"library built for {self.num_vars}-input functions, got {table.num_vars}"
            )
        representative, transform = npn_canonicalize(table)
        structure = _transform_structure(self._representative_structure(representative), transform)
        self._function_structures[key] = structure
        return structure

    def _representative_structure(self, representative: TruthTable) -> AigStructure:
        key = (representative.num_vars, representative.bits)
        cached = self._class_structures.get(key)
        if cached is not None:
            return cached
        entries = self._exact_entries(representative.num_vars)
        full = (1 << representative.num_bits) - 1
        direct = entries.get(representative.bits)
        inverted = entries.get(full ^ representative.bits)
        # Output complementation is free, so pick the cheaper phase.
        if inverted is not None and (direct is None or inverted[1] < direct[1]):
            complement = _materialize(entries, full ^ representative.bits, representative.num_vars)
            structure = AigStructure(complement.num_vars, complement.gates, complement.output ^ 1)
            self.exact_hits += 1
        elif direct is not None:
            structure = _materialize(entries, representative.bits, representative.num_vars)
            self.exact_hits += 1
        else:
            structure = synthesize_structure(representative)
            self.decomposed += 1
        self._class_structures[key] = structure
        return structure

    def _exact_entries(self, num_vars: int) -> dict[int, tuple]:
        entries = self._exact_by_arity.get(num_vars)
        if entries is None:
            entries = _enumerate_exact(num_vars, self.exact_gate_limit)
            self._exact_by_arity[num_vars] = entries
        return entries


_default_library: RewriteLibrary | None = None


def default_library() -> RewriteLibrary:
    """Process-wide shared :class:`RewriteLibrary` (built lazily once)."""
    global _default_library
    if _default_library is None:
        _default_library = RewriteLibrary()
    return _default_library


_WARMED = False


def warm_worker() -> None:
    """Pool initializer: build the process-wide library's caches once per worker.

    Forces the exact structure enumeration of every arity (the expensive
    part of :func:`default_library`, about 0.2-0.3 s) and, through NPN
    canonicalization of the probe tables, the byte gather tables of
    arities 2-4 (about 0.05 s) -- the caches every ``rw`` / ``rf`` /
    ``choice`` pass consults.  Both spawned pools (the partition
    :class:`~repro.partition.pool.ProcessExecutor` and ``repro serve
    --workers N``) use it as their initializer, so each worker pays the
    enumeration once per pool lifetime, in parallel with its siblings.
    It lives here rather than in :mod:`repro.service` so that starting a
    partition pool does not import the service package.  Idempotent.
    """
    global _WARMED
    if _WARMED:
        return
    library = default_library()
    # One probe per arity triggers that arity's exact enumeration.
    library.structure(TruthTable(4, 0x6996))  # 4-input XOR
    library.structure(TruthTable(3, 0xE8))  # majority-3
    library.structure(TruthTable(2, 0x8))  # AND2
    _WARMED = True
