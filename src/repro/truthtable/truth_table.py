"""Word-packed truth tables.

A :class:`TruthTable` stores the function of a small (k <= ~16 input) node
as a single arbitrary-precision integer, bit ``i`` being the output for the
input assignment encoded by the integer ``i`` with input 0 as the *least*
significant bit.  This is the same convention used by mockturtle/ABC style
truth tables and by the k-LUT networks in :mod:`repro.networks.klut`.

The class is immutable and hashable so it can be used as a dictionary key
(e.g. for structural hashing of LUTs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = ["TruthTable", "spread_bits"]

#: Cached block masks for the word-level cofactor: key ``(num_bits,
#: block)``, value a mask selecting the low ``block`` positions of every
#: ``2 * block`` chunk (the assignments where the cofactored input is 0).
_HALF_MASKS: dict[tuple[int, int], int] = {}

#: Delta-swap masks of :func:`_move_input`, indexed by input ``i``: bit
#: ``p`` is set when assignment ``p`` has input ``i`` at 1 and input
#: ``i + 1`` at 0.  Only the set for the widest table seen is kept; a
#: narrower table uses it as it is, since ``bits & mask`` only walks the
#: shorter operand.  A caller keeps the tuple it was handed, so a
#: concurrent rebuild never changes the masks under it.  Tables wider
#: than :data:`_MAX_CACHED_SWAP_BITS` build their masks per call: the set
#: for 24 inputs alone is 46 MB, which the cache would hold for the life
#: of the process.
_SWAP_MASKS: tuple[int, ...] = ()
_MAX_CACHED_SWAP_BITS = 1 << 16


def _periodic_mask(num_bits: int, pattern: int, period: int) -> int:
    """Repeat the ``period``-bit ``pattern`` over ``num_bits`` bits (both powers of two)."""
    mask = pattern
    while period < num_bits:
        mask |= mask << period
        period *= 2
    return mask


def _half_mask(num_bits: int, block: int) -> int:
    key = (num_bits, block)
    mask = _HALF_MASKS.get(key)
    if mask is None:
        mask = _HALF_MASKS[key] = _periodic_mask(num_bits, (1 << block) - 1, 2 * block)
    return mask


def _swap_masks(num_bits: int) -> tuple[int, ...]:
    """The delta-swap masks for a ``num_bits``-bit table (see :data:`_SWAP_MASKS`)."""
    global _SWAP_MASKS
    masks = _SWAP_MASKS
    num_swaps = num_bits.bit_length() - 2
    if len(masks) < num_swaps:
        masks = tuple(
            _periodic_mask(num_bits, ((1 << (1 << variable)) - 1) << (1 << variable), 4 << variable)
            for variable in range(num_swaps)
        )
        if num_bits <= _MAX_CACHED_SWAP_BITS:
            _SWAP_MASKS = masks
    return masks


def _move_input(bits: int, masks: tuple[int, ...], source: int, target: int) -> int:
    """Move input ``source`` of a packed table to ``target``; the inputs between shift towards ``source``.

    Each step is a delta swap of two adjacent inputs ``i`` and ``i + 1``:
    the assignments that differ only by exchanging their values sit
    ``2**i`` bits apart, and the pairs whose outputs differ are flipped
    together.  ``masks`` are :func:`_swap_masks` for the table's width.
    """
    while source < target:
        shift = 1 << source
        delta = ((bits >> shift) ^ bits) & masks[source]
        bits ^= delta ^ (delta << shift)
        source += 1
    while source > target:
        source -= 1
        shift = 1 << source
        delta = ((bits >> shift) ^ bits) & masks[source]
        bits ^= delta ^ (delta << shift)
    return bits


def spread_bits(bits: int, width: int, num_vars: int, positions: Sequence[int]) -> int:
    """Bits of a ``width``-input table whose input ``i`` moves to ``positions[i]`` (increasing) of ``num_vars``.

    Each new (don't-care) input, lowest first, is added on top and moved
    down into place.
    """
    masks = _swap_masks(1 << num_vars)
    present = iter(positions)
    next_present = next(present, num_vars)
    for position in range(num_vars):
        if position == next_present:
            next_present = next(present, num_vars)
            continue
        # Every input below ``position`` is already in place.
        bits |= bits << (1 << width)
        bits = _move_input(bits, masks, width, position)
        width += 1
    return bits


@dataclass(frozen=True, slots=True, init=False)
class TruthTable:
    """Truth table of a ``num_vars``-input Boolean function.

    Attributes
    ----------
    num_vars:
        Number of inputs ``k``; the table has ``2**k`` bits.
    bits:
        Integer whose bit ``i`` is the function value on the assignment
        whose binary encoding is ``i`` (input 0 = least significant bit).
    """

    num_vars: int
    bits: int

    def __init__(self, num_vars: int, bits: int) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        if num_vars > 24:
            raise ValueError(f"truth tables limited to 24 variables, got {num_vars}")
        # The slot setters skip the frozen ``__setattr__`` path.
        _set_num_vars(self, num_vars)
        _set_bits(self, bits & ((1 << (1 << num_vars)) - 1))

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: bool, num_vars: int = 0) -> "TruthTable":
        """Constant-0 or constant-1 function of ``num_vars`` inputs."""
        size = 1 << num_vars
        return cls(num_vars, (1 << size) - 1 if value else 0)

    @classmethod
    def variable(cls, index: int, num_vars: int) -> "TruthTable":
        """Projection onto input ``index`` among ``num_vars`` inputs."""
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} inputs")
        block = 1 << index
        return cls(num_vars, _periodic_mask(1 << num_vars, ((1 << block) - 1) << block, 2 * block))

    @classmethod
    def from_bits(cls, output_bits: Sequence[int]) -> "TruthTable":
        """Build from a list of outputs indexed by increasing assignment."""
        size = len(output_bits)
        if size == 0 or size & (size - 1):
            raise ValueError(f"number of outputs must be a power of two, got {size}")
        num_vars = size.bit_length() - 1
        bits = 0
        for index, value in enumerate(output_bits):
            if value:
                bits |= 1 << index
        return cls(num_vars, bits)

    @classmethod
    def from_binary_string(cls, text: str) -> "TruthTable":
        """Build from a binary string written most-significant assignment first.

        ``"0111"`` is the 2-input NAND of the paper's Fig. 1 convention: the
        leftmost character is the output for the all-ones assignment.
        """
        cleaned = text.strip()
        if not cleaned or any(c not in "01" for c in cleaned):
            raise ValueError(f"invalid binary truth-table string {text!r}")
        return cls.from_bits([int(c) for c in reversed(cleaned)])

    @classmethod
    def from_function(cls, function: Callable[..., bool], num_vars: int) -> "TruthTable":
        """Build by evaluating ``function`` on every assignment.

        The function receives ``num_vars`` positional Boolean arguments,
        input 0 first.
        """
        bits = 0
        for assignment in range(1 << num_vars):
            arguments = [bool((assignment >> i) & 1) for i in range(num_vars)]
            if function(*arguments):
                bits |= 1 << assignment
        return cls(num_vars, bits)

    # -- basic accessors -----------------------------------------------------

    @property
    def num_bits(self) -> int:
        """Number of output bits, ``2**num_vars``."""
        return 1 << self.num_vars

    def value_at(self, assignment: int) -> bool:
        """Output for the assignment encoded by the integer ``assignment``."""
        if not 0 <= assignment < self.num_bits:
            raise IndexError(f"assignment {assignment} out of range for {self.num_vars} inputs")
        return bool((self.bits >> assignment) & 1)

    def evaluate(self, inputs: Sequence[bool | int]) -> bool:
        """Output for the assignment given as a list (input 0 first)."""
        if len(inputs) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} inputs, got {len(inputs)}")
        assignment = 0
        for index, value in enumerate(inputs):
            if value:
                assignment |= 1 << index
        return self.value_at(assignment)

    def to_bit_list(self) -> list[int]:
        """Outputs indexed by increasing assignment."""
        return [(self.bits >> i) & 1 for i in range(self.num_bits)]

    def to_binary_string(self) -> str:
        """Binary string, most significant assignment first (Fig. 1 style)."""
        return "".join(str(b) for b in reversed(self.to_bit_list()))

    def to_hex(self) -> str:
        """Hexadecimal string of the packed bits (no ``0x`` prefix)."""
        width = max(1, self.num_bits // 4)
        return format(self.bits, f"0{width}x")

    def count_ones(self) -> int:
        """Number of satisfying assignments."""
        return self.bits.bit_count()

    def is_constant(self) -> bool:
        """True if the function is constant 0 or constant 1."""
        return self.bits == 0 or self.bits == (1 << self.num_bits) - 1

    # -- Boolean algebra -----------------------------------------------------

    def _check_same_arity(self, other: "TruthTable") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(f"arity mismatch: {self.num_vars} vs {other.num_vars}")

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.num_vars, ~self.bits)

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_same_arity(other)
        return TruthTable(self.num_vars, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_same_arity(other)
        return TruthTable(self.num_vars, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_same_arity(other)
        return TruthTable(self.num_vars, self.bits ^ other.bits)

    # -- structural operations ----------------------------------------------

    def cofactor(self, variable: int, value: bool) -> "TruthTable":
        """Shannon cofactor with input ``variable`` fixed to ``value``.

        The result still has ``num_vars`` inputs (the fixed input becomes a
        don't-care), matching the usual word-level cofactor semantics.

        Computed with wide integer arithmetic (select every half-block,
        duplicate it into the other half) instead of a per-assignment
        Python loop; the refactoring pass's decomposition synthesis calls
        this in its innermost recursion, where the loop version dominated
        the pass runtime.
        """
        if not 0 <= variable < self.num_vars:
            raise ValueError(f"variable {variable} out of range")
        block = 1 << variable
        mask = _half_mask(self.num_bits, block)
        half = ((self.bits >> block) if value else self.bits) & mask
        return TruthTable(self.num_vars, half | (half << block))

    def depends_on(self, variable: int) -> bool:
        """True if the function actually depends on input ``variable``.

        The two cofactors differ exactly when some assignment with the
        input at 0 and its partner ``2**variable`` bits up disagree, so
        one masked XOR decides it without building either cofactor.
        """
        if not 0 <= variable < self.num_vars:
            raise ValueError(f"variable {variable} out of range")
        block = 1 << variable
        return ((self.bits >> block) ^ self.bits) & _half_mask(self.num_bits, block) != 0

    def support(self) -> list[int]:
        """Indices of the inputs the function depends on."""
        return [v for v in range(self.num_vars) if self.depends_on(v)]

    def permute_inputs(self, permutation: Sequence[int]) -> "TruthTable":
        """Reorder inputs: new input ``i`` is old input ``permutation[i]``.

        Each new position is filled in turn by moving its input down with
        adjacent delta swaps on the packed bits.
        """
        if sorted(permutation) != list(range(self.num_vars)):
            raise ValueError(f"invalid permutation {list(permutation)} for {self.num_vars} inputs")
        order = list(range(self.num_vars))
        bits, masks = self.bits, _swap_masks(self.num_bits)
        for position, old_index in enumerate(permutation):
            current = order.index(old_index, position)
            if current != position:
                bits = _move_input(bits, masks, current, position)
                order.insert(position, order.pop(current))
        return TruthTable(self.num_vars, bits)

    def extend(self, num_vars: int, positions: Sequence[int] | None = None) -> "TruthTable":
        """Pad with additional (don't-care) inputs up to ``num_vars``.

        The new inputs go on top unless ``positions`` is given: then input
        ``i`` becomes input ``positions[i]`` and the rest are the new
        ones.  The table's inputs are first put in position order
        (:meth:`permute_inputs`); then :func:`spread_bits` adds each new
        input (``t | t << 2**k``), so every move works on a table no
        wider than it has to be.
        """
        if num_vars < self.num_vars:
            raise ValueError("cannot shrink a truth table with extend()")
        if positions is None:
            positions = range(self.num_vars)
        elif (
            len(positions) != self.num_vars
            or len(set(positions)) != self.num_vars
            or (positions and (min(positions) < 0 or max(positions) >= num_vars))
        ):
            raise ValueError(f"invalid positions {list(positions)} for {self.num_vars} inputs of {num_vars}")
        table = self
        if list(positions) != sorted(positions):
            table = self.permute_inputs(sorted(range(self.num_vars), key=positions.__getitem__))
        return TruthTable(num_vars, spread_bits(table.bits, table.num_vars, num_vars, sorted(positions)))

    def shrink_to_support(self) -> tuple["TruthTable", list[int]]:
        """Project onto the true support; returns the smaller table and the kept inputs.

        Each dropped input, highest first, is moved to the top with
        adjacent delta swaps and cut off with the upper half of the table.
        """
        kept = self.support()
        if len(kept) == self.num_vars:
            return self, kept
        bits, num_vars, masks = self.bits, self.num_vars, _swap_masks(self.num_bits)
        for variable in range(self.num_vars - 1, -1, -1):
            if variable not in kept:
                bits = _move_input(bits, masks, variable, num_vars - 1)
                num_vars -= 1
                bits &= (1 << (1 << num_vars)) - 1
        return TruthTable(len(kept), bits), kept

    def compose(self, inputs: Sequence["TruthTable"]) -> "TruthTable":
        """Substitute a truth table for every input of this function.

        Every element of ``inputs`` must have the same arity ``m``; the
        result is an ``m``-input table computing
        ``self(inputs[0](y), ..., inputs[k-1](y))``.
        """
        if len(inputs) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} input functions, got {len(inputs)}")
        if self.num_vars == 0:
            return self
        inner_vars = inputs[0].num_vars
        for table in inputs:
            if table.num_vars != inner_vars:
                raise ValueError("all composed inputs must have the same arity")
        bits = 0
        for assignment in range(1 << inner_vars):
            index = 0
            for position, table in enumerate(inputs):
                if table.value_at(assignment):
                    index |= 1 << position
            if self.value_at(index):
                bits |= 1 << assignment
        return TruthTable(inner_vars, bits)

    def __str__(self) -> str:
        return f"TruthTable({self.num_vars} vars, 0x{self.to_hex()})"


_set_num_vars: Callable[[TruthTable, int], None] = TruthTable.__dict__["num_vars"].__set__
_set_bits: Callable[[TruthTable, int], None] = TruthTable.__dict__["bits"].__set__
