"""Gate-level arithmetic circuit generators (the EPFL arithmetic family).

Every generator returns an :class:`~repro.networks.aig.Aig` built bottom-up
from AND gates and complemented edges -- ripple/carry-select adders, barrel
shifters, array multipliers, restoring dividers and square roots, word
comparators, majority voters, decoders, priority encoders and the small
floating-point / elementary-function approximations that mirror the EPFL
``int2float``, ``log2``, ``sin`` and ``hyp`` benchmarks at reduced widths.

The word-level helpers (:func:`add_words`, :func:`shift_left_words`, ...)
operate on lists of AIG literals, least-significant bit first.
"""

from __future__ import annotations

from typing import Sequence

from ..networks.aig import Aig, LIT_FALSE, LIT_TRUE

__all__ = [
    "ripple_carry_adder",
    "carry_select_adder",
    "subtractor",
    "comparator",
    "barrel_shifter",
    "array_multiplier",
    "square",
    "restoring_divider",
    "integer_square_root",
    "max_unit",
    "majority_voter",
    "decoder",
    "priority_encoder",
    "int_to_float",
    "log2_unit",
    "sine_unit",
    "hypotenuse_unit",
    "add_words",
    "sub_words",
    "mul_words",
    "less_than",
    "equal_words",
    "mux_words",
    "shift_left_words",
]


# ---------------------------------------------------------------------------
# Word-level helpers (lists of literals, LSB first)
# ---------------------------------------------------------------------------


def _full_adder(aig: Aig, a: int, b: int, carry: int) -> tuple[int, int]:
    """One full adder; returns ``(sum, carry_out)``."""
    total = aig.add_xor(aig.add_xor(a, b), carry)
    carry_out = aig.add_maj(a, b, carry)
    return total, carry_out


def add_words(aig: Aig, a: Sequence[int], b: Sequence[int], carry_in: int = LIT_FALSE) -> tuple[list[int], int]:
    """Ripple-carry addition of two equal-width words; returns ``(sum, carry_out)``."""
    if len(a) != len(b):
        raise ValueError("add_words requires equal widths")
    carry = carry_in
    total = []
    for bit_a, bit_b in zip(a, b):
        sum_bit, carry = _full_adder(aig, bit_a, bit_b, carry)
        total.append(sum_bit)
    return total, carry


def sub_words(aig: Aig, a: Sequence[int], b: Sequence[int]) -> tuple[list[int], int]:
    """Two's-complement subtraction ``a - b``; returns ``(difference, borrow_free)``.

    The second element is the carry-out of ``a + ~b + 1``; it is 1 exactly
    when ``a >= b`` (no borrow).
    """
    inverted = [Aig.negate(bit) for bit in b]
    return add_words(aig, list(a), inverted, LIT_TRUE)


def mul_words(aig: Aig, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Array multiplication; returns a ``len(a) + len(b)`` bit product."""
    width_a, width_b = len(a), len(b)
    accumulator = [LIT_FALSE] * (width_a + width_b)
    for j, bit_b in enumerate(b):
        partial = [aig.add_and(bit_a, bit_b) for bit_a in a]
        padded = [LIT_FALSE] * j + partial + [LIT_FALSE] * (width_b - j)
        accumulator, _carry = add_words(aig, accumulator, padded[: width_a + width_b])
    return accumulator


def less_than(aig: Aig, a: Sequence[int], b: Sequence[int]) -> int:
    """Unsigned comparison ``a < b`` (single literal)."""
    _diff, no_borrow = sub_words(aig, a, b)
    return Aig.negate(no_borrow)


def equal_words(aig: Aig, a: Sequence[int], b: Sequence[int]) -> int:
    """Word equality (single literal)."""
    bits = [aig.add_xnor(x, y) for x, y in zip(a, b)]
    return aig.add_and_multi(bits)


def mux_words(aig: Aig, select: int, when_true: Sequence[int], when_false: Sequence[int]) -> list[int]:
    """Word-level 2:1 multiplexer."""
    return [aig.add_mux(select, t, f) for t, f in zip(when_true, when_false)]


def shift_left_words(aig: Aig, word: Sequence[int], amount: Sequence[int]) -> list[int]:
    """Logical left shift of ``word`` by the binary-encoded ``amount``."""
    current = list(word)
    for stage, select in enumerate(amount):
        shifted = [LIT_FALSE] * (1 << stage) + current[: len(current) - (1 << stage)]
        if (1 << stage) >= len(current):
            shifted = [LIT_FALSE] * len(current)
        current = mux_words(aig, select, shifted, current)
    return current


def _input_word(aig: Aig, width: int, prefix: str) -> list[int]:
    return [aig.add_pi(f"{prefix}{i}") for i in range(width)]


def _output_word(aig: Aig, bits: Sequence[int], prefix: str) -> None:
    for index, bit in enumerate(bits):
        aig.add_po(bit, f"{prefix}{index}")


# ---------------------------------------------------------------------------
# EPFL-style arithmetic benchmarks
# ---------------------------------------------------------------------------


def ripple_carry_adder(width: int = 32, name: str = "adder") -> Aig:
    """Ripple-carry adder: two ``width``-bit inputs, ``width + 1`` bit sum."""
    aig = Aig(name)
    a = _input_word(aig, width, "a")
    b = _input_word(aig, width, "b")
    total, carry = add_words(aig, a, b)
    _output_word(aig, total + [carry], "s")
    return aig


def carry_select_adder(width: int = 16, block: int = 4, name: str = "cs_adder") -> Aig:
    """Carry-select adder (blocks computed for both carries, then selected)."""
    aig = Aig(name)
    a = _input_word(aig, width, "a")
    b = _input_word(aig, width, "b")
    total: list[int] = []
    carry = LIT_FALSE
    for start in range(0, width, block):
        chunk_a = a[start : start + block]
        chunk_b = b[start : start + block]
        sum0, carry0 = add_words(aig, chunk_a, chunk_b, LIT_FALSE)
        sum1, carry1 = add_words(aig, chunk_a, chunk_b, LIT_TRUE)
        total.extend(mux_words(aig, carry, sum1, sum0))
        carry = aig.add_mux(carry, carry1, carry0)
    _output_word(aig, total + [carry], "s")
    return aig


def subtractor(width: int = 16, name: str = "subtractor") -> Aig:
    """Two's-complement subtractor with a borrow-free flag output."""
    aig = Aig(name)
    a = _input_word(aig, width, "a")
    b = _input_word(aig, width, "b")
    difference, no_borrow = sub_words(aig, a, b)
    _output_word(aig, difference, "d")
    aig.add_po(no_borrow, "geq")
    return aig


def comparator(width: int = 16, name: str = "comparator") -> Aig:
    """Unsigned comparator producing ``lt``, ``eq`` and ``gt``."""
    aig = Aig(name)
    a = _input_word(aig, width, "a")
    b = _input_word(aig, width, "b")
    lt = less_than(aig, a, b)
    eq = equal_words(aig, a, b)
    gt = aig.add_and(Aig.negate(lt), Aig.negate(eq))
    aig.add_po(lt, "lt")
    aig.add_po(eq, "eq")
    aig.add_po(gt, "gt")
    return aig


def barrel_shifter(width: int = 32, name: str = "bar") -> Aig:
    """Logarithmic barrel shifter (left shift by a log2(width)-bit amount)."""
    aig = Aig(name)
    data = _input_word(aig, width, "d")
    amount = _input_word(aig, max(1, (width - 1).bit_length()), "sh")
    shifted = shift_left_words(aig, data, amount)
    _output_word(aig, shifted, "q")
    return aig


def array_multiplier(width: int = 8, name: str = "multiplier") -> Aig:
    """Unsigned array multiplier."""
    aig = Aig(name)
    a = _input_word(aig, width, "a")
    b = _input_word(aig, width, "b")
    product = mul_words(aig, a, b)
    _output_word(aig, product, "p")
    return aig


def square(width: int = 8, name: str = "square") -> Aig:
    """Squarer: a single input multiplied with itself."""
    aig = Aig(name)
    a = _input_word(aig, width, "a")
    product = mul_words(aig, a, a)
    _output_word(aig, product, "p")
    return aig


def restoring_divider(width: int = 8, name: str = "div") -> Aig:
    """Restoring divider: ``width``-bit dividend and divisor, quotient + remainder."""
    aig = Aig(name)
    dividend = _input_word(aig, width, "n")
    divisor = _input_word(aig, width, "d")
    remainder = [LIT_FALSE] * width
    quotient = [LIT_FALSE] * width
    for step in reversed(range(width)):
        # Shift the remainder left and bring down the next dividend bit.
        remainder = [dividend[step]] + remainder[:-1]
        difference, no_borrow = sub_words(aig, remainder, divisor)
        remainder = mux_words(aig, no_borrow, difference, remainder)
        quotient[step] = no_borrow
    _output_word(aig, quotient, "q")
    _output_word(aig, remainder, "r")
    return aig


def integer_square_root(width: int = 8, name: str = "sqrt") -> Aig:
    """Non-restoring integer square root of a ``width``-bit radicand."""
    aig = Aig(name)
    radicand = _input_word(aig, width, "x")
    half = (width + 1) // 2
    root = [LIT_FALSE] * half
    remainder = list(radicand)
    for index in reversed(range(half)):
        # Candidate root with bit ``index`` set.
        candidate = list(root)
        candidate[index] = LIT_TRUE
        # candidate^2 <= radicand ?  (computed over 2*width bits)
        squared = mul_words(aig, candidate, candidate)
        wide_radicand = list(radicand) + [LIT_FALSE] * (len(squared) - width)
        _diff, fits = sub_words(aig, wide_radicand, squared)
        root = mux_words(aig, fits, candidate, root)
    _output_word(aig, root, "root")
    # Remainder output keeps the PO profile similar to the EPFL benchmark.
    squared_root = mul_words(aig, root, root)
    wide_radicand = list(remainder) + [LIT_FALSE] * (len(squared_root) - width)
    final_remainder, _ = sub_words(aig, wide_radicand, squared_root)
    _output_word(aig, final_remainder[:width], "rem")
    return aig


def max_unit(width: int = 16, operands: int = 4, name: str = "max") -> Aig:
    """Maximum of several unsigned words (tournament of comparators)."""
    aig = Aig(name)
    words = [_input_word(aig, width, f"w{i}_") for i in range(operands)]
    current = words[0]
    for other in words[1:]:
        smaller = less_than(aig, current, other)
        current = mux_words(aig, smaller, other, current)
    _output_word(aig, current, "max")
    return aig


def majority_voter(num_inputs: int = 15, name: str = "voter") -> Aig:
    """Majority voter over an odd number of single-bit inputs (population count)."""
    if num_inputs % 2 == 0:
        raise ValueError("majority voter needs an odd number of inputs")
    aig = Aig(name)
    bits = [aig.add_pi(f"v{i}") for i in range(num_inputs)]
    # Population count by ripple accumulation.
    count_width = num_inputs.bit_length()
    count = [LIT_FALSE] * count_width
    for bit in bits:
        count, _carry = add_words(aig, count, [bit] + [LIT_FALSE] * (count_width - 1))
    threshold = num_inputs // 2 + 1
    threshold_bits = [(LIT_TRUE if (threshold >> i) & 1 else LIT_FALSE) for i in range(count_width)]
    _diff, is_majority = sub_words(aig, count, threshold_bits)
    aig.add_po(is_majority, "majority")
    return aig


def decoder(address_width: int = 6, name: str = "dec") -> Aig:
    """Full binary decoder: ``address_width`` inputs, ``2**address_width`` outputs."""
    aig = Aig(name)
    address = _input_word(aig, address_width, "a")
    for value in range(1 << address_width):
        bits = [
            address[i] if (value >> i) & 1 else Aig.negate(address[i])
            for i in range(address_width)
        ]
        aig.add_po(aig.add_and_multi(bits), f"y{value}")
    return aig


def priority_encoder(width: int = 16, name: str = "priority") -> Aig:
    """Priority encoder: index of the highest set request plus a valid flag."""
    aig = Aig(name)
    requests = [aig.add_pi(f"r{i}") for i in range(width)]
    index_width = max(1, (width - 1).bit_length())
    index = [LIT_FALSE] * index_width
    valid = LIT_FALSE
    for position, request in enumerate(requests):
        position_bits = [(LIT_TRUE if (position >> i) & 1 else LIT_FALSE) for i in range(index_width)]
        index = mux_words(aig, request, position_bits, index)
        valid = aig.add_or(valid, request)
    _output_word(aig, index, "idx")
    aig.add_po(valid, "valid")
    return aig


def int_to_float(width: int = 16, mantissa: int = 7, name: str = "int2float") -> Aig:
    """Integer to small floating-point conversion (leading-one detect + normalise)."""
    aig = Aig(name)
    value = _input_word(aig, width, "x")
    exponent_width = max(1, (width - 1).bit_length())
    # Leading-one position (priority from the top) and validity.
    exponent = [LIT_FALSE] * exponent_width
    found = LIT_FALSE
    for position in range(width):
        bit = value[position]
        position_bits = [(LIT_TRUE if (position >> i) & 1 else LIT_FALSE) for i in range(exponent_width)]
        exponent = mux_words(aig, bit, position_bits, exponent)
        found = aig.add_or(found, bit)
    # Normalised mantissa: value shifted left so the leading one drops out.
    shift_amount = [Aig.negate(bit) for bit in exponent]  # (width-1) - exponent for width = 2^k
    shifted = shift_left_words(aig, value, shift_amount)
    mantissa_bits = shifted[max(0, width - 1 - mantissa) : width - 1] if width > 1 else []
    _output_word(aig, exponent, "exp")
    _output_word(aig, mantissa_bits, "man")
    aig.add_po(found, "nonzero")
    return aig


def log2_unit(width: int = 16, fraction: int = 4, name: str = "log2") -> Aig:
    """Base-2 logarithm approximation: integer part plus a linear fraction."""
    aig = Aig(name)
    value = _input_word(aig, width, "x")
    exponent_width = max(1, (width - 1).bit_length())
    integer_part = [LIT_FALSE] * exponent_width
    for position in range(width):
        position_bits = [(LIT_TRUE if (position >> i) & 1 else LIT_FALSE) for i in range(exponent_width)]
        integer_part = mux_words(aig, value[position], position_bits, integer_part)
    # Fractional part: the bits just below the leading one (linear interpolation).
    shift_amount = [Aig.negate(bit) for bit in integer_part]
    normalised = shift_left_words(aig, value, shift_amount)
    fraction_bits = normalised[max(0, width - 1 - fraction) : width - 1]
    _output_word(aig, integer_part, "int")
    _output_word(aig, fraction_bits, "frac")
    return aig


def sine_unit(width: int = 8, name: str = "sin") -> Aig:
    """Parabolic sine approximation ``sin(x) ~ 4x(1-x)`` on a normalised input."""
    aig = Aig(name)
    x = _input_word(aig, width, "x")
    one_minus_x = [Aig.negate(bit) for bit in x]  # (2^width - 1) - x
    product = mul_words(aig, x, one_minus_x)
    # Multiply by four = shift left by two, keep the top ``width`` bits.
    scaled = ([LIT_FALSE, LIT_FALSE] + product)[len(product) - width + 2 : len(product) + 2]
    _output_word(aig, scaled, "sin")
    return aig


def hypotenuse_unit(width: int = 6, name: str = "hyp") -> Aig:
    """Hypotenuse ``sqrt(a^2 + b^2)`` built from squarers, an adder and a square root."""
    aig = Aig(name)
    a = _input_word(aig, width, "a")
    b = _input_word(aig, width, "b")
    a_squared = mul_words(aig, a, a)
    b_squared = mul_words(aig, b, b)
    total, carry = add_words(aig, a_squared, b_squared)
    radicand = total + [carry]
    # Integer square root of the (2*width + 1)-bit radicand.
    half = (len(radicand) + 1) // 2
    root = [LIT_FALSE] * half
    for index in reversed(range(half)):
        candidate = list(root)
        candidate[index] = LIT_TRUE
        squared = mul_words(aig, candidate, candidate)
        wide_radicand = list(radicand) + [LIT_FALSE] * (len(squared) - len(radicand))
        _diff, fits = sub_words(aig, wide_radicand, squared[: len(wide_radicand)])
        root = mux_words(aig, fits, candidate, root)
    _output_word(aig, root, "hyp")
    return aig
