"""Tests for the exact NPN canonicalization."""

import random
from functools import lru_cache
from itertools import permutations

import pytest

from repro.rewriting.npn import (
    NpnTransform,
    apply_npn_transform,
    npn_canonicalize,
    npn_classes,
)
from repro.truthtable import TruthTable


# ---------------------------------------------------------------------------
# Reference: the bit-loop canonicaliser the byte-table gather replaced
# ---------------------------------------------------------------------------


def _sources(permutation, negations):
    """For each assignment of ``g = t(f)``, the assignment of ``f`` it reads."""
    sources = []
    for assignment in range(1 << len(permutation)):
        source = 0
        for j, variable in enumerate(permutation):
            if ((assignment >> variable) ^ (negations >> j)) & 1:
                source |= 1 << j
        sources.append(source)
    return sources


def _gather(bits, sources):
    """Permute a truth table's bits one assignment at a time."""
    out = 0
    for assignment, source in enumerate(sources):
        if (bits >> source) & 1:
            out |= 1 << assignment
    return out


@lru_cache(maxsize=None)
def _reference_transforms(num_vars):
    """Every (permutation, negation mask, sources) triple in the canonicaliser's order."""
    return [
        (permutation, negations, _sources(permutation, negations))
        for permutation in permutations(range(num_vars))
        for negations in range(1 << num_vars)
    ]


def _reference_canonicalize(table, transforms=None):
    """Smallest transformed pattern, first transform reaching it under strict ``<``."""
    full = (1 << table.num_bits) - 1
    best_bits, best = None, None
    for permutation, negations, sources in transforms or _reference_transforms(table.num_vars):
        gathered = _gather(table.bits, sources)
        for output_negation in (False, True):
            bits = (~gathered & full) if output_negation else gathered
            if best_bits is None or bits < best_bits:
                best_bits, best = bits, NpnTransform(permutation, negations, output_negation)
    return TruthTable(table.num_vars, best_bits), best


def _oracle_tables():
    """Every function of arity 0-3 and 2,000 seeded random 4-input functions."""
    rng = random.Random(2023)
    tables = [TruthTable(n, bits) for n in range(4) for bits in range(1 << (1 << n))]
    return tables + [TruthTable(4, rng.getrandbits(16)) for _ in range(2000)]


class TestTransform:
    def test_identity_transform(self):
        table = TruthTable.from_function(lambda a, b, c: a and (b or c), 3)
        identity = NpnTransform((0, 1, 2), 0, False)
        assert apply_npn_transform(table, identity) == table

    def test_output_negation(self):
        table = TruthTable.from_function(lambda a, b: a and b, 2)
        negated = apply_npn_transform(table, NpnTransform((0, 1), 0, True))
        assert negated == ~table

    def test_input_negation(self):
        table = TruthTable.from_function(lambda a, b: a and not b, 2)
        # Negating input 1 turns a & !b into a & b.
        transformed = apply_npn_transform(table, NpnTransform((0, 1), 0b10, False))
        assert transformed == TruthTable.from_function(lambda a, b: a and b, 2)

    def test_permutation(self):
        table = TruthTable.from_function(lambda a, b, c: a and not c, 3)
        # Input 0 of f reads variable 2 of g and vice versa.
        transformed = apply_npn_transform(table, NpnTransform((2, 1, 0), 0, False))
        assert transformed == TruthTable.from_function(lambda a, b, c: c and not a, 3)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_npn_transform(TruthTable(2, 0b1000), NpnTransform((0, 1, 2), 0, False))


class TestCanonicalize:
    def test_transform_reproduces_representative(self):
        rng = random.Random(7)
        for _ in range(200):
            table = TruthTable(4, rng.getrandbits(16))
            representative, transform = npn_canonicalize(table)
            assert apply_npn_transform(table, transform) == representative

    def test_equivalent_functions_share_representative(self):
        rng = random.Random(8)
        for _ in range(100):
            table = TruthTable(4, rng.getrandbits(16))
            representative, _ = npn_canonicalize(table)
            permutation = tuple(rng.sample(range(4), 4))
            scrambled = apply_npn_transform(
                table,
                NpnTransform(permutation, rng.getrandbits(4), bool(rng.getrandbits(1))),
            )
            assert npn_canonicalize(scrambled)[0] == representative

    def test_known_class_counts(self):
        # The number of NPN classes of n-input functions is a classical
        # result: 4 classes at n = 2, 14 at n = 3.
        assert len(npn_classes(2)) == 4
        assert len(npn_classes(3)) == 14

    def test_and_class_members(self):
        and2 = TruthTable.from_function(lambda a, b: a and b, 2)
        for function in (
            lambda a, b: a and b,
            lambda a, b: a or b,
            lambda a, b: not (a and b),
            lambda a, b: a and not b,
            lambda a, b: not a or b,
        ):
            table = TruthTable.from_function(function, 2)
            assert npn_canonicalize(table)[0] == npn_canonicalize(and2)[0]

    def test_xor_not_in_and_class(self):
        and2 = TruthTable.from_function(lambda a, b: a and b, 2)
        xor2 = TruthTable.from_function(lambda a, b: a != b, 2)
        assert npn_canonicalize(and2)[0] != npn_canonicalize(xor2)[0]

    def test_constant_is_its_own_class(self):
        representative, _ = npn_canonicalize(TruthTable.constant(True, 4))
        assert representative.bits == 0  # const-1 canonicalises onto const-0

    def test_large_arity_rejected(self):
        with pytest.raises(ValueError):
            npn_canonicalize(TruthTable(5, 0))

    def test_memoisation_returns_same_object(self):
        table = TruthTable(4, 0xCAFE)
        first = npn_canonicalize(table)
        second = npn_canonicalize(TruthTable(4, 0xCAFE))
        assert first is second


class TestByteTableGather:
    """The byte-table gather against the bit loop it replaced."""

    def test_same_representative_and_transform(self):
        for table in _oracle_tables():
            assert npn_canonicalize(table) == _reference_canonicalize(table), table

    def test_apply_matches_bit_loop(self):
        rng = random.Random(17)
        for _ in range(500):
            num_vars = rng.randrange(5)
            table = TruthTable(num_vars, rng.getrandbits(1 << num_vars))
            permutation = tuple(rng.sample(range(num_vars), num_vars))
            transform = NpnTransform(permutation, rng.getrandbits(num_vars) if num_vars else 0, rng.random() < 0.5)
            expected = _gather(table.bits, _sources(permutation, transform.input_negations))
            if transform.output_negation:
                expected ^= (1 << table.num_bits) - 1
            assert apply_npn_transform(table, transform).bits == expected

    def test_oracle_sees_enumeration_order(self):
        # A canonicaliser walking the transforms in reverse finds the same
        # representatives but, on symmetric functions, other transforms:
        # the oracle above pins the order, not just the class.
        and3 = TruthTable.from_function(lambda a, b, c: a and b and c, 3)
        reversed_order = _reference_transforms(3)[::-1]
        forward, backward = _reference_canonicalize(and3), _reference_canonicalize(and3, reversed_order)
        assert forward[0] == backward[0]
        assert forward[1] != backward[1]
        assert npn_canonicalize(and3) == forward
