"""Tests for the NPN-class structure library."""

import random

import pytest

from repro.networks import Aig
from repro.rewriting.library import (
    AigStructure,
    RewriteLibrary,
    _transform_structure,
    default_library,
    synthesize_structure,
)
from repro.rewriting.npn import npn_canonicalize
from repro.truthtable import TruthTable


class TestAigStructure:
    def test_truth_table_of_handbuilt_and(self):
        # AND(v0, !v1) over 2 variables: gate node 3, literals 2*1=2 (v0), 2*2+1=5 (!v1).
        structure = AigStructure(2, ((2, 5),), 6)
        assert structure.truth_table() == TruthTable.from_function(lambda a, b: a and not b, 2)

    def test_output_complement(self):
        structure = AigStructure(2, ((2, 4),), 7)
        assert structure.truth_table() == TruthTable.from_function(lambda a, b: not (a and b), 2)

    def test_instantiate_matches_simulation(self):
        library = default_library()
        rng = random.Random(5)
        for _ in range(25):
            table = TruthTable(4, rng.getrandbits(16))
            structure = library.structure(table)
            aig = Aig()
            leaves = [aig.add_pi() for _ in range(4)]
            output = structure.instantiate(aig, leaves)
            aig.add_po(output)
            for assignment in range(16):
                values = [bool(assignment & (1 << i)) for i in range(4)]
                assert aig.evaluate(values)[0] == table.evaluate(values), table

    def test_instantiate_arity_check(self):
        structure = AigStructure(2, ((2, 4),), 6)
        with pytest.raises(ValueError):
            structure.instantiate(Aig(), [2])


class TestLibraryCorrectness:
    def test_every_two_input_function(self):
        library = RewriteLibrary()
        for bits in range(16):
            table = TruthTable(2, bits)
            assert library.structure(table).truth_table() == table

    def test_every_three_input_function(self):
        library = RewriteLibrary()
        for bits in range(256):
            table = TruthTable(3, bits)
            assert library.structure(table).truth_table() == table

    def test_random_four_input_functions(self):
        library = default_library()
        rng = random.Random(11)
        for _ in range(300):
            table = TruthTable(4, rng.getrandbits(16))
            assert library.structure(table).truth_table() == table

    def test_class_sharing(self):
        # 65536 functions collapse onto at most 222 cached class structures.
        library = RewriteLibrary()
        rng = random.Random(12)
        for _ in range(500):
            library.structure(TruthTable(4, rng.getrandbits(16)))
        assert library.num_cached_classes <= 222

    def test_function_memo(self):
        # Every 3-input function and seeded random 4-input functions: the
        # memoised structure is the transformed class structure, and a
        # repeated lookup is a hit that builds no class structure.
        library = RewriteLibrary()
        rng = random.Random(13)
        tables = [TruthTable(3, bits) for bits in range(256)]
        tables += [TruthTable(4, rng.getrandbits(16)) for _ in range(300)]
        for table in tables:
            structure = library.structure(table)
            assert structure.truth_table() == table
            representative, transform = npn_canonicalize(table)
            stored = library._representative_structure(representative)
            assert structure == _transform_structure(stored, transform)
            misses = library.exact_hits + library.decomposed
            assert library.structure(TruthTable(table.num_vars, table.bits)) is structure
            assert library.exact_hits + library.decomposed == misses

    def test_oversized_arity_rejected(self):
        with pytest.raises(ValueError):
            RewriteLibrary().structure(TruthTable(5, 0))
        with pytest.raises(ValueError):
            RewriteLibrary(num_vars=5)


class TestLibraryOptimality:
    """Known size-optimal structures the bounded enumeration must find."""

    @pytest.mark.parametrize(
        "function, num_vars, optimal",
        [
            (lambda a, b: a and b, 2, 1),
            (lambda a, b: a or b, 2, 1),
            (lambda a, b: a != b, 2, 3),
            (lambda a, b, c: a and b and c, 3, 2),
            (lambda a, b, c: (a + b + c) >= 2, 3, 4),  # MAJ3
            (lambda a, b, c: b if a else c, 3, 3),  # MUX
            (lambda a, b, c, d: a and b and c and d, 4, 3),
            (lambda a, b, c, d: (a and b) or (c and d), 4, 3),
        ],
    )
    def test_known_optimum(self, function, num_vars, optimal):
        table = TruthTable.from_function(function, num_vars)
        assert default_library().structure(table).num_gates == optimal

    def test_projection_needs_no_gates(self):
        structure = default_library().structure(TruthTable.variable(2, 4))
        assert structure.num_gates == 0

    def test_constant_needs_no_gates(self):
        structure = default_library().structure(TruthTable.constant(True, 4))
        assert structure.num_gates == 0
        assert structure.truth_table() == TruthTable.constant(True, 4)


class TestDecompositionSynthesis:
    def test_wide_parity(self):
        table = TruthTable.from_function(lambda *xs: sum(xs) % 2 == 1, 7)
        structure = synthesize_structure(table)
        assert structure.truth_table() == table
        assert structure.num_gates <= 3 * 6  # an XOR chain

    def test_random_wide_functions(self):
        rng = random.Random(13)
        for num_vars in (5, 6):
            for _ in range(20):
                table = TruthTable(num_vars, rng.getrandbits(1 << num_vars))
                structure = synthesize_structure(table)
                assert structure.truth_table() == table

    def test_shared_cofactors_are_emitted_once(self):
        # f = (a ? g : !g) with g = b & c: both branches reuse g's gate.
        table = TruthTable.from_function(lambda a, b, c: (b and c) if a else not (b and c), 3)
        structure = synthesize_structure(table)
        assert structure.truth_table() == table
        assert structure.num_gates <= 4  # XOR shape, not two separate cones


def test_cold_library_builds_the_optimal_and_or():
    """A fresh library enumerates the class of ``ab + cd`` and answers it with 3 gates."""
    library = RewriteLibrary()
    function = TruthTable.from_function(lambda a, b, c, d: (a and b) or (c and d), 4)
    structure = library.structure(function)
    assert library.num_cached_classes >= 1
    assert structure.truth_table() == function
    assert structure.num_gates == 3
