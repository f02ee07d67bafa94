"""Tests for simulation pattern sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import PatternSet


class TestConstruction:
    def test_random_is_reproducible(self):
        a = PatternSet.random(8, 64, seed=3)
        b = PatternSet.random(8, 64, seed=3)
        c = PatternSet.random(8, 64, seed=4)
        assert a.words == b.words
        assert a.words != c.words
        assert a.num_patterns == 64

    def test_exhaustive_covers_all_assignments(self):
        patterns = PatternSet.exhaustive(3)
        assert patterns.num_patterns == 8
        assert sorted(patterns.pattern(i) for i in range(8)) == sorted(
            tuple((i >> b) & 1 for b in range(3)) for i in range(8)
        )

    def test_exhaustive_signature_is_truth_table_of_variable(self):
        patterns = PatternSet.exhaustive(4)
        # Input i's word equals the truth table of variable i.
        from repro.truthtable import TruthTable

        for index in range(4):
            assert patterns.input_word(index) == TruthTable.variable(index, 4).bits

    def test_exhaustive_limit(self):
        with pytest.raises(ValueError):
            PatternSet.exhaustive(21)

    def test_from_patterns(self):
        patterns = PatternSet.from_patterns([(1, 0), (0, 1), (1, 1)])
        assert patterns.num_patterns == 3
        assert patterns.pattern(0) == (1, 0)
        assert patterns.pattern(2) == (1, 1)
        with pytest.raises(ValueError):
            PatternSet.from_patterns([])

    def test_from_input_strings_matches_paper_layout(self):
        patterns = PatternSet.from_input_strings(["011", "100"])
        assert patterns.num_patterns == 3
        assert patterns.pattern(0) == (0, 1)
        assert patterns.pattern(1) == (1, 0)
        assert patterns.pattern(2) == (1, 0)

    def test_from_input_strings_validation(self):
        with pytest.raises(ValueError):
            PatternSet.from_input_strings([])
        with pytest.raises(ValueError):
            PatternSet.from_input_strings(["01", "011"])
        with pytest.raises(ValueError):
            PatternSet.from_input_strings(["0a"])

    def test_word_count_validation(self):
        with pytest.raises(ValueError):
            PatternSet(2, 1, [0b1])
        with pytest.raises(ValueError):
            PatternSet(-1)


class TestAccessAndMutation:
    def test_add_pattern_and_mask(self):
        patterns = PatternSet(3)
        patterns.add_pattern([1, 0, 1])
        patterns.add_pattern([0, 1, 1])
        assert patterns.num_patterns == 2
        assert patterns.mask == 0b11
        assert patterns.input_word(0) == 0b01
        assert patterns.input_word(2) == 0b11
        with pytest.raises(ValueError):
            patterns.add_pattern([1, 0])

    def test_pattern_bounds(self):
        patterns = PatternSet.random(2, 4)
        with pytest.raises(IndexError):
            patterns.pattern(4)

    def test_extend(self):
        a = PatternSet.from_patterns([(1, 0)])
        b = PatternSet.from_patterns([(0, 1), (1, 1)])
        a.extend(b)
        assert a.num_patterns == 3
        assert [a.pattern(i) for i in range(3)] == [(1, 0), (0, 1), (1, 1)]
        with pytest.raises(ValueError):
            a.extend(PatternSet.from_patterns([(1,)]))

    def test_copy_is_independent(self):
        a = PatternSet.from_patterns([(1, 0)])
        b = a.copy()
        b.add_pattern((0, 1))
        assert a.num_patterns == 1
        assert b.num_patterns == 2

    def test_pattern_and_len(self):
        patterns = PatternSet.from_patterns([(1, 0, 1)])
        assert patterns.pattern(0) == (1, 0, 1)
        assert len(patterns) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 1), min_size=3, max_size=3),
            min_size=1,
            max_size=20,
        )
    )
    def test_roundtrip_property(self, rows):
        patterns = PatternSet.from_patterns(rows)
        assert [list(patterns.pattern(i)) for i in range(len(rows))] == rows
