"""Tests for the reporting helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import format_table, geometric_mean, improvement


class TestGeometricMean:
    def test_known_values(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([2, 2, 2]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_zero_values_clamped(self):
        assert geometric_mean([0.0, 1.0]) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=1000), min_size=1, max_size=10))
    def test_between_min_and_max(self, values):
        mean = geometric_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=8),
        st.floats(min_value=0.1, max_value=10),
    )
    def test_scaling_property(self, values, factor):
        scaled = geometric_mean([v * factor for v in values])
        assert scaled == pytest.approx(geometric_mean(values) * factor, rel=1e-6)


class TestImprovement:
    def test_ratio(self):
        assert improvement(2.0, 1.0) == 0.5
        assert improvement(0.0, 1.0) == 0.0


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 123456]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len({len(line) for line in lines[1:]}) <= 2  # header/body aligned

    def test_format_table_handles_floats_and_missing_cells(self):
        text = format_table(["a", "b", "c"], [[0.123456, 12345.6], [1, 2, 3]])
        assert "0.123" in text
        assert "12,346" in text or "12345" in text

