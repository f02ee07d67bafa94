"""Tests for sweep statistics reporting."""

from repro.sweeping import SweepStatistics


class TestSweepStatistics:
    def test_gate_reduction(self):
        stats = SweepStatistics(gates_before=200, gates_after=150)
        assert stats.gate_reduction == 0.25
        assert SweepStatistics().gate_reduction == 0.0

    def test_str_mentions_key_counters(self):
        stats = SweepStatistics(name="x", gates_before=10, gates_after=5, total_sat_calls=3)
        text = str(stats)
        assert "x" in text and "10" in text and "5" in text and "3" in text
