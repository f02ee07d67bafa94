"""Tests for the STP-enhanced SAT sweeper (Algorithm 2)."""

import pytest

from repro.circuits import epfl_benchmark
from repro.circuits.arithmetic import ripple_carry_adder
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import Aig
from repro.sweeping import (
    FraigSweeper,
    StpSweeper,
    check_combinational_equivalence,
    stp_sweep,
)


def _workload(seed: int = 3, near_misses: int = 6) -> Aig:
    base = ripple_carry_adder(width=6, name="adder6")
    workload, _report = inject_redundancy(
        base,
        duplication_fraction=0.3,
        constant_cones=2,
        near_miss_count=near_misses,
        seed=seed,
    )
    return workload


class TestStpSweeper:
    def test_result_is_equivalent_and_reduced(self):
        workload = _workload()
        swept, stats = stp_sweep(workload, num_patterns=64)
        assert swept.num_ands < workload.num_ands
        assert check_combinational_equivalence(workload, swept)
        assert stats.merges > 0

    def test_matches_baseline_quality(self):
        workload = _workload(seed=5)
        baseline, _ = FraigSweeper(workload, num_patterns=64).run()
        swept, _ = StpSweeper(workload, num_patterns=64).run()
        assert swept.num_ands == baseline.num_ands

    def test_exhaustive_refinement_reduces_satisfiable_calls(self):
        workload = _workload(seed=7, near_misses=8)
        _swept_off, stats_off = StpSweeper(
            workload, num_patterns=64, use_exhaustive_refinement=False
        ).run()
        _swept_on, stats_on = StpSweeper(
            workload, num_patterns=64, use_exhaustive_refinement=True
        ).run()
        assert stats_on.satisfiable_sat_calls <= stats_off.satisfiable_sat_calls
        assert stats_on.simulation_disproofs > 0

    def test_near_misses_disproved_without_sat(self):
        workload = _workload(seed=9, near_misses=10)
        _swept, stats = StpSweeper(workload, num_patterns=64).run()
        assert stats.simulation_disproofs > 0

    def test_statistics_consistency(self):
        workload = _workload(seed=11)
        _swept, stats = StpSweeper(workload, num_patterns=32).run()
        assert stats.total_sat_calls == (
            stats.satisfiable_sat_calls + stats.unsatisfiable_sat_calls + stats.undetermined_sat_calls
        )
        assert stats.total_time >= stats.simulation_time
        assert stats.patterns_used >= 32

    def test_preserves_interface_and_input(self):
        workload = _workload(seed=13)
        reference = workload.clone()
        swept, _stats = stp_sweep(workload, num_patterns=32)
        assert swept.num_pis == workload.num_pis
        assert swept.num_pos == workload.num_pos
        assert workload.num_ands == reference.num_ands

    def test_without_sat_guided_patterns(self):
        workload = _workload(seed=15)
        swept, _stats = StpSweeper(workload, num_patterns=32, use_sat_guided_patterns=False).run()
        assert check_combinational_equivalence(workload, swept)

    def test_small_window_still_correct(self):
        workload = _workload(seed=17)
        swept, _stats = StpSweeper(workload, num_patterns=32, window_leaves=4).run()
        assert check_combinational_equivalence(workload, swept)

    def test_constant_propagation_via_exhaustive_simulation(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        hidden_false = aig.add_and(x, aig.add_and(Aig.negate(a), c))
        aig.add_po(aig.add_or(hidden_false, x))
        swept, stats = stp_sweep(aig, num_patterns=16)
        assert stats.constant_merges >= 1
        assert swept.num_ands <= 1
        assert check_combinational_equivalence(aig, swept)

    def test_idempotent_on_clean_network(self, small_aig):
        swept_once, _ = stp_sweep(small_aig, num_patterns=32)
        swept_twice, _ = stp_sweep(swept_once, num_patterns=32)
        assert swept_twice.num_ands == swept_once.num_ands

    @pytest.mark.parametrize("tfi_limit", [10, 1000])
    def test_tfi_limit_variations(self, tfi_limit):
        workload = _workload(seed=19)
        swept, _stats = StpSweeper(workload, num_patterns=32, tfi_limit=tfi_limit).run()
        assert check_combinational_equivalence(workload, swept)


class TestDanglingSkip:
    """Skipping dead candidates must not change what the sweep produces."""

    @pytest.mark.parametrize(
        ("name", "gates"), [("div", 682), ("hyp", 1112), ("sqrt", 548), ("cavlc", 45), ("i2c", 237)]
    )
    def test_epfl_result_size_is_pinned(self, name, gates):
        _swept, stats = StpSweeper(epfl_benchmark(name), num_patterns=64, seed=1).run()
        assert stats.gates_after == gates
        assert stats.extra["dangling_skipped"] > 0
        assert f"dangling skipped {int(stats.extra['dangling_skipped'])}" in str(stats)
        assert stats.extra["exhaustive_proofs"] > 0
        assert f"exhaustive proofs {int(stats.extra['exhaustive_proofs'])}" in str(stats)

