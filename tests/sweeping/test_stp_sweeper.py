"""Tests for the STP-enhanced SAT sweeper (Algorithm 2)."""

import pytest

from repro.circuits import epfl_benchmark
from repro.circuits.arithmetic import ripple_carry_adder
from repro.circuits.sweep_workloads import inject_redundancy, sweep_workload
from repro.harness import geometric_mean
from repro.networks import Aig
from repro.sweeping import (
    FraigSweeper,
    StpSweeper,
    check_combinational_equivalence,
    stp_sweep,
)
from repro.simulation import PatternSet, aig_po_signatures, simulate_aig


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


def _equivalent(original: Aig, swept: Aig) -> bool:
    """Exhaustive simulation up to 16 inputs, the CEC engine beyond."""
    if original.num_pis > 16:
        return bool(check_combinational_equivalence(original, swept))
    patterns = PatternSet.exhaustive(original.num_pis)
    return aig_po_signatures(original, simulate_aig(original, patterns)) == aig_po_signatures(
        swept, simulate_aig(swept, patterns)
    )


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
        _swept_off, stats_off = StpSweeper(workload, num_patterns=64, window_leaves=0).run()
        _swept_on, stats_on = StpSweeper(workload, num_patterns=64).run()
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
        swept, stats = StpSweeper(workload, num_patterns=32, use_sat_guided_patterns=False).run()
        assert check_combinational_equivalence(workload, swept)
        # Every node of this 12-input workload has an exhaustive table, so
        # without SAT-guided patterns the tables prove every merge, the
        # non-constant ones included, and SAT is never called.
        assert stats.total_sat_calls == 0
        assert stats.extra["exhaustive_proofs"] == stats.merges > stats.constant_merges
        _swept, guided = StpSweeper(workload, num_patterns=32).run()
        assert guided.total_sat_calls > 0

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

    def test_without_constant_pass(self):
        # The key-proof counter is set up with the tables, not by the pass.
        aig = epfl_benchmark("cavlc")
        sweeper = StpSweeper(aig)
        sweeper.constant_pass = False
        swept, stats = sweeper.run()
        assert check_combinational_equivalence(aig, swept)
        assert stats.extra["exhaustive_proofs"] > 0
        assert stats.extra["key_lemmas"] > 0

    @pytest.mark.parametrize("tfi_limit", [10, 1000])
    def test_tfi_limit_variations(self, tfi_limit):
        workload = _workload(seed=19)
        swept, stats = StpSweeper(workload, num_patterns=32, tfi_limit=tfi_limit).run()
        assert check_combinational_equivalence(workload, swept)
        assert stats.merges > 0


#: Three Table II rows, one per workload family.
TABLE2_SUBSET = ["beemfwt4b1", "leon2", "b18"]


@pytest.fixture(scope="module")
def table2_workloads():
    return {name: sweep_workload(name) for name in TABLE2_SUBSET}


@pytest.mark.parametrize("name", TABLE2_SUBSET)
def test_table2_baseline_fraig_sweeper(table2_workloads, name):
    workload = table2_workloads[name]
    swept, stats = FraigSweeper(workload, num_patterns=64).run()
    assert swept.num_ands == stats.gates_after < workload.num_ands
    assert stats.total_sat_calls > 0
    assert _equivalent(workload, swept)


@pytest.mark.parametrize("name", TABLE2_SUBSET)
def test_table2_stp_sweeper(table2_workloads, name):
    workload = table2_workloads[name]
    swept, stats = StpSweeper(workload, num_patterns=64).run()
    assert swept.num_ands == stats.gates_after < workload.num_ands
    assert stats.extra["exhaustive_proofs"] > 0
    assert _equivalent(workload, swept)


def test_table2_sat_call_shape(table2_workloads):
    """The SAT-call columns of Table II: the STP sweeper issues fewer
    satisfiable SAT calls and at most as many total calls as the baseline
    (geometric mean over three Table II rows); the result sizes agree."""
    satisfiable_ratios = []
    total_ratios = []
    for name, workload in table2_workloads.items():
        swept_base, stats_base = FraigSweeper(workload, num_patterns=64).run()
        swept_stp, stats_stp = StpSweeper(workload, num_patterns=64).run()
        assert swept_stp.num_ands == swept_base.num_ands, name
        satisfiable_ratios.append(
            max(stats_stp.satisfiable_sat_calls, 1) / max(stats_base.satisfiable_sat_calls, 1)
        )
        total_ratios.append(max(stats_stp.total_sat_calls, 1) / max(stats_base.total_sat_calls, 1))
    assert geometric_mean(satisfiable_ratios) < 1.0
    assert geometric_mean(total_ratios) <= 1.05


def test_table2_exhaustive_keys_save_sat_calls(table2_workloads):
    """The exhaustive keys carry the STP sweeper's SAT-call savings: with
    ``window_leaves=0`` (no keys) every row issues more SAT calls, and
    the keys cut the geometric mean of the total to at most 0.35x."""
    ratios = []
    for name, workload in table2_workloads.items():
        _swept, keyed = StpSweeper(workload, num_patterns=64).run()
        _swept, keyless = StpSweeper(workload, num_patterns=64, window_leaves=0).run()
        assert keyed.total_sat_calls < keyless.total_sat_calls, name
        ratios.append(keyed.total_sat_calls / keyless.total_sat_calls)
    assert geometric_mean(ratios) <= 0.35


@pytest.fixture(scope="module")
def ablation_workload():
    """The 11-input ``int2float`` profile with duplicated cones, constants and near misses."""
    workload, _report = inject_redundancy(
        epfl_benchmark("int2float"),
        duplication_fraction=0.25,
        constant_cones=2,
        near_miss_count=8,
        seed=77,
    )
    return workload


class TestAblation:
    """One knob of the STP sweeper at a time on the same workload."""

    @pytest.mark.parametrize("use_sat_guided", [False, True], ids=["random-patterns", "sat-guided"])
    def test_initial_pattern_strategy(self, ablation_workload, use_sat_guided):
        swept, stats = StpSweeper(
            ablation_workload, num_patterns=64, use_sat_guided_patterns=use_sat_guided
        ).run()
        assert _equivalent(ablation_workload, swept)
        if use_sat_guided:
            assert stats.total_sat_calls > 0
        else:
            # Every node of this 11-input workload has an exhaustive table, so
            # without SAT-guided patterns the tables prove every merge.
            assert stats.total_sat_calls == 0
            assert stats.extra["exhaustive_proofs"] == stats.merges > stats.constant_merges

    @pytest.mark.parametrize("tfi_limit", [10, 100, 1000])
    def test_tfi_limit_sweep(self, ablation_workload, tfi_limit):
        swept, stats = StpSweeper(ablation_workload, num_patterns=64, tfi_limit=tfi_limit).run()
        assert stats.merges > 0
        assert _equivalent(ablation_workload, swept)

    @pytest.mark.parametrize("window_leaves", [0, 16], ids=["ce-resimulation-only", "exhaustive-windows"])
    def test_ce_refinement_strategy(self, ablation_workload, window_leaves):
        swept, stats = StpSweeper(ablation_workload, num_patterns=64, window_leaves=window_leaves).run()
        assert _equivalent(ablation_workload, swept)
        if window_leaves:
            assert stats.simulation_disproofs > 0
        else:
            # No window means no exhaustive key: only SAT disproves a pair.
            assert stats.simulation_disproofs == 0
            assert stats.satisfiable_sat_calls > 0

    @pytest.mark.parametrize("window_leaves", [8, 12, 16])
    def test_window_size_sweep(self, ablation_workload, window_leaves):
        swept, stats = StpSweeper(ablation_workload, num_patterns=64, window_leaves=window_leaves).run()
        assert swept.num_ands == stats.gates_after < stats.gates_before
        assert _equivalent(ablation_workload, swept)


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
        assert f"tables built {int(stats.extra['tables_built'])}" in str(stats)

