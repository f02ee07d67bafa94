"""Ablation benchmarks for the design choices called out in DESIGN.md.

Each target sweeps one knob of the STP simulator or sweeper and records
the effect, mirroring the paper's implicit design decisions:

* the cut leaf limit ``log2(#patterns)`` of Algorithm 1;
* SAT-guided versus purely random initial patterns (Section IV-A);
* the TFI candidate bound (1000 in the paper);
* exhaustive-window CE refinement versus plain CE resimulation.
"""

from __future__ import annotations

import pytest

from repro.circuits import epfl_benchmark
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import map_aig_to_klut
from repro.simulation import PatternSet, StpSimulator
from repro.sweeping import StpSweeper


@pytest.fixture(scope="module")
def lut_network():
    aig = epfl_benchmark("sin")
    klut, _ = map_aig_to_klut(aig, k=6)
    return klut


@pytest.fixture(scope="module")
def ablation_workload():
    base = epfl_benchmark("int2float")
    workload, _ = inject_redundancy(
        base, duplication_fraction=0.25, constant_cones=2, near_miss_count=8, seed=77
    )
    return workload


@pytest.mark.parametrize("limit", [2, 4, 8, 12])
def test_ablation_cut_limit_sweep(benchmark, lut_network, limit):
    """Algorithm 1's leaf limit: smaller cuts mean more, cheaper matrix passes."""
    patterns = PatternSet.random(lut_network.num_pis, 256, seed=5)
    targets = list(lut_network.luts())[::4]
    simulator = StpSimulator(lut_network)
    benchmark.group = "ablation-cut-limit"
    benchmark(simulator.simulate_nodes, patterns, targets, limit)


@pytest.mark.parametrize("use_sat_guided", [False, True], ids=["random-patterns", "sat-guided"])
def test_ablation_initial_pattern_strategy(benchmark, ablation_workload, use_sat_guided):
    """Section IV-A: SAT-guided versus purely random initial patterns."""
    benchmark.group = "ablation-initial-patterns"

    def run():
        return StpSweeper(
            ablation_workload,
            num_patterns=64,
            use_sat_guided_patterns=use_sat_guided,
        ).run()

    _swept, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    if use_sat_guided:
        assert stats.total_sat_calls > 0
    else:
        # Every node of this 11-input workload has an exhaustive table, so
        # without SAT-guided patterns the tables prove every merge, the
        # non-constant ones included, and SAT is never called.
        assert stats.total_sat_calls == 0
        assert stats.extra["exhaustive_proofs"] == stats.merges > stats.constant_merges


@pytest.mark.parametrize("tfi_limit", [10, 100, 1000])
def test_ablation_tfi_limit_sweep(benchmark, ablation_workload, tfi_limit):
    """The TFI candidate bound of Algorithm 2 (paper default 1000)."""
    benchmark.group = "ablation-tfi-limit"

    def run():
        return StpSweeper(ablation_workload, num_patterns=64, tfi_limit=tfi_limit).run()

    _swept, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.merges > 0


@pytest.mark.parametrize(
    "use_windows", [False, True], ids=["ce-resimulation-only", "exhaustive-windows"]
)
def test_ablation_ce_refinement_strategy(benchmark, ablation_workload, use_windows):
    """Exhaustive-window refinement versus plain CE resimulation."""
    benchmark.group = "ablation-ce-refinement"

    def run():
        return StpSweeper(
            ablation_workload,
            num_patterns=64,
            use_exhaustive_refinement=use_windows,
        ).run()

    _swept, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    if use_windows:
        assert stats.simulation_disproofs > 0


@pytest.mark.parametrize("window_leaves", [8, 12, 16])
def test_ablation_window_size_sweep(benchmark, ablation_workload, window_leaves):
    """The exhaustive-window size bound (the paper restricts it below 16)."""
    benchmark.group = "ablation-window-size"

    def run():
        return StpSweeper(ablation_workload, num_patterns=64, window_leaves=window_leaves).run()

    _swept, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.gates_after <= stats.gates_before
