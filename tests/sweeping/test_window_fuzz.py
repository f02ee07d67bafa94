"""Windowed-persistent solver vs fresh-encode oracle: identical decisions.

``CircuitSolver(window_size=1)`` re-encodes every query in a fresh
solver -- exactly the pre-incremental behaviour -- while the default
(``window_size=None``) keeps one persistent solver with activation
literals across a whole sweep.  For 40 seeds both modes must walk a
bit-identical sweep: the same merges, producing structurally identical
networks.  This holds because the CDCL core's models are nearly
query-order independent (phases reset to the default polarity at every
``solve``) and because merge decisions are semantic: whatever
counterexample a disproof yields, refinement converges on the same
equivalence classes.  Two EPFL profiles check the same identity at real
scale, and that the persistent window is reused for nearly every query.
"""

import pytest

from repro.circuits import epfl_benchmark
from repro.circuits.random_logic import random_aig
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import Aig
from repro.sweeping import FraigSweeper, StpSweeper

SEEDS = list(range(40))


def _workload(seed: int) -> Aig:
    base = random_aig(num_pis=6, num_gates=60, num_pos=5, seed=seed)
    workload, _report = inject_redundancy(
        base,
        duplication_fraction=0.25,
        constant_cones=1,
        near_miss_count=2,
        cut_size=3,
        seed=seed + 1,
    )
    return workload


def _structure(aig: Aig) -> tuple:
    """Exact structural fingerprint: interface, POs and every gate's fanins."""
    gates = tuple((gate,) + tuple(aig.fanins(gate)) for gate in sorted(aig.gates()))
    return (aig.num_pis, tuple(aig.pos), gates)


class TestWindowedSolverMatchesOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fraig_persistent_equals_fresh_encode_oracle(self, seed):
        workload = _workload(seed)
        persistent, stats_p = FraigSweeper(workload, num_patterns=32, window_size=None).run()
        oracle, stats_o = FraigSweeper(workload, num_patterns=32, window_size=1).run()
        assert _structure(persistent) == _structure(oracle), seed
        assert stats_p.merges == stats_o.merges, seed
        assert stats_p.constant_merges == stats_o.constant_merges, seed
        # Learned clauses retained across queries can occasionally steer
        # a disproof to a different (equally valid) counterexample, so
        # the refinement path may cost a query more or less -- but it
        # must converge to the same merge decisions (asserted above).
        assert abs(stats_p.total_sat_calls - stats_o.total_sat_calls) <= 2, seed
        # The persistent run reuses one solver for (nearly) every query;
        # the oracle opens a fresh window per solver-touching query.
        if stats_p.solver_statistics.get("window_reuses", 0):
            assert stats_p.solver_statistics["windows_opened"] == 1, seed
        assert stats_o.solver_statistics["window_reuses"] == 0, seed

    @pytest.mark.parametrize("seed", SEEDS[::5])
    def test_stp_persistent_equals_fresh_encode_oracle(self, seed):
        workload = _workload(seed)
        persistent, stats_p = StpSweeper(workload, num_patterns=32, window_size=None).run()
        oracle, stats_o = StpSweeper(workload, num_patterns=32, window_size=1).run()
        assert _structure(persistent) == _structure(oracle), seed
        assert stats_p.merges == stats_o.merges, seed

    @pytest.mark.parametrize("seed", SEEDS[::8])
    def test_intermediate_window_sizes_change_nothing(self, seed):
        """Any retire-after-N policy lands between the two extremes."""
        workload = _workload(seed)
        reference, _ = FraigSweeper(workload, num_patterns=32, window_size=None).run()
        for window_size in (2, 7):
            swept, stats = FraigSweeper(workload, num_patterns=32, window_size=window_size).run()
            assert _structure(swept) == _structure(reference), (seed, window_size)
            if stats.total_sat_calls > window_size:
                assert stats.solver_statistics["windows_opened"] > 1, (seed, window_size)

    @pytest.mark.parametrize("name", ["cavlc", "i2c"])
    def test_epfl_fraig_reuses_one_window(self, name):
        """On real profiles the persistent window answers nearly every query."""
        persistent, stats = FraigSweeper(epfl_benchmark(name), window_size=None).run()
        oracle, _stats = FraigSweeper(epfl_benchmark(name), window_size=1).run()
        assert _structure(persistent) == _structure(oracle), name
        assert stats.total_sat_calls >= 10, name
        reuses = stats.solver_statistics["window_reuses"]
        reuse_rate = reuses / max(1, reuses + stats.solver_statistics["windows_opened"])
        assert reuse_rate > 0.9, f"{name}: window reuse rate only {reuse_rate:.2f}"
