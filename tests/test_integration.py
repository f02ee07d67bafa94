"""End-to-end integration tests crossing all package boundaries."""

import pytest

from repro.circuits import epfl_benchmark, inject_redundancy
from repro.io import read_aiger, write_aiger, write_blif, read_blif
from repro.networks import map_aig_to_klut
from repro.simulation import (
    PatternSet,
    StpSimulator,
    aig_po_signatures,
    klut_po_signatures,
    simulate_aig,
    simulate_klut_per_pattern,
)
from repro.sweeping import check_combinational_equivalence, fraig_sweep, stp_sweep


class TestSimulationFlow:
    """EPFL benchmark -> 6-LUT mapping -> three simulators agree (Table I path)."""

    @pytest.mark.parametrize("name", ["ctrl", "int2float", "priority"])
    def test_simulators_agree_on_epfl_profile(self, name):
        aig = epfl_benchmark(name)
        klut, _ = map_aig_to_klut(aig, k=6)
        patterns = PatternSet.random(aig.num_pis, 64, seed=17)
        aig_pos = aig_po_signatures(aig, simulate_aig(aig, patterns))
        lut_pos = klut_po_signatures(klut, simulate_klut_per_pattern(klut, patterns))
        stp_pos = klut_po_signatures(klut, StpSimulator(klut).simulate_all(patterns))
        assert aig_pos == lut_pos == stp_pos

    def test_specified_node_simulation_through_file_roundtrip(self):
        aig = epfl_benchmark("ctrl")
        aig = read_aiger(write_aiger(aig))
        klut, _ = map_aig_to_klut(aig, k=4)
        klut = read_blif(write_blif(klut))
        patterns = PatternSet.random(aig.num_pis, 32, seed=3)
        targets = list(klut.luts())[:4]
        full = simulate_klut_per_pattern(klut, patterns)
        partial = StpSimulator(klut).simulate_nodes(patterns, targets)
        for target in targets:
            assert partial[target] == full.signature(target)


class TestSweepingFlow:
    """Workload -> both sweepers -> verified equivalent, same size (Table II path)."""

    def test_full_sweep_pipeline(self):
        base = epfl_benchmark("ctrl")
        workload, _ = inject_redundancy(
            base, duplication_fraction=0.3, constant_cones=1, near_miss_count=3, seed=42
        )
        baseline, baseline_stats = fraig_sweep(workload, num_patterns=64)
        swept, stp_stats = stp_sweep(workload, num_patterns=64)
        assert check_combinational_equivalence(workload, baseline)
        assert check_combinational_equivalence(workload, swept)
        assert swept.num_ands == baseline.num_ands
        assert swept.num_ands <= workload.num_ands
        assert stp_stats.total_sat_calls > 0

    def test_sweeping_after_aiger_roundtrip(self):
        base = epfl_benchmark("int2float")
        workload, _ = inject_redundancy(base, duplication_fraction=0.2, seed=4)
        reloaded = read_aiger(write_aiger(workload, binary=True))
        swept, _ = stp_sweep(reloaded, num_patterns=32)
        assert check_combinational_equivalence(reloaded, swept)

    def test_swept_network_simulates_identically(self):
        base = epfl_benchmark("priority")
        workload, _ = inject_redundancy(base, duplication_fraction=0.2, seed=5)
        swept, _ = stp_sweep(workload, num_patterns=32)
        patterns = PatternSet.random(workload.num_pis, 64, seed=6)
        assert aig_po_signatures(workload, simulate_aig(workload, patterns)) == aig_po_signatures(
            swept, simulate_aig(swept, patterns)
        )
