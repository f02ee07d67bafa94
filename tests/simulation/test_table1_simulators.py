"""Table I's four simulators on a subset of the EPFL profiles, each against a reference.

Table I times four kernels per circuit: word-parallel AIG simulation and
the STP simulator on the 2-LUT view (``TA``), per-pattern 6-LUT
simulation and the STP simulator on the 6-LUT map (``TL``).  perfbench's
``simulate_epfl`` times them; here each column must compute what the
others compute, at the 256 patterns (seed 1) of the timed runs.
"""

import pytest

from repro.circuits import epfl_benchmark
from repro.networks import map_aig_to_klut
from repro.simulation import (
    PatternSet,
    StpSimulator,
    aig_po_signatures,
    klut_po_signatures,
    simulate_aig,
    simulate_klut_per_pattern,
)

#: Arithmetic and control profiles; every fourth of their patterns is also
#: evaluated one at a time by ``Aig.evaluate``.
TABLE1_SUBSET = ["adder", "bar", "sin", "priority", "i2c", "voter"]


@pytest.fixture(scope="module")
def table1_networks():
    """AIG, 6-LUT map, 2-LUT map and the shared pattern set of each profile."""
    networks = {}
    for name in TABLE1_SUBSET:
        aig = epfl_benchmark(name)
        networks[name] = (
            aig,
            map_aig_to_klut(aig, k=6)[0],
            map_aig_to_klut(aig, k=2)[0],
            PatternSet.random(aig.num_pis, 256, seed=1),
        )
    return networks


def _evaluated_po_bits(aig, patterns, pattern_indices):
    return {index: aig.evaluate(patterns.pattern(index)) for index in pattern_indices}


@pytest.mark.parametrize("name", TABLE1_SUBSET)
def test_table1_ta_baseline_aig_bitparallel(table1_networks, name):
    aig, _klut, _klut2, patterns = table1_networks[name]
    outputs = aig_po_signatures(aig, simulate_aig(aig, patterns))
    assert len(outputs) == aig.num_pos
    for index, bits in _evaluated_po_bits(aig, patterns, range(0, 256, 4)).items():
        assert [bool(signature >> index & 1) for signature in outputs] == bits, index


@pytest.mark.parametrize("name", TABLE1_SUBSET)
def test_table1_ta_stp_simulator(table1_networks, name):
    aig, _klut, klut2, patterns = table1_networks[name]
    assert max(len(klut2.lut_fanins(node)) for node in klut2.luts()) <= 2
    stp = StpSimulator(klut2).simulate_all(patterns)
    assert klut_po_signatures(klut2, stp) == aig_po_signatures(aig, simulate_aig(aig, patterns))


@pytest.mark.parametrize("name", TABLE1_SUBSET)
def test_table1_tl_baseline_per_pattern(table1_networks, name):
    aig, klut, _klut2, patterns = table1_networks[name]
    per_pattern = simulate_klut_per_pattern(klut, patterns)
    outputs = klut_po_signatures(klut, per_pattern)
    for index, bits in _evaluated_po_bits(aig, patterns, range(1, 256, 4)).items():
        assert [bool(signature >> index & 1) for signature in outputs] == bits, index


@pytest.mark.parametrize("name", TABLE1_SUBSET)
def test_table1_tl_stp_simulator(table1_networks, name):
    aig, klut, _klut2, patterns = table1_networks[name]
    assert max(len(klut.lut_fanins(node)) for node in klut.luts()) > 2
    stp = StpSimulator(klut).simulate_all(patterns)
    assert stp.signatures == simulate_klut_per_pattern(klut, patterns).signatures
    assert klut_po_signatures(klut, stp) == aig_po_signatures(aig, simulate_aig(aig, patterns))


@pytest.mark.parametrize("limit", [2, 4, 8, 12])
def test_cut_limit_sweep(table1_networks, limit):
    """Algorithm 1's leaf limit changes the cuts of mode 's', never its signatures."""
    _aig, klut, _klut2, _patterns = table1_networks["sin"]
    patterns = PatternSet.random(klut.num_pis, 256, seed=5)
    targets = list(klut.luts())[::4]
    simulator = StpSimulator(klut)
    full = simulator.simulate_all(patterns)
    partial = simulator.simulate_nodes(patterns, targets, limit)
    assert set(targets) <= partial.signatures.keys()
    for node, signature in partial.signatures.items():
        assert signature == full.signature(node), node
