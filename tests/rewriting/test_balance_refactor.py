"""Tests for the balancing and refactoring passes."""

import pytest

from repro.circuits.arithmetic import ripple_carry_adder
from repro.circuits.random_logic import random_aig
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import Aig
from repro.rewriting import balance, refactor
from repro.sweeping import check_combinational_equivalence


def _exhaustively_equal(a: Aig, b: Aig) -> bool:
    if a.num_pis != b.num_pis or a.num_pos != b.num_pos:
        return False
    for assignment in range(1 << a.num_pis):
        values = [bool(assignment & (1 << i)) for i in range(a.num_pis)]
        if a.evaluate(values) != b.evaluate(values):
            return False
    return True


def _and_chain(width: int) -> Aig:
    aig = Aig("chain")
    pis = [aig.add_pi() for _ in range(width)]
    literal = pis[0]
    for pi in pis[1:]:
        literal = aig.add_and(literal, pi)
    aig.add_po(literal)
    return aig


class TestBalance:
    def test_chain_becomes_logarithmic(self):
        aig = _and_chain(16)
        result, report = balance(aig)
        assert report.depth_before == 15
        assert report.depth_after == 4
        assert result.num_ands == 15  # same gate count, different shape
        assert _exhaustively_equal(aig, result)

    def test_or_chain_through_complemented_edges(self):
        aig = Aig("orchain")
        pis = [aig.add_pi() for _ in range(8)]
        literal = pis[0]
        for pi in pis[1:]:
            literal = aig.add_or(literal, pi)
        aig.add_po(literal)
        result, _report = balance(aig)
        # An OR chain is an AND chain behind complements; flattening works
        # through the De Morgan shape, so the depth drops to log2.
        assert result.depth() == 3
        assert _exhaustively_equal(aig, result)

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_random_networks_equivalent(self, seed):
        aig = random_aig(num_pis=7, num_gates=90, num_pos=5, seed=seed)
        result, report = balance(aig)
        assert _exhaustively_equal(aig, result)
        assert report.trees_flattened > 0

    def test_multi_fanout_tree_not_duplicated(self):
        aig = Aig()
        a, b, c, d = (aig.add_pi() for _ in range(4))
        shared = aig.add_and(a, b)
        aig.add_po(aig.add_and(shared, c))
        aig.add_po(aig.add_and(shared, d))
        result, _ = balance(aig)
        assert result.num_ands == 3  # the shared AND stays shared
        assert _exhaustively_equal(aig, result)

    def test_structured_circuit(self):
        aig = ripple_carry_adder(width=10)
        result, _ = balance(aig)
        assert check_combinational_equivalence(aig, result)
        assert result.depth() <= aig.depth()


class TestRefactor:
    def test_redundant_cone_collapses(self):
        # Build a deliberately wasteful cone: (a & b) | (a & b & c) == a & b.
        aig = Aig()
        a, b, c = (aig.add_pi() for _ in range(3))
        ab = aig.add_and(a, b)
        abc = aig.add_and(ab, c)
        aig.add_po(aig.add_or(ab, abc))
        result, report = refactor(aig, min_cone=2)
        assert result.num_ands == 1
        assert _exhaustively_equal(aig, result)
        assert report.refactors_applied >= 1

    @pytest.mark.parametrize("seed", [1, 5, 8])
    def test_random_networks_equivalent(self, seed):
        aig = random_aig(num_pis=7, num_gates=90, num_pos=5, seed=seed)
        result, _report = refactor(aig)
        assert _exhaustively_equal(aig, result)

    def test_injected_redundancy_shrinks(self):
        base = random_aig(num_pis=6, num_gates=50, num_pos=4, seed=17)
        workload, _ = inject_redundancy(base, duplication_fraction=0.3, constant_cones=1, seed=18)
        result, report = refactor(workload)
        assert result.num_ands < workload.num_ands
        assert _exhaustively_equal(workload, result)

    def test_leaf_and_cone_bounds_respected(self):
        aig = ripple_carry_adder(width=8)
        result, report = refactor(aig, max_leaves=4, max_cone=8)
        assert _exhaustively_equal(aig, result)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            refactor(ripple_carry_adder(width=2), max_leaves=1)


def _simulates_like(a: Aig, b: Aig) -> bool:
    from repro.simulation import PatternSet, aig_po_signatures, simulate_aig

    patterns = PatternSet.exhaustive(a.num_pis)
    return aig_po_signatures(a, simulate_aig(a, patterns)) == aig_po_signatures(b, simulate_aig(b, patterns))


def test_balance_on_sin():
    from repro.circuits import epfl_benchmark

    aig = epfl_benchmark("sin")
    result, _report = balance(aig)
    assert result.num_ands <= aig.num_ands
    assert result.depth() <= aig.depth()
    assert _simulates_like(aig, result)


def test_refactor_on_sin():
    from repro.circuits import epfl_benchmark

    aig = epfl_benchmark("sin")
    result, _report = refactor(aig)
    assert result.num_ands <= aig.num_ands
    assert _simulates_like(aig, result)
