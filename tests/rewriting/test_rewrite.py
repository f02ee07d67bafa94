"""Tests for the DAG-aware cut rewriting pass."""

import pytest

from repro.circuits.arithmetic import ripple_carry_adder
from repro.circuits.random_logic import random_aig
from repro.networks import Aig
from repro.networks.transforms import cleanup_dangling
from repro.rewriting import RewriteLibrary, rewrite
from repro.sweeping import check_combinational_equivalence


def _exhaustively_equal(a: Aig, b: Aig) -> bool:
    if a.num_pis != b.num_pis or a.num_pos != b.num_pos:
        return False
    for assignment in range(1 << a.num_pis):
        values = [bool(assignment & (1 << i)) for i in range(a.num_pis)]
        if a.evaluate(values) != b.evaluate(values):
            return False
    return True


class TestRewriteCorrectness:
    def test_adder_reduces_and_stays_equivalent(self):
        aig = ripple_carry_adder(width=6)
        result, report = rewrite(aig)
        assert result.num_ands < aig.num_ands
        assert _exhaustively_equal(aig, result)
        assert report.rewrites_applied > 0
        assert report.gates_after == result.num_ands

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_logic_equivalent(self, seed):
        aig = random_aig(num_pis=6, num_gates=80, num_pos=5, seed=seed)
        result, _report = rewrite(aig)
        assert _exhaustively_equal(aig, result)

    def test_never_grows_a_clean_network(self):
        for seed in (5, 6, 7):
            aig, _ = cleanup_dangling(random_aig(num_pis=7, num_gates=90, num_pos=5, seed=seed))
            result, report = rewrite(aig)
            assert result.num_ands <= aig.num_ands
            # On a dangling-free input the accumulated gain is a lower
            # bound on the reduction (the final cleanup rebuild can merge
            # gates that became structurally identical, freeing more).
            assert report.gates_after <= report.gates_before - report.estimated_gain

    def test_zero_gain_still_equivalent(self):
        aig = random_aig(num_pis=6, num_gates=70, num_pos=4, seed=9)
        result, report = rewrite(aig, zero_gain=True)
        assert _exhaustively_equal(aig, result)
        assert result.num_ands <= aig.num_ands
        assert report.zero_gain_applied >= 0

    def test_second_pass_converges(self):
        aig = ripple_carry_adder(width=8)
        once, _ = rewrite(aig)
        twice, report = rewrite(once)
        assert twice.num_ands <= once.num_ands
        assert _exhaustively_equal(once, twice)
        # The second pass finds little: the first pass already rewrote.
        assert once.num_ands - twice.num_ands <= once.num_ands // 5

    def test_interface_preserved(self):
        aig = ripple_carry_adder(width=5, name="keeps_names")
        result, _ = rewrite(aig)
        assert result.num_pis == aig.num_pis
        assert result.num_pos == aig.num_pos
        assert result.pi_names == aig.pi_names
        assert result.po_names == aig.po_names

    def test_shared_library_instance(self):
        library = RewriteLibrary()
        aig = ripple_carry_adder(width=4)
        result, _ = rewrite(aig, library=library)
        assert _exhaustively_equal(aig, result)
        assert library.num_cached_classes > 0

    def test_invalid_parameters(self):
        aig = ripple_carry_adder(width=3)
        with pytest.raises(ValueError):
            rewrite(aig, cut_size=1)
        with pytest.raises(ValueError):
            rewrite(aig, cut_size=5)  # exceeds the default library arity


class TestRewriteOnMutatedNetworks:
    def test_network_with_dangling_nodes(self):
        # random_aig leaves unreachable gates; rewrite must survive them
        # and the cleanup must drop them.
        aig = random_aig(num_pis=6, num_gates=60, num_pos=3, seed=21)
        clean, _ = cleanup_dangling(aig)
        result, _report = rewrite(aig)
        assert _exhaustively_equal(clean, result)
        assert result.num_ands <= clean.num_ands

    def test_rewrite_after_substitution(self):
        aig = ripple_carry_adder(width=6)
        # Emulate a sweeping merge first: substitute one gate by an
        # equivalent literal, leaving a dangling cone behind.
        order = aig.topological_order()
        victim = order[len(order) // 2]
        fanin0, _ = aig.fanins(victim)
        reference = aig.clone()
        result, _ = rewrite(aig)
        assert _exhaustively_equal(reference, result)

    def test_cec_on_larger_network(self):
        aig = random_aig(num_pis=12, num_gates=300, num_pos=8, seed=33)
        result, _ = rewrite(aig)
        assert check_combinational_equivalence(aig, result)


@pytest.mark.parametrize("name", ["adder", "sin"])
def test_rewrite_pass_on_epfl(name):
    from repro.circuits import epfl_benchmark

    aig = epfl_benchmark(name)
    result, report = rewrite(aig)
    assert result.num_ands < aig.num_ands
    assert report.rewrites_applied > 0
    assert check_combinational_equivalence(aig, result)
