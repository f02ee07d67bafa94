"""Tests for the combinational equivalence checker."""

from repro.circuits.arithmetic import carry_select_adder, ripple_carry_adder
from repro.networks import Aig
from repro.networks.transforms import rebuild_strashed
from repro.sweeping import check_combinational_equivalence


class TestCec:
    def test_identical_networks(self, small_aig):
        result = check_combinational_equivalence(small_aig, small_aig.clone())
        assert result.equivalent
        assert result.status == "equivalent"
        assert bool(result)

    def test_structurally_different_equivalent_networks(self):
        a = Aig("left")
        x, y, z = a.add_pi("x"), a.add_pi("y"), a.add_pi("z")
        a.add_po(a.add_and(a.add_and(x, y), z))

        b = Aig("right")
        x2, y2, z2 = b.add_pi("x"), b.add_pi("y"), b.add_pi("z")
        b.add_po(b.add_and(x2, b.add_and(y2, z2)))
        assert check_combinational_equivalence(a, b)

    def test_rebuilt_network_is_equivalent(self, ripple_adder_4):
        rebuilt, _ = rebuild_strashed(ripple_adder_4)
        assert check_combinational_equivalence(ripple_adder_4, rebuilt)

    def test_interface_mismatches(self, small_aig):
        other = Aig()
        other.add_pi()
        other.add_po(0)
        result = check_combinational_equivalence(small_aig, other)
        assert not result.equivalent
        assert result.status in ("pi_count_mismatch", "po_count_mismatch")

    def test_simulation_finds_gross_mismatch(self):
        a = Aig()
        x, y = a.add_pi(), a.add_pi()
        a.add_po(a.add_and(x, y))
        b = Aig()
        x2, y2 = b.add_pi(), b.add_pi()
        b.add_po(b.add_or(x2, y2))
        result = check_combinational_equivalence(a, b)
        assert not result.equivalent
        assert result.counterexample is not None
        assert a.evaluate(result.counterexample) != b.evaluate(result.counterexample)

    def test_sat_finds_subtle_mismatch(self):
        """A mismatch on exactly one input assignment escapes random simulation."""
        width = 8
        a = Aig()
        pis_a = [a.add_pi() for _ in range(width)]
        a.add_po(a.add_and_multi(pis_a))
        b = Aig()
        pis_b = [b.add_pi() for _ in range(width)]
        # Constant false: differs from AND only on the all-ones input.
        b.add_po(0)
        result = check_combinational_equivalence(a, b, num_random_patterns=8, seed=1)
        assert not result.equivalent
        assert result.status in ("sat_counterexample", "simulation_mismatch")
        if result.counterexample is not None:
            assert a.evaluate(result.counterexample) != b.evaluate(result.counterexample)

    def test_failing_output_index_reported(self):
        a = Aig()
        x, y = a.add_pi(), a.add_pi()
        a.add_po(a.add_and(x, y), "same")
        a.add_po(a.add_xor(x, y), "differs")
        b = Aig()
        x2, y2 = b.add_pi(), b.add_pi()
        b.add_po(b.add_and(x2, y2), "same")
        b.add_po(b.add_xnor(x2, y2), "differs")
        result = check_combinational_equivalence(a, b)
        assert not result.equivalent
        assert result.failing_output == 1

    def test_internal_equalities_then_a_counterexample_on_one_output(self):
        golden = ripple_carry_adder(width=12)
        revised = carry_select_adder(width=12, block=4)
        # Output 9 now differs only on the all-ones input, which the random
        # screen misses: the miter proves the adders' internal equalities
        # and outputs 0-8, then SAT finds the counterexample.
        wrong = 9
        all_ones = revised.add_and_multi([Aig.literal(pi) for pi in revised.pis])
        revised.set_po(wrong, revised.add_xor(revised.pos[wrong], all_ones))
        result = check_combinational_equivalence(golden, revised)
        assert result.status == "sat_counterexample"
        assert result.failing_output == wrong
        assert result.sat_calls > wrong + 1  # the internal proofs are counted
        assert result.counterexample == (1,) * golden.num_pis
        assert golden.evaluate(result.counterexample) != revised.evaluate(result.counterexample)

    def test_swept_adder_equivalence(self):
        """End-to-end: sweeping an adder workload preserves its function."""
        from repro.circuits.sweep_workloads import inject_redundancy
        from repro.sweeping import stp_sweep

        base = ripple_carry_adder(width=5)
        workload, _ = inject_redundancy(base, duplication_fraction=0.2, seed=21)
        swept, _stats = stp_sweep(workload, num_patterns=32)
        assert check_combinational_equivalence(workload, swept)
        assert check_combinational_equivalence(base, swept)
