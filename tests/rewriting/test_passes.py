"""Tests for the optimization pass pipeline (scripts + PassManager)."""

import pytest

from repro.circuits.arithmetic import ripple_carry_adder
from repro.circuits.random_logic import random_aig
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import KLutNetwork, map_aig_to_klut
from repro.rewriting import (
    NAMED_SCRIPTS,
    PASS_KINDS,
    PASS_NAMES,
    FlowStatistics,
    PassManager,
    optimize,
    parse_script,
    validate_script,
)
from repro.sweeping import fraig_sweep


def _workload(seed: int, num_gates: int = 60):
    base = random_aig(num_pis=6, num_gates=num_gates, num_pos=5, seed=seed)
    workload, _ = inject_redundancy(
        base, duplication_fraction=0.25, constant_cones=1, seed=seed + 1
    )
    return workload


class TestParseScript:
    def test_semicolon_split(self):
        assert parse_script("rw; fraig; rw; fraig") == ["rw", "fraig", "rw", "fraig"]

    def test_aliases(self):
        assert parse_script("rewrite; balance; refactor; constprop") == ["rw", "b", "rf", "cp"]

    def test_named_scripts_expand(self):
        assert parse_script("resyn") == ["b", "rw", "rwz", "b", "rwz", "b"]
        assert parse_script("resyn2") == ["b", "rw", "rf", "b", "rw", "rwz", "b", "rfz", "rwz", "b"]
        assert parse_script("rwsweep") == ["rw", "fraig", "rw", "fraig"]

    def test_sequence_input(self):
        assert parse_script(["rw", "fraig"]) == ["rw", "fraig"]

    def test_case_and_whitespace(self):
        assert parse_script("  RW ;\n B ") == ["rw", "b"]

    def test_commas(self):
        assert parse_script("rw, b") == ["rw", "b"]

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown pass"):
            parse_script("rw; frobnicate")

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_script(" ; ; ")

    def test_every_registered_pass_parses(self):
        assert parse_script("; ".join(PASS_NAMES)) == list(PASS_NAMES)

    def test_every_named_script_parses(self):
        for name in NAMED_SCRIPTS:
            assert parse_script(name)

    def test_maplut_script_expands(self):
        assert parse_script("maplut") == ["map", "lutmffc", "cleanup"]

    def test_lutresyn_alias(self):
        assert parse_script("map; lutresyn") == ["map", "lutmffc"]


class TestValidateScript:
    def test_every_pass_has_a_kind(self):
        # ppart is the one pass outside PASS_NAMES: it never appears
        # bare, only with parenthesized arguments (``ppart(rw, jobs=2)``).
        assert set(PASS_KINDS) == set(PASS_NAMES) | {"ppart"}

    def test_aig_script_stays_aig(self):
        assert validate_script(parse_script("resyn2")) == "aig"

    def test_map_switches_kind(self):
        assert validate_script(parse_script("rw; map; lutmffc; cleanup")) == "klut"

    def test_klut_pass_before_map_rejected(self):
        with pytest.raises(ValueError, match="run 'map' first"):
            validate_script(parse_script("lutmffc"), "aig")

    def test_aig_pass_after_map_rejected(self):
        with pytest.raises(ValueError, match="expects a aig network"):
            validate_script(parse_script("map; rw"))

    def test_klut_only_script_valid_from_klut(self):
        assert validate_script(parse_script("lutmffc; cleanup"), "klut") == "klut"

    def test_manager_accepts_klut_only_script(self):
        # Construction succeeds (valid from a klut start); running it on
        # an AIG fails the kind check with a clear message.
        manager = PassManager("lutmffc; cleanup")
        from repro.circuits.arithmetic import ripple_carry_adder

        with pytest.raises(ValueError, match="run 'map' first"):
            manager.run(ripple_carry_adder(width=2))

    def test_manager_rejects_unsatisfiable_script(self):
        with pytest.raises(ValueError, match="expects a aig network"):
            PassManager("map; rw")


class TestPassManager:
    def test_per_pass_statistics_recorded(self):
        aig = ripple_carry_adder(width=6)
        manager = PassManager("b; rw; cleanup")
        result, flow = manager.run(aig)
        assert [stats.name for stats in flow.passes] == ["b", "rw", "cleanup"]
        assert flow.gates_before == aig.num_ands
        assert flow.gates_after == result.num_ands
        # Pass boundaries chain: each pass starts where the previous ended.
        for previous, current in zip(flow.passes, flow.passes[1:]):
            assert current.gates_before == previous.gates_after
        assert flow.passes[1].details["rewrites_applied"] >= 1
        assert all(stats.total_time >= 0.0 for stats in flow.passes)

    def test_final_verification(self):
        aig = _workload(31)
        _result, flow = optimize(aig, "rw; fraig", verify=True, num_patterns=32)
        assert flow.verified is True

    def test_verify_each(self):
        aig = _workload(32, num_gates=40)
        manager = PassManager("b; rw", verify_each=True)
        _result, flow = manager.run(aig)
        assert all(stats.verified is True for stats in flow.passes)

    def test_constant_prop_pass(self):
        aig = _workload(33)
        result, flow = optimize(aig, "cp", verify=True, num_patterns=32)
        assert flow.verified is True
        assert result.num_ands <= aig.num_ands

    def test_stp_sweeper_pass(self):
        aig = _workload(34, num_gates=40)
        result, flow = optimize(aig, "stp", verify=True, num_patterns=32)
        assert flow.verified is True
        assert result.num_ands < aig.num_ands

    def test_flow_statistics_render(self):
        aig = ripple_carry_adder(width=4)
        _result, flow = optimize(aig, "rw; b", verify=True)
        text = str(flow)
        assert "rw" in text and "b" in text
        assert "equivalence vs input: ok" in text
        assert isinstance(flow, FlowStatistics)

    def test_script_property_preserved(self):
        manager = PassManager(["rw", "fraig"])
        assert manager.script == "rw; fraig"

    def test_klut_only_script_on_mapped_network(self):
        aig = _workload(36, num_gates=50)
        network, _ = map_aig_to_klut(aig, k=4)
        result, flow = PassManager("lutmffc; cleanup", lut_size=4).run(network, verify=True)
        assert isinstance(result, KLutNetwork)
        assert flow.verified is True
        assert flow.kind_before == "klut" and flow.kind_after == "klut"
        assert result.num_luts <= network.num_luts

    def test_mixed_flow_statistics_chain_across_kinds(self):
        aig = _workload(37, num_gates=50)
        result, flow = optimize(aig, "rw; map; lutmffc", verify=True, lut_size=4)
        assert isinstance(result, KLutNetwork)
        assert flow.verified is True
        # Pass boundaries chain even across the representation switch.
        for previous, current in zip(flow.passes, flow.passes[1:]):
            assert current.gates_before == previous.gates_after
        assert [s.kind for s in flow.passes] == ["aig", "klut", "klut"]


class TestFlowQuality:
    """The acceptance property: rewriting before sweeping beats sweeping alone."""

    def test_rw_fraig_beats_fraig_only_on_adder(self):
        # The bundled EPFL/arithmetic profile: fraig alone finds nothing to
        # merge in a ripple-carry adder, rewriting restructures it.
        aig = ripple_carry_adder(width=16)
        fraig_only, _stats = fraig_sweep(aig, num_patterns=32)
        flowed, flow = optimize(aig, "rw; fraig", verify=True, num_patterns=32)
        assert flow.verified is True
        assert flowed.num_ands < fraig_only.num_ands

    def test_rw_fraig_beats_fraig_only_on_redundant_workload(self):
        aig = _workload(35)
        fraig_only, _stats = fraig_sweep(aig, num_patterns=32)
        flowed, flow = optimize(aig, "rw; fraig; rw; fraig", verify=True, num_patterns=32)
        assert flow.verified is True
        assert flowed.num_ands <= fraig_only.num_ands

    def test_resyn_reduces_arithmetic(self):
        aig = ripple_carry_adder(width=12)
        for script in ("resyn", "resyn2"):
            result, flow = optimize(aig, script, verify=True)
            assert flow.verified is True, script
            assert result.num_ands < aig.num_ands, script


@pytest.mark.parametrize("name", ["adder", "sin", "max"])
def test_rw_fraig_beats_fraig_only_on_epfl(name):
    """``rw; fraig`` ends on fewer gates than ``fraig`` alone on EPFL profiles."""
    from repro.circuits import epfl_benchmark
    from repro.sweeping import check_combinational_equivalence

    aig = epfl_benchmark(name)
    fraig_only, _stats = fraig_sweep(aig, num_patterns=32)
    flowed, _flow = PassManager("rw; fraig", num_patterns=32).run(aig)
    assert flowed.num_ands < fraig_only.num_ands
    assert check_combinational_equivalence(aig, flowed, num_random_patterns=256)


def test_resyn2_on_the_adder_profile():
    from repro.circuits import epfl_benchmark

    aig = epfl_benchmark("adder")
    result, flow = optimize(aig, "resyn2", verify=True)
    assert flow.verified is True
    assert result.num_ands < aig.num_ands
