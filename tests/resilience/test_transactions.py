"""Transactional pass execution: rollback, skipping, verification gates."""

import json

import pytest

from repro.circuits.random_logic import random_aig
from repro.networks import Aig
from repro.resilience import (
    Budget,
    BudgetExceeded,
    FaultInjector,
    InjectedFault,
    VerificationFailed,
    simulation_equivalent,
)
from repro.rewriting.passes import PassManager


def _workload(seed: int = 3) -> Aig:
    return random_aig(num_pis=6, num_gates=40, num_pos=4, seed=seed)


class BrokenRewrite(PassManager):
    """A PassManager whose ``rw`` pass returns a wrong network."""

    def _rewrite(self, network, zero_gain):
        broken = network.clone()
        # Complement the first PO: always simulation-inequivalent.
        broken.set_po(0, broken.pos[0] ^ 1)
        return broken, {}


class RaisingRewrite(PassManager):
    """A PassManager whose ``rw`` pass raises an arbitrary error."""

    def _rewrite(self, network, zero_gain):
        raise RuntimeError("boom")


def test_on_error_rollback_continues_and_records_failure():
    aig = _workload()
    manager = RaisingRewrite("rw; b; rf", on_error="rollback")
    result, flow = manager.run(aig, verify=True)
    statuses = [(stats.name, stats.status) for stats in flow.passes]
    assert statuses == [("rw", "failed"), ("b", "ok"), ("rf", "ok")]
    assert flow.passes[0].failure == "RuntimeError: boom"
    assert flow.failed_passes and flow.failed_passes[0].name == "rw"
    assert flow.verified is True
    assert simulation_equivalent(aig, result)


def test_on_error_raise_propagates_the_error():
    manager = RaisingRewrite("rw; b", on_error="raise")
    with pytest.raises(RuntimeError, match="boom"):
        manager.run(_workload())


def test_invalid_on_error_rejected_at_construction():
    with pytest.raises(ValueError):
        PassManager("rw", on_error="ignore")


class FailingMap(PassManager):
    """A PassManager whose ``map`` pass raises."""

    def _map(self, network, budget):
        raise RuntimeError("mapper down")


def test_kind_gate_skips_lut_passes_after_rolled_back_map():
    aig = _workload()
    manager = FailingMap("rw; map; lutmffc; cleanup", on_error="rollback")
    result, flow = manager.run(aig, verify=True)
    by_name = {stats.name: stats for stats in flow.passes}
    assert by_name["map"].status == "failed"
    # lutmffc needs a k-LUT network; the rolled-back map left an AIG.
    assert by_name["lutmffc"].status == "skipped"
    assert "rolled back" in by_name["lutmffc"].failure
    # cleanup is kind-generic and still runs.
    assert by_name["cleanup"].status == "ok"
    assert isinstance(result, Aig)
    assert flow.verified is True


def test_verify_commit_rolls_back_wrong_result():
    aig = _workload()
    manager = BrokenRewrite("rw; b", verify_commit=True, on_error="rollback")
    result, flow = manager.run(aig, verify=True)
    assert flow.passes[0].status == "failed"
    assert flow.passes[0].failure.startswith("verification:")
    assert flow.passes[0].verify_status == "fail"
    assert flow.passes[1].status == "ok"
    assert flow.verified is True
    assert simulation_equivalent(aig, result)


def test_verify_commit_raises_under_raise_policy():
    manager = BrokenRewrite("rw", verify_commit=True, on_error="raise")
    with pytest.raises(VerificationFailed):
        manager.run(_workload())


def test_verify_commit_accepts_correct_passes():
    aig = _workload()
    plain, _ = PassManager("resyn2").run(aig)
    gated, flow = PassManager("resyn2", verify_commit=True, on_error="rollback").run(aig)
    assert all(stats.status == "ok" for stats in flow.passes)
    assert gated.num_gates == plain.num_gates


def test_generous_budget_run_is_identical_to_unbudgeted():
    aig = _workload()
    for script in ("resyn2", "choice; map"):
        plain, _ = PassManager(script).run(aig)
        budget = Budget(wall_clock=300.0, conflicts=10**8, mutations=10**8)
        budgeted, flow = PassManager(script).run(aig, budget=budget)
        assert all(stats.status == "ok" for stats in flow.passes), script
        assert budgeted.num_gates == plain.num_gates, script
        assert budgeted.depth() == plain.depth(), script


def test_expired_flow_budget_skips_remaining_passes():
    aig = _workload()
    budget = Budget(wall_clock=0.0)
    result, flow = PassManager("rw; b; rf", on_error="rollback").run(aig, budget=budget)
    assert flow.budget_exhausted
    assert flow.passes[0].status == "failed"
    assert all(stats.status == "skipped" for stats in flow.passes[1:])
    assert simulation_equivalent(aig, result)


def test_expired_flow_budget_raises_under_raise_policy():
    with pytest.raises(BudgetExceeded):
        PassManager("rw; b").run(_workload(), budget=Budget(wall_clock=0.0))


def test_injected_fault_is_absorbed_by_rollback():
    aig = _workload()
    injector = FaultInjector(raise_at=1)
    with injector.inject():
        result, flow = PassManager("rw; b", on_error="rollback").run(aig)
    assert injector.fired
    assert flow.passes[0].status == "failed"
    assert flow.passes[0].failure.startswith("InjectedFault:")
    assert simulation_equivalent(aig, result)


def test_injected_fault_propagates_under_raise_policy():
    injector = FaultInjector(raise_at=1)
    with injector.inject():
        with pytest.raises(InjectedFault):
            PassManager("rw; b", on_error="raise").run(_workload())


def test_flow_statistics_json_round_trip():
    aig = _workload()
    manager = RaisingRewrite("rw; b", on_error="rollback")
    result, flow = manager.run(aig, verify=True)
    payload = json.loads(json.dumps(flow.as_dict()))
    assert payload["script"] == "rw; b"
    assert payload["verify_status"] == "ok"
    assert payload["budget_exhausted"] is False
    rw, b = payload["passes"]
    assert rw["status"] == "failed"
    assert rw["failure"] == "RuntimeError: boom"
    assert rw["total_time"] >= 0.0
    assert b["status"] == "ok"
    assert b["failure"] is None
    assert b["kind"] == "aig"


def test_pass_timeout_uses_sub_budget_and_flow_continues():
    aig = _workload()
    manager = PassManager("rw; b", pass_timeout=0.0, on_error="rollback")
    result, flow = manager.run(aig)
    # Every pass fails its own (instantly expired) deadline...
    assert all(stats.status == "failed" for stats in flow.passes)
    assert all("budget:" in stats.failure for stats in flow.passes)
    # ...but the flow itself has no deadline, so nothing is skipped.
    assert not flow.budget_exhausted
    assert simulation_equivalent(aig, result)
