"""Wall-clock budgets terminate real flows promptly.

The acceptance bound is "deadline plus one pass-checkpoint interval":
the flow may finish the pass it was inside when the deadline hit, but
must not start another one.  We allow generous slack for the current
pass to drain on a loaded CI machine.
"""

import time

from repro.circuits.epfl import epfl_benchmark
from repro.resilience import Budget, simulation_equivalent
from repro.rewriting.passes import PassManager


def test_budgeted_epfl_run_terminates_near_deadline():
    aig = epfl_benchmark("bar")
    deadline = 1.0
    # Ten resyn2 rounds take several seconds unbudgeted; three rounds
    # now finish in little more than the deadline, so a fast machine
    # could complete them before the budget ran out.
    manager = PassManager("; ".join(["resyn2"] * 10), num_patterns=32, on_error="rollback")
    started = time.perf_counter()
    result, flow = manager.run(aig, budget=Budget(wall_clock=deadline))
    elapsed = time.perf_counter() - started
    # resyn2 x10 on `bar` takes far longer than 1s unbudgeted, so the
    # budget must have cut the flow short...
    assert flow.budget_exhausted
    assert any(stats.status == "failed" for stats in flow.passes)
    assert any(stats.status == "skipped" for stats in flow.passes)
    # ...within the deadline plus the checkpoint interval (one pass tail;
    # generous slack for slow machines).
    assert elapsed < deadline + 20.0
    # The committed prefix is still a correct network.
    assert result.num_pis == aig.num_pis
    assert simulation_equivalent(aig, result, num_patterns=64)


def test_unbudgeted_run_unaffected_by_budget_plumbing():
    aig = epfl_benchmark("bar")
    result, flow = PassManager("rw; b", num_patterns=32).run(aig, budget=None)
    assert all(stats.status == "ok" for stats in flow.passes)
    assert result.num_gates <= aig.num_gates
