"""Sweep statistics: the counters reported in Table II of the paper."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..networks.aig import Aig
from ..networks.transforms import cleanup_dangling

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..sat.circuit import CircuitSolver

__all__ = ["SweepStatistics"]


@dataclass
class SweepStatistics:
    """Counters and timers collected by one sweeper run.

    The fields map one-to-one onto the columns of Table II:

    * ``gates_before`` / ``gates_after`` -- the "Gate" and "Result" columns;
    * ``satisfiable_sat_calls`` -- the "SAT calls" column (satisfiable runs);
    * ``total_sat_calls`` -- the "Total SAT calls" column;
    * ``simulation_time`` -- the "Simulation" column;
    * ``total_time`` -- the "Total runtime" column.

    ``sat_time`` is measured directly around the solver's ``solve`` calls
    (accumulated by :class:`repro.sat.circuit.CircuitSolver`); it is *not*
    derived as ``total - simulation``, so substitution and refinement
    overhead is no longer silently billed to SAT.

    ``gates_after`` is measured *after*
    :func:`repro.networks.transforms.cleanup_dangling` runs on the swept
    network, so it counts live gates only; the number of dangling gates
    the merges left behind is recorded in
    ``extra["dangling_gates_removed"]``.

    The STP sweeper skips a candidate whose every reference sits in gates
    already merged or skipped, since cleanup removes it whatever its
    proof would say; the count is ``extra["dangling_skipped"]``.  Its
    ``merges`` (and so its ``Aig.substitute`` calls) therefore count only
    merges of candidates that were still live when visited.

    The STP sweeper proves equivalences from its exhaustive local truth
    tables wherever both nodes of a pair have one, with no SAT call; the
    count of such proofs, constant candidates of the initial propagation
    included, is ``extra["exhaustive_proofs"]``.  Its
    ``unsatisfiable_sat_calls`` therefore no longer include the pairs the
    tables prove: they count only the equivalences SAT itself proved.
    It builds a node's table only when a verdict, a key, the solver or
    the constant pass asks for it (with the part of its cone not built
    yet); the number of gate tables built is ``extra["tables_built"]``.
    ``simulation_disproofs`` counts every class member the keys drop
    from a driver list, whether or not it would have been a legal merge.
    """

    name: str = ""
    num_pis: int = 0
    num_pos: int = 0
    depth: int = 0
    gates_before: int = 0
    gates_after: int = 0
    total_sat_calls: int = 0
    satisfiable_sat_calls: int = 0
    unsatisfiable_sat_calls: int = 0
    undetermined_sat_calls: int = 0
    merges: int = 0
    constant_merges: int = 0
    simulation_disproofs: int = 0
    counterexamples_simulated: int = 0
    initial_classes: int = 0
    initial_candidate_nodes: int = 0
    patterns_used: int = 0
    simulation_time: float = 0.0
    sat_time: float = 0.0
    total_time: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)
    #: CDCL-core counters aggregated across all solver windows of the run
    #: (``SolverStatistics.as_dict()`` plus ``windows_opened`` /
    #: ``window_reuses``), surfaced through ``FlowStatistics`` and the
    #: service ``/metrics`` endpoint.
    solver_statistics: dict[str, int] = field(default_factory=dict)

    @property
    def gate_reduction(self) -> float:
        """Fraction of gates removed by the sweep."""
        if self.gates_before == 0:
            return 0.0
        return 1.0 - self.gates_after / self.gates_before

    def finalize(self, aig: Aig, solver: "CircuitSolver", start_time: float, cleanup: bool = True) -> Aig:
        """Shared tail of both sweepers' ``run``: cleanup, counters, timers.

        Removes the dangling cones the merges left behind (recording how
        many gates that dropped), copies the solver's query counters and
        directly-measured solve time, and stamps the total runtime.
        Returns the cleaned network.  With ``cleanup=False`` (the
        choice-recording sweep, which never substitutes and must keep
        the subject graph bit-identical) the network is returned
        untouched.
        """
        if cleanup:
            swept, _literal_map = cleanup_dangling(aig)
        else:
            swept = aig
        self.gates_after = swept.num_ands
        self.extra["dangling_gates_removed"] = float(aig.num_ands - swept.num_ands)
        self.total_sat_calls = solver.num_queries
        self.satisfiable_sat_calls = solver.num_satisfiable
        self.unsatisfiable_sat_calls = solver.num_unsatisfiable
        self.undetermined_sat_calls = solver.num_undetermined
        self.total_time = time.perf_counter() - start_time
        self.sat_time = solver.sat_time
        self.solver_statistics = dict(solver.solver_statistics().as_dict())
        self.solver_statistics["windows_opened"] = solver.windows_opened
        self.solver_statistics["window_reuses"] = solver.window_reuses
        self.extra["window_reuse_rate"] = solver.window_reuse_rate
        return swept

    def __str__(self) -> str:
        skipped = self.extra.get("dangling_skipped")
        proofs = self.extra.get("exhaustive_proofs")
        tables = self.extra.get("tables_built")
        return (
            f"{self.name or 'sweep'}: gates {self.gates_before} -> {self.gates_after} "
            f"({100 * self.gate_reduction:.1f}% reduction), "
            f"SAT calls {self.total_sat_calls} ({self.satisfiable_sat_calls} SAT / "
            f"{self.unsatisfiable_sat_calls} UNSAT / {self.undetermined_sat_calls} undet), "
            f"merges {self.merges} (+{self.constant_merges} const), "
            f"sim disproofs {self.simulation_disproofs}, "
            + (f"exhaustive proofs {int(proofs)}, " if proofs is not None else "")
            + (f"tables built {int(tables)}, " if tables is not None else "")
            + (f"dangling skipped {int(skipped)}, " if skipped is not None else "")
            + f"sim {self.simulation_time:.3f}s, total {self.total_time:.3f}s"
        )
