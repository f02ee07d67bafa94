"""Regeneration of Table II: the baseline FRAIG sweeper vs the STP sweeper.

For every workload the harness runs both sweepers on the *same* input
network, verifies each result against the original with the combinational
equivalence checker, and reports the Table II columns: network statistics,
satisfiable SAT calls, total SAT calls, simulation runtime and total
runtime for both engines, plus the per-row runtime ratio ``x`` and the
geometric-mean summary ("Imp.") rows.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from ..circuits.sweep_workloads import SWEEP_WORKLOADS, sweep_workload
from ..networks.aig import Aig
from ..rewriting.passes import PassManager
from ..sweeping.cec import check_combinational_equivalence
from ..sweeping.fraig import FraigSweeper
from ..sweeping.stats import SweepStatistics
from ..sweeping.stp_sweeper import StpSweeper
from .reporting import format_table, geometric_mean

__all__ = ["Table2Row", "run_table2", "format_table2", "option_error", "main"]

#: Smallest accepted value of each numeric sweep option, shared with ``repro sweep``.
SWEEP_OPTION_MINIMUMS = {"patterns": 0, "tfi_limit": 1, "window_leaves": 0}


def option_error(arguments: argparse.Namespace, minimums: dict[str, int]) -> str | None:
    """One-line message for the first option below its minimum, else ``None``."""
    for name, minimum in minimums.items():
        value = getattr(arguments, name)
        if value < minimum:
            return f"--{name.replace('_', '-')} must be >= {minimum}, got {value}"
    return None


@dataclass
class Table2Row:
    """One workload row of Table II."""

    benchmark: str
    baseline: SweepStatistics
    stp: SweepStatistics
    baseline_verified: bool
    stp_verified: bool

    @property
    def runtime_ratio(self) -> float:
        """Total-runtime ratio STP / baseline (the "x" column)."""
        if self.baseline.total_time <= 0:
            return 0.0
        return self.stp.total_time / self.baseline.total_time


def run_table2(
    workloads: list[str] | None = None,
    num_patterns: int = 64,
    conflict_limit: int | None = 10_000,
    tfi_limit: int = 1000,
    window_leaves: int = 16,
    verify: bool = True,
    seed: int = 1,
    pre_script: str | None = None,
) -> list[Table2Row]:
    """Run both sweepers on every requested workload.

    ``pre_script`` optionally pre-optimizes every workload with a
    rewriting script (e.g. ``"rw"`` or ``"resyn2"``) before the two
    sweepers run on it -- the way real flows feed ``resyn2``-optimized
    networks into fraiging.  Both engines then sweep the *same*
    pre-optimized network, so the comparison stays apples-to-apples.
    """
    names = workloads if workloads is not None else list(SWEEP_WORKLOADS)
    rows: list[Table2Row] = []
    for name in names:
        network = sweep_workload(name)
        rows.append(
            run_single_comparison(
                network,
                num_patterns=num_patterns,
                conflict_limit=conflict_limit,
                tfi_limit=tfi_limit,
                window_leaves=window_leaves,
                verify=verify,
                seed=seed,
                pre_script=pre_script,
            )
        )
    return rows


def run_single_comparison(
    network: Aig,
    num_patterns: int = 64,
    conflict_limit: int | None = 10_000,
    tfi_limit: int = 1000,
    window_leaves: int = 16,
    verify: bool = True,
    seed: int = 1,
    pre_script: str | None = None,
) -> Table2Row:
    """Run the baseline and the STP sweeper on one network.

    With ``pre_script`` the network is first optimized by the rewriting
    pipeline (and, when ``verify`` is set, the pre-pass output is
    CEC-checked against the original before any sweeping happens).
    """
    if pre_script:
        original = network
        manager = PassManager(
            pre_script,
            seed=seed,
            num_patterns=num_patterns,
            conflict_limit=conflict_limit,
        )
        network, _flow = manager.run(network, verify=False)
        network.name = original.name
        if verify and not check_combinational_equivalence(original, network):
            raise RuntimeError(
                f"pre-pass script {pre_script!r} broke equivalence on {original.name}"
            )
    baseline_engine = FraigSweeper(
        network,
        num_patterns=num_patterns,
        seed=seed,
        conflict_limit=conflict_limit,
    )
    baseline_result, baseline_stats = baseline_engine.run()

    stp_engine = StpSweeper(
        network,
        num_patterns=num_patterns,
        seed=seed,
        conflict_limit=conflict_limit,
        tfi_limit=tfi_limit,
        window_leaves=window_leaves,
    )
    stp_result, stp_stats = stp_engine.run()

    baseline_verified = True
    stp_verified = True
    if verify:
        baseline_verified = bool(check_combinational_equivalence(network, baseline_result))
        stp_verified = bool(check_combinational_equivalence(network, stp_result))
    return Table2Row(
        benchmark=network.name,
        baseline=baseline_stats,
        stp=stp_stats,
        baseline_verified=baseline_verified,
        stp_verified=stp_verified,
    )


def format_table2(rows: list[Table2Row]) -> str:
    """Render the rows in the layout of Table II (plus geometric-mean summary)."""
    headers = [
        "Benchmark",
        "PI/PO",
        "Lev",
        "Gate",
        "Result",
        "SAT &fraig",
        "SAT STP",
        "Total &fraig",
        "Total STP",
        "Sim &fraig(s)",
        "Sim STP(s)",
        "Time &fraig(s)",
        "Time STP(s)",
        "x",
        "CEC",
    ]
    body = []
    for row in rows:
        body.append(
            [
                row.benchmark,
                f"{row.baseline.num_pis}/{row.baseline.num_pos}",
                row.baseline.depth,
                row.baseline.gates_before,
                row.stp.gates_after,
                row.baseline.satisfiable_sat_calls,
                row.stp.satisfiable_sat_calls,
                row.baseline.total_sat_calls,
                row.stp.total_sat_calls,
                row.baseline.simulation_time,
                row.stp.simulation_time,
                row.baseline.total_time,
                row.stp.total_time,
                row.runtime_ratio,
                "ok" if (row.baseline_verified and row.stp_verified) else "FAIL",
            ]
        )
    geo = [
        "Geo.",
        "",
        "",
        geometric_mean([r.baseline.gates_before for r in rows]),
        geometric_mean([r.stp.gates_after for r in rows]),
        geometric_mean([r.baseline.satisfiable_sat_calls or 1 for r in rows]),
        geometric_mean([r.stp.satisfiable_sat_calls or 1 for r in rows]),
        geometric_mean([r.baseline.total_sat_calls or 1 for r in rows]),
        geometric_mean([r.stp.total_sat_calls or 1 for r in rows]),
        geometric_mean([r.baseline.simulation_time for r in rows]),
        geometric_mean([r.stp.simulation_time for r in rows]),
        geometric_mean([r.baseline.total_time for r in rows]),
        geometric_mean([r.stp.total_time for r in rows]),
        geometric_mean([r.runtime_ratio for r in rows]),
        "",
    ]
    body.append(geo)
    table = format_table(headers, body, title="Table II -- SAT sweeper comparison (&fraig baseline vs STP)")

    sat_ratio = _ratio(
        [r.stp.satisfiable_sat_calls for r in rows], [r.baseline.satisfiable_sat_calls for r in rows]
    )
    total_ratio = _ratio([r.stp.total_sat_calls for r in rows], [r.baseline.total_sat_calls for r in rows])
    sim_ratio = _ratio([r.stp.simulation_time for r in rows], [r.baseline.simulation_time for r in rows])
    time_ratio = geometric_mean([r.runtime_ratio for r in rows])
    summary = (
        f"\nImp. (geom. mean, STP/baseline): SAT calls {sat_ratio:.2f}, total SAT calls {total_ratio:.2f}, "
        f"simulation time {sim_ratio:.2f}, total runtime {time_ratio:.2f}\n"
        f"Paper reports: SAT calls 0.09, total SAT calls 0.60, simulation time 1.99, total runtime 0.65."
    )
    return table + summary


def _ratio(new: list[float], old: list[float]) -> float:
    return geometric_mean([max(n, 1e-9) for n in new]) / max(geometric_mean([max(o, 1e-9) for o in old]), 1e-9)


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point (``repro-table2``)."""
    parser = argparse.ArgumentParser(description="Regenerate Table II (SAT sweeper comparison)")
    parser.add_argument("--workloads", nargs="*", default=None, help="workload names (default: all fifteen)")
    parser.add_argument("--patterns", type=int, default=64, help="initial pattern count for the STP sweeper")
    parser.add_argument("--conflict-limit", type=int, default=10_000, help="SAT conflict limit per query")
    parser.add_argument("--tfi-limit", type=int, default=1000, help="TFI node bound of the STP sweeper (paper: 1000)")
    parser.add_argument("--window-leaves", type=int, default=16, help="exhaustive window leaf bound")
    parser.add_argument("--no-verify", action="store_true", help="skip the CEC verification")
    parser.add_argument("--seed", type=int, default=1, help="random seed")
    parser.add_argument(
        "--pre-script",
        default=None,
        help="optimization script run on every workload before sweeping (e.g. 'rw', 'resyn2')",
    )
    arguments = parser.parse_args(argv)
    error = option_error(arguments, SWEEP_OPTION_MINIMUMS)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    rows = run_table2(
        workloads=arguments.workloads,
        num_patterns=arguments.patterns,
        conflict_limit=arguments.conflict_limit,
        tfi_limit=arguments.tfi_limit,
        window_leaves=arguments.window_leaves,
        verify=not arguments.no_verify,
        seed=arguments.seed,
        pre_script=arguments.pre_script,
    )
    print(format_table2(rows))
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
