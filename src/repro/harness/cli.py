"""Command-line front-ends for working with circuit files directly.

Besides the table-regeneration entry points (``repro-table1`` and
``repro-table2``), the package installs two file-level tools:

* ``repro-simulate`` -- read an AIGER/BENCH file, map it to k-LUTs and
  simulate it with a chosen engine, printing per-output signatures or
  writing them to a CSV file;
* ``repro-sweep`` -- read an AIGER/BENCH file, run one of the two SAT
  sweepers on it, verify the result and write it back out in any of the
  supported formats;
* ``repro-optimize`` -- read a circuit file, run an optimization script
  (``"rw; fraig; rw; fraig"``, ``"resyn2"``, or a mapped-network flow
  like ``"map; lutmffc; cleanup"``) through the network-generic
  :class:`repro.rewriting.PassManager`, print per-pass statistics,
  verify the result and write it out (a flow ending in a k-LUT network
  writes BLIF);
* ``repro-map`` -- read a circuit file, run the multi-pass k-LUT mapper
  (depth, then area-flow and exact-area recovery; with ``--choices`` a
  ``dch``-style choice computation runs first and the mapper selects
  among the recorded structures), report LUT count / depth / edge count
  / cut-cache hit rate, verify the mapping against the source AIG by
  word-parallel simulation and write BLIF.

The combined entry point additionally exposes the synthesis service:
``repro serve`` runs the persistent optimization server
(:mod:`repro.service`) and ``repro submit`` sends a circuit file to it,
streaming per-pass progress and exiting with the same code scheme as the
local tools.  ``optimize`` / ``sweep`` / ``map`` accept ``--stats-json
PATH`` to write the run's ``FlowStatistics.as_dict()`` serialization --
the exact format the server streams -- to a file.

All tools work purely on files, so they can be dropped into existing
shell-based synthesis flows the way ``abc`` commands are; :func:`main`
additionally exposes them as subcommands of one ``repro`` entry point
(``repro optimize circuit.aag --script resyn2``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from ..io import (
    ParseError,
    read_aiger_file,
    read_bench_file,
    write_aiger_file,
    write_bench_file,
    write_blif_file,
    write_verilog_file,
)
from ..networks import Aig, KLutNetwork, map_aig_to_klut, network_statistics, technology_map
from ..resilience import Budget, BudgetExceeded
from ..simulation import (
    PatternSet,
    StpSimulator,
    klut_po_signatures,
    aig_po_signatures,
    po_signatures,
    simulate_aig,
    simulate_klut_per_pattern,
)
from ..rewriting import FlowStatistics, NAMED_SCRIPTS, PassManager, PassStatistics
from ..sweeping import FraigSweeper, StpSweeper, check_combinational_equivalence
from .table2 import SWEEP_OPTION_MINIMUMS, option_error

__all__ = [
    "simulate_main",
    "sweep_main",
    "optimize_main",
    "map_main",
    "main",
    "read_network",
    "write_network",
]

# Exit codes shared by all file tools:
#   0 -- success
#   1 -- verification failure (result not written)
#   2 -- usage, parse or I/O error
#   3 -- at least one pass failed and was rolled back (--on-error rollback)
#   4 -- aborted by a --timeout budget
EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PASS_FAILED = 3
EXIT_BUDGET = 4


def read_network(path: str) -> Aig:
    """Read an AIG from an AIGER (.aag/.aig) or BENCH (.bench) file."""
    extension = os.path.splitext(path)[1].lower()
    if extension in (".aag", ".aig"):
        return read_aiger_file(path)
    if extension == ".bench":
        return read_bench_file(path)
    raise ValueError(f"unsupported input format {extension!r} (expected .aag, .aig or .bench)")


def _load_network(path: str) -> Aig | None:
    """Read an input circuit, printing a clean diagnostic on failure."""
    try:
        return read_network(path)
    except ParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return None
    except (ValueError, OSError) as error:
        print(str(error), file=sys.stderr)
        return None


def write_network(aig: Aig, path: str, lut_size: int = 6) -> None:
    """Write an AIG to AIGER, BENCH, BLIF (via LUT mapping) or Verilog."""
    extension = os.path.splitext(path)[1].lower()
    if extension in (".aag", ".aig"):
        write_aiger_file(aig, path)
    elif extension == ".bench":
        write_bench_file(aig, path)
    elif extension == ".blif":
        klut, _ = map_aig_to_klut(aig, k=lut_size)
        write_blif_file(klut, path)
    elif extension == ".v":
        write_verilog_file(aig, path)
    else:
        raise ValueError(f"unsupported output format {extension!r} (expected .aag, .aig, .bench, .blif or .v)")


def _write_stats_json(path: str, flow: FlowStatistics) -> bool:
    """Write a flow's ``as_dict()`` serialization to ``path``.

    One format serves both front ends: this is byte-for-byte the object
    the synthesis service's ``done`` events carry under ``"flow"``.
    Returns ``False`` (after printing a diagnostic) when the file cannot
    be written.
    """
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(flow.as_dict(), handle, indent=2)
            handle.write("\n")
    except OSError as error:
        print(str(error), file=sys.stderr)
        return False
    print(f"wrote {path}")
    return True


# ---------------------------------------------------------------------------
# repro-simulate
# ---------------------------------------------------------------------------


def simulate_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-simulate``."""
    parser = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Simulate an AIGER/BENCH circuit with the baseline or the STP simulator",
    )
    parser.add_argument("input", help="input circuit (.aag, .aig or .bench)")
    parser.add_argument("--patterns", type=int, default=256, help="number of random patterns")
    parser.add_argument("--seed", type=int, default=1, help="pattern seed")
    parser.add_argument(
        "--engine",
        choices=["aig", "lut", "stp"],
        default="stp",
        help="aig = word-parallel AIG, lut = per-pattern k-LUT, stp = STP simulator",
    )
    parser.add_argument("--lut-size", type=int, default=6, help="LUT size for the lut/stp engines")
    parser.add_argument("--csv", default=None, help="write per-output signatures to this CSV file")
    arguments = parser.parse_args(argv)

    error = option_error(arguments, {"patterns": 1})
    if error is not None:
        print(error, file=sys.stderr)
        return EXIT_USAGE
    aig = _load_network(arguments.input)
    if aig is None:
        return EXIT_USAGE
    stats = network_statistics(aig)
    print(f"{os.path.basename(arguments.input)}: {stats}")
    patterns = PatternSet.random(aig.num_pis, arguments.patterns, arguments.seed)

    try:
        if arguments.engine == "aig":
            result = simulate_aig(aig, patterns)
            signatures = aig_po_signatures(aig, result)
        else:
            klut, _ = map_aig_to_klut(aig, k=arguments.lut_size)
            if arguments.engine == "lut":
                result = simulate_klut_per_pattern(klut, patterns)
            else:
                result = StpSimulator(klut).simulate_all(patterns)
            signatures = klut_po_signatures(klut, result)
    except ValueError as error:
        # e.g. an unmappable --lut-size: a usage error, not a crash.
        print(str(error), file=sys.stderr)
        return EXIT_USAGE

    width = max((len(name) for name in aig.po_names), default=4)
    print(f"simulated {patterns.num_patterns} patterns with engine {arguments.engine!r}")
    rows = []
    for name, signature in zip(aig.po_names, signatures):
        ones = bin(signature).count("1")
        rows.append((name, ones, signature))
        print(f"  {name:{width}}  ones={ones:6d}/{patterns.num_patterns}  signature=0x{signature:x}")
    if arguments.csv:
        try:
            with open(arguments.csv, "w", encoding="ascii") as handle:
                handle.write("output,ones,patterns,signature_hex\n")
                for name, ones, signature in rows:
                    handle.write(f"{name},{ones},{patterns.num_patterns},{signature:x}\n")
        except OSError as error:
            print(str(error), file=sys.stderr)
            return EXIT_USAGE
        print(f"wrote {arguments.csv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# repro-sweep
# ---------------------------------------------------------------------------


def sweep_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-sweep``."""
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="SAT-sweep an AIGER/BENCH circuit with the baseline or the STP engine",
    )
    parser.add_argument("input", help="input circuit (.aag, .aig or .bench)")
    parser.add_argument("--output", "-o", default=None, help="write the swept circuit here (.aag/.aig/.bench/.blif/.v)")
    parser.add_argument("--engine", choices=["fraig", "stp"], default="stp", help="sweeping engine")
    parser.add_argument("--patterns", type=int, default=64, help="initial pattern count")
    parser.add_argument("--conflict-limit", type=int, default=10_000, help="SAT conflict limit per query")
    parser.add_argument("--tfi-limit", type=int, default=1000, help="TFI candidate bound (stp engine)")
    parser.add_argument("--window-leaves", type=int, default=16, help="exhaustive window bound (stp engine)")
    parser.add_argument("--seed", type=int, default=1, help="random seed")
    parser.add_argument("--no-verify", action="store_true", help="skip the CEC verification")
    parser.add_argument(
        "--timeout", type=float, default=None, help="wall-clock budget in seconds (exit 4 when exceeded)"
    )
    parser.add_argument(
        "--stats-json", default=None, help="write the run's flow statistics as JSON to this file"
    )
    arguments = parser.parse_args(argv)

    error = option_error(arguments, SWEEP_OPTION_MINIMUMS)
    if error is not None:
        print(error, file=sys.stderr)
        return EXIT_USAGE
    aig = _load_network(arguments.input)
    if aig is None:
        return EXIT_USAGE
    print(f"{os.path.basename(arguments.input)}: {network_statistics(aig)}")

    budget = Budget(wall_clock=arguments.timeout) if arguments.timeout is not None else None
    if arguments.engine == "fraig":
        sweeper = FraigSweeper(
            aig,
            num_patterns=arguments.patterns,
            seed=arguments.seed,
            conflict_limit=arguments.conflict_limit,
            budget=budget,
        )
    else:
        sweeper = StpSweeper(
            aig,
            num_patterns=arguments.patterns,
            seed=arguments.seed,
            conflict_limit=arguments.conflict_limit,
            tfi_limit=arguments.tfi_limit,
            window_leaves=arguments.window_leaves,
            budget=budget,
        )
    try:
        swept, stats = sweeper.run()
    except BudgetExceeded as error:
        print(f"aborted: {error}", file=sys.stderr)
        return EXIT_BUDGET
    print(stats)

    verified: bool | None = None
    if not arguments.no_verify:
        verdict = check_combinational_equivalence(aig, swept)
        print(f"equivalence check: {verdict.status}")
        verified = bool(verdict)

    if arguments.stats_json:
        flow = FlowStatistics(
            script=arguments.engine,
            gates_before=stats.gates_before,
            gates_after=stats.gates_after,
            depth_before=aig.depth(),
            depth_after=swept.depth(),
            total_time=stats.total_time,
            verified=verified,
        )
        flow.passes.append(
            PassStatistics(
                name=arguments.engine,
                gates_before=stats.gates_before,
                gates_after=stats.gates_after,
                depth_before=flow.depth_before,
                depth_after=flow.depth_after,
                total_time=stats.total_time,
                verified=verified,
                details={
                    "merges": float(stats.merges),
                    "constant_merges": float(stats.constant_merges),
                    "total_sat_calls": float(stats.total_sat_calls),
                    "satisfiable_sat_calls": float(stats.satisfiable_sat_calls),
                    "sat_time": stats.sat_time,
                    "simulation_time": stats.simulation_time,
                    "patterns_used": float(stats.patterns_used),
                    "counterexamples_simulated": float(stats.counterexamples_simulated),
                },
            )
        )
        if not _write_stats_json(arguments.stats_json, flow):
            return EXIT_USAGE

    if verified is False:
        print("refusing to write a non-equivalent result", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    if arguments.output:
        write_network(swept, arguments.output)
        print(f"wrote {arguments.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# repro-optimize
# ---------------------------------------------------------------------------


def _print_sat_profile(flow: FlowStatistics) -> None:
    """Per-pass SAT breakdown of a flow (the ``--sat-profile`` report).

    Only passes that ran SAT queries appear; the counters come from the
    ``sat_``-prefixed details every sweeping pass reports (the CDCL
    core's :class:`~repro.sat.cdcl.SolverStatistics` aggregated over all
    solver windows of the pass).
    """
    rows = []
    totals = {"calls": 0.0, "conflicts": 0.0, "propagations": 0.0, "reused": 0.0, "time": 0.0}
    for stats in flow.passes:
        details = stats.details
        calls = float(details.get("sat_calls") or details.get("sat_solve_calls") or 0.0)
        if calls <= 0:
            continue
        conflicts = float(details.get("sat_conflicts", 0.0))
        propagations = float(details.get("sat_propagations", 0.0))
        restarts = float(details.get("sat_restarts", 0.0))
        windows = float(details.get("sat_windows_opened", 0.0))
        reused = float(details.get("sat_window_reuses", 0.0))
        reuse_rate = float(details.get("sat_window_reuse_rate", 0.0))
        sat_time = float(details.get("sat_time", 0.0))
        rows.append(
            f"  {stats.name:<8} calls {int(calls):>6}  conflicts {int(conflicts):>8}  "
            f"props {int(propagations):>10}  restarts {int(restarts):>4}  "
            f"windows {int(windows):>3}  reuse {reuse_rate:6.1%}  sat {sat_time:7.3f}s"
        )
        totals["calls"] += calls
        totals["conflicts"] += conflicts
        totals["propagations"] += propagations
        totals["reused"] += reused
        totals["time"] += sat_time
    print("SAT profile:")
    if not rows:
        print("  no SAT-backed passes ran")
        return
    for row in rows:
        print(row)
    overall_rate = totals["reused"] / totals["calls"] if totals["calls"] else 0.0
    print(
        f"  {'total':<8} calls {int(totals['calls']):>6}  conflicts {int(totals['conflicts']):>8}  "
        f"props {int(totals['propagations']):>10}  reused-solver hit rate {overall_rate:6.1%}  "
        f"sat {totals['time']:7.3f}s"
    )


def _parse_jobs(value: str) -> int:
    """``--jobs`` argument type: a positive integer or ``auto``.

    ``auto`` resolves to the machine's CPU count right here, so the
    wrapped ``ppart(..., jobs=N)`` token -- and every surface echoing it
    (the printed script, ``--stats-json``'s ``ppart_jobs`` detail) --
    always shows the concrete worker count that actually ran.
    """
    if value.strip().lower() == "auto":
        return os.cpu_count() or 1
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def optimize_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-optimize``."""
    parser = argparse.ArgumentParser(
        prog="repro-optimize",
        description="Optimize an AIGER/BENCH circuit with a rewriting/sweeping/mapping script",
        epilog=(
            "Scripts are semicolon-separated pass names (rw, rwz, rf, rfz, b, fraig, "
            "stp, cp, map, lutmffc, lutmffcz, cleanup) or named flows: "
            + ", ".join(sorted(NAMED_SCRIPTS))
            + ".  Flows ending behind 'map' produce a k-LUT network and write BLIF.  "
            "--jobs N partitions the network and runs the leading AIG passes across N "
            "worker processes (equivalent to wrapping them in a ppart(..., jobs=N) "
            "meta-pass in the script)."
        ),
    )
    parser.add_argument("input", help="input circuit (.aag, .aig or .bench)")
    parser.add_argument("--output", "-o", default=None, help="write the optimized circuit here (.aag/.aig/.bench/.blif/.v)")
    parser.add_argument("--script", default="resyn2", help="optimization script (default: resyn2)")
    parser.add_argument("--patterns", type=int, default=64, help="pattern count for the SAT-based passes")
    parser.add_argument("--lut-size", "-k", type=int, default=6, help="LUT size for the map/lutmffc passes")
    parser.add_argument("--conflict-limit", type=int, default=10_000, help="SAT conflict limit per query")
    parser.add_argument("--seed", type=int, default=1, help="random seed")
    parser.add_argument("--verify-each", action="store_true", help="CEC-check after every pass (slow)")
    parser.add_argument("--no-verify", action="store_true", help="skip the final CEC verification")
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="wall-clock budget in seconds for the whole flow (exit 4 when exceeded under --on-error raise)",
    )
    parser.add_argument(
        "--pass-timeout", type=float, default=None, help="wall-clock budget in seconds per pass"
    )
    parser.add_argument(
        "--on-error", choices=["raise", "rollback"], default="raise",
        help="on a failing pass: abort (raise) or roll the pass back and continue (rollback)",
    )
    parser.add_argument(
        "--verify-commit", action="store_true",
        help="simulation cross-check every pass before committing it (rolls back on mismatch)",
    )
    parser.add_argument(
        "--stats-json", default=None, help="write the flow statistics as JSON to this file"
    )
    parser.add_argument(
        "--sat-profile",
        action="store_true",
        help="print a per-pass SAT breakdown (calls, conflicts, solver-window reuse)",
    )
    parser.add_argument(
        "--jobs", "-j", type=_parse_jobs, default=None,
        help=(
            "partition the network and run the leading AIG passes across N worker "
            "processes; 'auto' uses every CPU the machine reports"
        ),
    )
    parser.add_argument(
        "--partition-max-gates", type=int, default=400,
        help="gate-count cap per partition region (with --jobs; default: 400)",
    )
    parser.add_argument(
        "--partition-strategy", choices=["window", "level"], default="window",
        help="partition decomposition strategy (with --jobs; default: window)",
    )
    parser.add_argument(
        "--partition-merge", choices=["substitute", "choice"], default="substitute",
        help="merge-back mode: substitute boundary cones or record them as choices (with --jobs)",
    )
    parser.add_argument(
        "--partition-window", type=int, default=None,
        help="per-region SAT solver window inside each worker (with --jobs)",
    )
    arguments = parser.parse_args(argv)

    error = option_error(arguments, {"lut_size": 2, "patterns": 0})
    if error is not None:
        print(error, file=sys.stderr)
        return EXIT_USAGE
    aig = _load_network(arguments.input)
    if aig is None:
        return EXIT_USAGE
    print(f"{os.path.basename(arguments.input)}: {network_statistics(aig)}")

    script = arguments.script
    if arguments.jobs is not None:
        from ..partition import wrap_script_with_jobs

        try:
            script, wrapped = wrap_script_with_jobs(
                script,
                arguments.jobs,
                max_gates=arguments.partition_max_gates,
                strategy=arguments.partition_strategy,
                merge=arguments.partition_merge,
                window=arguments.partition_window,
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return EXIT_USAGE
        if wrapped:
            print(f"partition-parallel script: {script}")
    try:
        manager = PassManager(
            script,
            seed=arguments.seed,
            num_patterns=arguments.patterns,
            conflict_limit=arguments.conflict_limit,
            lut_size=arguments.lut_size,
            verify_each=arguments.verify_each,
            on_error=arguments.on_error,
            verify_commit=arguments.verify_commit,
            pass_timeout=arguments.pass_timeout,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return EXIT_USAGE
    budget = Budget(wall_clock=arguments.timeout) if arguments.timeout is not None else None
    try:
        optimized, flow = manager.run(aig, verify=not arguments.no_verify, budget=budget)
    except BudgetExceeded as error:
        print(f"aborted: {error}", file=sys.stderr)
        return EXIT_BUDGET
    print(flow)
    for stats in flow.passes:
        if stats.partitions is None:
            continue
        details = stats.details
        print(
            f"  partitions: {int(details.get('ppart_regions_built', 0))} built, "
            f"{int(details.get('ppart_regions_merged', 0))} merged, "
            f"{int(details.get('ppart_regions_rolled_back', 0))} rolled back, "
            f"{int(details.get('ppart_regions_skipped', 0))} skipped, "
            f"{int(details.get('ppart_worker_restarts', 0))} worker restarts"
        )
    if arguments.sat_profile:
        _print_sat_profile(flow)

    if arguments.stats_json and not _write_stats_json(arguments.stats_json, flow):
        return EXIT_USAGE
    if flow.verified is False:
        print("refusing to write a non-equivalent result", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    if arguments.output:
        if isinstance(optimized, KLutNetwork):
            extension = os.path.splitext(arguments.output)[1].lower()
            if extension != ".blif":
                print(
                    f"script produced a k-LUT network; unsupported output format "
                    f"{extension!r} (expected .blif)",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            write_blif_file(optimized, arguments.output)
        else:
            write_network(optimized, arguments.output, lut_size=arguments.lut_size)
        print(f"wrote {arguments.output}")
    if flow.failed_passes:
        names = ", ".join(stats.name for stats in flow.failed_passes)
        print(f"warning: rolled-back passes: {names}", file=sys.stderr)
        return EXIT_PASS_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# repro-map
# ---------------------------------------------------------------------------


def map_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-map``."""
    parser = argparse.ArgumentParser(
        prog="repro-map",
        description="Map an AIGER/BENCH circuit to k-LUTs with the multi-pass mapper",
    )
    parser.add_argument("input", help="input circuit (.aag, .aig or .bench)")
    parser.add_argument("--output", "-o", default=None, help="write the mapped network here (.blif)")
    parser.add_argument("--lut-size", "-k", type=int, default=6, help="LUT size k (default: 6)")
    parser.add_argument("--cut-limit", type=int, default=8, help="priority cuts kept per node")
    parser.add_argument(
        "--area-rounds",
        type=int,
        default=2,
        help="area-recovery effort: 0 = depth only, 1 = +area flow, 2 = +exact area (default)",
    )
    parser.add_argument("--patterns", type=int, default=256, help="verification pattern count")
    parser.add_argument("--seed", type=int, default=1, help="verification pattern seed")
    parser.add_argument("--no-verify", action="store_true", help="skip the simulation cross-check")
    parser.add_argument(
        "--choices",
        action="store_true",
        help="compute structural choices (dch-style) first and map choice-aware",
    )
    parser.add_argument("--conflict-limit", type=int, default=10_000, help="SAT conflict limit of --choices")
    parser.add_argument(
        "--timeout", type=float, default=None, help="wall-clock budget in seconds (exit 4 when exceeded)"
    )
    parser.add_argument(
        "--stats-json", default=None, help="write the mapping statistics as JSON to this file"
    )
    arguments = parser.parse_args(argv)

    error = option_error(arguments, {"patterns": 1})
    if error is not None:
        print(error, file=sys.stderr)
        return EXIT_USAGE
    aig = _load_network(arguments.input)
    if aig is None:
        return EXIT_USAGE
    print(f"{os.path.basename(arguments.input)}: {network_statistics(aig)}")
    budget = Budget(wall_clock=arguments.timeout) if arguments.timeout is not None else None
    subject = aig
    if arguments.choices:
        from ..rewriting import compute_choices

        try:
            subject, choice_report = compute_choices(
                aig, seed=arguments.seed, conflict_limit=arguments.conflict_limit, budget=budget
            )
        except BudgetExceeded as error:
            print(f"aborted: {error}", file=sys.stderr)
            return EXIT_BUDGET
        print(
            f"choices: {choice_report.choice_classes} classes, "
            f"{choice_report.choice_alternatives} alternatives "
            f"(rw {choice_report.rewrite_recorded} / rf {choice_report.refactor_recorded} / "
            f"fraig {choice_report.fraig_recorded}), {choice_report.total_time:.3f}s"
        )
    map_start = time.perf_counter()
    try:
        result = technology_map(
            subject,
            k=arguments.lut_size,
            cut_limit=arguments.cut_limit,
            area_rounds=arguments.area_rounds,
            budget=budget,
        )
    except BudgetExceeded as error:
        print(f"aborted: {error}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return EXIT_USAGE
    map_time = time.perf_counter() - map_start
    stats = result.stats
    print(stats)
    print(
        f"  passes: depth {stats.depth_pass_luts or stats.num_luts} LUTs"
        + (f" -> area-flow {stats.area_flow_luts} LUTs" if stats.area_flow_luts else "")
        + (f" -> exact-area {stats.exact_area_luts} LUTs" if stats.exact_area_luts else "")
    )
    print(
        f"  cut cache: {stats.cache_hits} hits / {stats.cache_misses} misses "
        f"({stats.cache_hit_rate:.1%} hit rate, {stats.cuts_enumerated} cuts enumerated)"
    )

    verified: bool | None = None
    if not arguments.no_verify:
        patterns = PatternSet.random(aig.num_pis, arguments.patterns, arguments.seed)
        verified = po_signatures(aig, patterns) == po_signatures(result.network, patterns)
        if verified:
            print(f"verification: {patterns.num_patterns} word-parallel patterns agree on all outputs")

    if arguments.stats_json:
        flow = FlowStatistics(
            script="map",
            gates_before=aig.num_gates,
            gates_after=stats.num_luts,
            depth_before=aig.depth(),
            depth_after=stats.depth,
            total_time=map_time,
            verified=verified,
            kind_after="klut",
        )
        flow.passes.append(
            PassStatistics(
                name="map",
                gates_before=flow.gates_before,
                gates_after=flow.gates_after,
                depth_before=flow.depth_before,
                depth_after=flow.depth_after,
                total_time=map_time,
                verified=verified,
                kind="klut",
                details=stats.as_details(),
            )
        )
        if not _write_stats_json(arguments.stats_json, flow):
            return EXIT_USAGE

    if verified is False:
        print("mapping verification FAILED: signatures differ", file=sys.stderr)
        return EXIT_VERIFY_FAILED

    if arguments.output:
        extension = os.path.splitext(arguments.output)[1].lower()
        if extension != ".blif":
            print(f"unsupported mapping output format {extension!r} (expected .blif)", file=sys.stderr)
            return EXIT_USAGE
        write_blif_file(result.network, arguments.output)
        print(f"wrote {arguments.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the combined `repro` entry point
# ---------------------------------------------------------------------------

#: Subcommand table of the combined entry point.  Table harnesses are
#: imported lazily to keep plain file-tool invocations fast.
_SUBCOMMANDS = {
    "simulate": "repro-simulate: simulate a circuit file",
    "sweep": "repro-sweep: SAT-sweep a circuit file",
    "optimize": "repro-optimize: run an optimization script on a circuit file",
    "map": "repro-map: map a circuit file to k-LUTs and write BLIF",
    "serve": "repro-serve: run the persistent synthesis service",
    "submit": "repro-submit: submit a circuit to a running service",
    "table1": "regenerate Table I (simulation comparison)",
    "table2": "regenerate Table II (sweeper comparison)",
}


def main(argv: list[str] | None = None) -> int:
    """Combined ``repro <subcommand>`` entry point."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if not arguments or arguments[0] in ("-h", "--help"):
        print("usage: repro <subcommand> [options]\n\nsubcommands:")
        for name, description in _SUBCOMMANDS.items():
            print(f"  {name:<10} {description}")
        return 0 if arguments else 2
    command, rest = arguments[0], arguments[1:]
    if command == "simulate":
        return simulate_main(rest)
    if command == "sweep":
        return sweep_main(rest)
    if command == "optimize":
        return optimize_main(rest)
    if command == "map":
        return map_main(rest)
    if command == "serve":
        from ..service.cli import serve_main

        return serve_main(rest)
    if command == "submit":
        from ..service.cli import submit_main

        return submit_main(rest)
    if command == "table1":
        from .table1 import main as table1_main

        return table1_main(rest)
    if command == "table2":
        from .table2 import main as table2_main

        return table2_main(rest)
    print(f"unknown subcommand {command!r}; known: {', '.join(_SUBCOMMANDS)}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
