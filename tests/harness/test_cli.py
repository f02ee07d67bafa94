"""Tests for the file-level command-line tools (repro-simulate / repro-sweep / repro-optimize / repro-map)."""

import os
import subprocess
import sys

import pytest

from repro.circuits.arithmetic import ripple_carry_adder
from repro.circuits.sweep_workloads import inject_redundancy
from repro.harness.cli import (
    main,
    map_main,
    optimize_main,
    read_network,
    simulate_main,
    sweep_main,
    write_network,
)
from repro.io import read_aiger_file, read_blif_file, write_aiger_file, write_bench_file


@pytest.fixture()
def adder_file(tmp_path):
    aig = ripple_carry_adder(width=4, name="adder4")
    path = tmp_path / "adder4.aag"
    write_aiger_file(aig, path)
    return path


@pytest.fixture()
def workload_file(tmp_path):
    base = ripple_carry_adder(width=5, name="base")
    workload, _ = inject_redundancy(base, duplication_fraction=0.3, constant_cones=1, seed=3)
    path = tmp_path / "workload.aag"
    write_aiger_file(workload, path)
    return path, workload


class TestNetworkIo:
    def test_read_network_formats(self, tmp_path):
        aig = ripple_carry_adder(width=3)
        aiger_path = tmp_path / "a.aig"
        bench_path = tmp_path / "a.bench"
        write_aiger_file(aig, aiger_path)
        write_bench_file(aig, bench_path)
        assert read_network(str(aiger_path)).num_pos == aig.num_pos
        assert read_network(str(bench_path)).num_pos == aig.num_pos
        with pytest.raises(ValueError):
            read_network("circuit.xyz")

    @pytest.mark.parametrize("extension", ["aag", "aig", "bench", "blif", "v"])
    def test_write_network_formats(self, tmp_path, extension):
        aig = ripple_carry_adder(width=3)
        path = tmp_path / f"out.{extension}"
        write_network(aig, str(path))
        assert path.exists() and path.stat().st_size > 0

    def test_write_network_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_network(ripple_carry_adder(width=2), str(tmp_path / "out.xyz"))


class TestSimulateCli:
    @pytest.mark.parametrize("engine", ["aig", "lut", "stp"])
    def test_engines_run(self, adder_file, capsys, engine):
        exit_code = simulate_main([str(adder_file), "--engine", engine, "--patterns", "32"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "simulated 32 patterns" in captured.out
        assert "s0" in captured.out

    def test_csv_output(self, adder_file, tmp_path, capsys):
        csv_path = tmp_path / "signatures.csv"
        exit_code = simulate_main([str(adder_file), "--patterns", "16", "--csv", str(csv_path)])
        capsys.readouterr()
        assert exit_code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "output,ones,patterns,signature_hex"
        assert len(lines) == 1 + 5  # 4 sum bits + carry

    @pytest.mark.parametrize("lut_size", [2, 6])
    @pytest.mark.parametrize("num_patterns", [64, 1001])
    def test_engines_agree_on_signatures(self, adder_file, tmp_path, capsys, lut_size, num_patterns):
        outputs = {}
        for engine in ("aig", "lut", "stp"):
            csv_path = tmp_path / f"{engine}.csv"
            exit_code = simulate_main(
                [str(adder_file), "--engine", engine, "--lut-size", str(lut_size),
                 "--patterns", str(num_patterns), "--csv", str(csv_path)]
            )
            assert exit_code == 0
            outputs[engine] = csv_path.read_bytes()
            capsys.readouterr()
        assert outputs["aig"] == outputs["lut"] == outputs["stp"]


class TestSweepCli:
    @pytest.mark.parametrize("engine", ["fraig", "stp"])
    def test_sweep_and_write(self, workload_file, tmp_path, capsys, engine):
        path, workload = workload_file
        output = tmp_path / "swept.aag"
        exit_code = sweep_main(
            [str(path), "--engine", engine, "--patterns", "32", "--output", str(output)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "equivalence check: equivalent" in captured.out
        swept = read_aiger_file(output)
        assert swept.num_ands < workload.num_ands
        assert swept.num_pos == workload.num_pos

    def test_sweep_without_verification(self, workload_file, capsys):
        path, _workload = workload_file
        exit_code = sweep_main([str(path), "--no-verify", "--patterns", "16"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "equivalence check" not in captured.out

    def test_blif_output(self, workload_file, tmp_path, capsys):
        path, _workload = workload_file
        output = tmp_path / "swept.blif"
        exit_code = sweep_main([str(path), "--patterns", "16", "--output", str(output)])
        capsys.readouterr()
        assert exit_code == 0
        assert output.read_text().startswith(".model")


class TestOptimizeCli:
    def test_optimize_and_write(self, adder_file, tmp_path, capsys):
        output = tmp_path / "optimized.aag"
        exit_code = optimize_main(
            [str(adder_file), "--script", "rw; b", "--output", str(output)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "equivalence vs input: ok" in captured.out
        original = read_network(str(adder_file))
        optimized = read_aiger_file(output)
        assert optimized.num_ands < original.num_ands
        assert optimized.num_pos == original.num_pos

    def test_rw_fraig_script(self, workload_file, capsys):
        path, workload = workload_file
        exit_code = optimize_main([str(path), "--script", "rw; fraig", "--patterns", "16"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "script 'rw; fraig'" in captured.out
        assert "fraig" in captured.out

    def test_verify_each(self, adder_file, capsys):
        exit_code = optimize_main([str(adder_file), "--script", "rw", "--verify-each"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "cec=ok" in captured.out

    def test_unknown_script_rejected(self, adder_file, capsys):
        exit_code = optimize_main([str(adder_file), "--script", "frobnicate"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown pass" in captured.err

    def test_no_verify_skips_cec(self, adder_file, capsys):
        exit_code = optimize_main([str(adder_file), "--script", "b", "--no-verify"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "equivalence vs input" not in captured.out


class TestMapCli:
    def test_map_and_write_blif(self, adder_file, tmp_path, capsys):
        output = tmp_path / "mapped.blif"
        assert map_main([str(adder_file), "-o", str(output), "-k", "4"]) == 0
        captured = capsys.readouterr().out
        assert "LUT4" in captured
        assert "cut cache" in captured
        assert "verification" in captured
        network = read_blif_file(output)
        assert network.num_luts > 0
        assert network.max_fanin_size() <= 4

    def test_map_depth_only(self, adder_file, capsys):
        assert map_main([str(adder_file), "--area-rounds", "0", "--no-verify"]) == 0
        captured = capsys.readouterr().out
        assert "depth" in captured

    def test_map_rejects_bad_lut_size(self, adder_file, capsys):
        assert map_main([str(adder_file), "-k", "1"]) == 2

    def test_map_rejects_non_blif_output(self, adder_file, tmp_path, capsys):
        output = tmp_path / "mapped.aag"
        assert map_main([str(adder_file), "-o", str(output), "--no-verify"]) == 2

    def test_dispatches_map(self, adder_file, capsys):
        assert main(["map", str(adder_file), "--no-verify"]) == 0
        assert "mapped to" in capsys.readouterr().out


class TestCombinedEntryPoint:
    def test_dispatches_optimize(self, adder_file, capsys):
        exit_code = main(["optimize", str(adder_file), "--script", "b"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "script 'b'" in captured.out

    def test_dispatches_simulate(self, adder_file, capsys):
        exit_code = main(["simulate", str(adder_file), "--patterns", "8"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "simulated 8 patterns" in captured.out

    def test_help_lists_subcommands(self, capsys):
        exit_code = main(["--help"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ("simulate", "sweep", "optimize", "table1", "table2"):
            assert name in captured.out

    def test_unknown_subcommand(self, capsys):
        exit_code = main(["frobnicate"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown subcommand" in captured.err

    def test_module_run_imports_cli_once(self, tmp_path):
        # ``repro.harness`` must not import ``.cli`` itself: runpy warns
        # when the module it is asked to run is already in sys.modules.
        environment = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        environment["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + environment.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.harness.cli", "--help"],
            capture_output=True, text=True, env=environment, cwd=tmp_path, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""


class TestResilienceFlags:
    """Budget/rollback flags and the shared exit-code scheme."""

    @pytest.fixture()
    def broken_file(self, tmp_path):
        path = tmp_path / "broken.aag"
        path.write_text("aag 3 1 0 1 x\n")
        return path

    def test_parse_error_prints_cleanly_and_exits_2(self, broken_file, capsys):
        exit_code = optimize_main([str(broken_file)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "parse error:" in captured.err
        assert "line 1" in captured.err
        assert "Traceback" not in captured.err

    def test_parse_error_on_sweep_and_map(self, broken_file, capsys):
        assert sweep_main([str(broken_file)]) == 2
        assert map_main([str(broken_file)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("parse error:") == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        exit_code = optimize_main([str(tmp_path / "absent.aag")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.strip()

    def test_generous_timeout_flags_succeed(self, adder_file, capsys):
        exit_code = optimize_main(
            [
                str(adder_file),
                "--script",
                "rw; b",
                "--timeout",
                "120",
                "--pass-timeout",
                "60",
                "--on-error",
                "rollback",
                "--verify-commit",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "script 'rw; b'" in captured.out

    def test_exhausted_timeout_exits_4_under_raise(self, adder_file, capsys):
        exit_code = optimize_main([str(adder_file), "--script", "rw", "--timeout", "0"])
        captured = capsys.readouterr()
        assert exit_code == 4
        assert "aborted:" in captured.err

    def test_exhausted_timeout_exits_3_under_rollback(self, adder_file, capsys):
        exit_code = optimize_main(
            [str(adder_file), "--script", "rw; b", "--timeout", "0", "--on-error", "rollback"]
        )
        captured = capsys.readouterr()
        assert exit_code == 3
        assert "rolled-back passes" in captured.err

    def test_map_timeout_exits_4(self, adder_file, capsys):
        exit_code = map_main([str(adder_file), "--timeout", "0"])
        captured = capsys.readouterr()
        assert exit_code == 4
        assert "aborted:" in captured.err

    def test_sweep_timeout_exits_4(self, workload_file, capsys):
        path, _workload = workload_file
        exit_code = sweep_main([str(path), "--timeout", "0"])
        captured = capsys.readouterr()
        assert exit_code == 4
        assert "aborted:" in captured.err


class TestStatsJson:
    """--stats-json writes the FlowStatistics JSON on all three tools."""

    def _load(self, path):
        import json

        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def test_optimize_stats_json(self, adder_file, tmp_path, capsys):
        stats_path = tmp_path / "flow.json"
        code = optimize_main([str(adder_file), "--script", "rw; b; fraig", "--stats-json", str(stats_path)])
        assert code == 0
        stats = self._load(stats_path)
        assert [p["name"] for p in stats["passes"]] == ["rw", "b", "fraig"]
        assert stats["passes"][2]["details"]["counterexamples_simulated"] >= 0
        assert stats["verified"] is True
        assert stats["gates_after"] <= stats["gates_before"]

    def test_sweep_stats_json(self, workload_file, tmp_path, capsys):
        path, _ = workload_file
        for engine in ("stp", "fraig"):
            stats_path = tmp_path / f"sweep-{engine}.json"
            code = sweep_main([str(path), "--engine", engine, "--stats-json", str(stats_path)])
            assert code == 0
            stats = self._load(stats_path)
            assert stats["script"] == engine
            assert len(stats["passes"]) == 1
            details = stats["passes"][0]["details"]
            assert "total_sat_calls" in details
            # The 64 initial patterns plus one per refining counter-example
            # (the STP sweeper's constant pass adds its own).
            assert details["patterns_used"] >= 64 + details["counterexamples_simulated"]
        # fraig refines its classes with every satisfiable query's model.
        assert details["counterexamples_simulated"] == details["satisfiable_sat_calls"] > 0
        assert details["patterns_used"] == 64 + details["counterexamples_simulated"]

    def test_map_stats_json(self, adder_file, tmp_path, capsys):
        stats_path = tmp_path / "map.json"
        code = map_main([str(adder_file), "-k", "4", "--stats-json", str(stats_path)])
        assert code == 0
        stats = self._load(stats_path)
        assert stats["kind_after"] == "klut"
        assert stats["passes"][0]["details"]["num_luts"] == stats["gates_after"]

    def test_unwritable_stats_json_exits_2(self, adder_file, tmp_path, capsys):
        bad = tmp_path / "missing-dir" / "flow.json"
        code = optimize_main([str(adder_file), "--script", "b", "--stats-json", str(bad)])
        assert code == 2


class TestSimulateExitCodes:
    """The uniform exit-code scheme reaches repro simulate too."""

    def test_bad_pattern_count_exits_2(self, adder_file, capsys):
        assert simulate_main([str(adder_file), "--patterns", "0"]) == 2


class TestSweepExitCodes:
    """Numeric sweep options below their minimum are usage errors, not crashes."""

    BAD_OPTIONS = [
        (["--tfi-limit", "0"], "--tfi-limit must be >= 1, got 0"),
        (["--patterns", "-3"], "--patterns must be >= 0, got -3"),
        (["--window-leaves", "-1"], "--window-leaves must be >= 0, got -1"),
    ]

    @pytest.mark.parametrize("engine", ["fraig", "stp"])
    @pytest.mark.parametrize(("option", "message"), BAD_OPTIONS)
    def test_bad_sweep_option_exits_2(self, adder_file, capsys, engine, option, message):
        assert sweep_main([str(adder_file), "--engine", engine, "--no-verify", *option]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""

    @pytest.mark.parametrize(("option", "message"), BAD_OPTIONS)
    def test_bad_table2_option_exits_2(self, capsys, option, message):
        assert main(["table2", "--workloads", "leon2", "--no-verify", *option]) == 2
        assert capsys.readouterr().err.strip() == message

    def test_limits_themselves_are_accepted(self, adder_file, capsys):
        code = sweep_main(
            [str(adder_file), "--no-verify", "--tfi-limit", "1", "--patterns", "0", "--window-leaves", "0"]
        )
        assert code == 0

    def test_unwritable_csv_exits_2(self, adder_file, tmp_path, capsys):
        bad = tmp_path / "nope" / "out.csv"
        assert simulate_main([str(adder_file), "--csv", str(bad)]) == 2

    def test_success_exits_0(self, adder_file, capsys):
        assert simulate_main([str(adder_file)]) == 0


class TestOptimizeMapExitCodes:
    """Numeric optimize/map options below their minimum are usage errors, not crashes."""

    @pytest.mark.parametrize(
        ("option", "message"),
        [
            (["--lut-size", "1"], "--lut-size must be >= 2, got 1"),
            (["-k", "0"], "--lut-size must be >= 2, got 0"),
            (["--patterns", "-1"], "--patterns must be >= 0, got -1"),
        ],
    )
    @pytest.mark.parametrize("script", ["map", "fraig; map"])
    def test_bad_optimize_option_exits_2(self, adder_file, capsys, script, option, message):
        assert optimize_main([str(adder_file), "--script", script, *option]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_map_pattern_count_exits_2(self, adder_file, capsys, value):
        assert map_main([str(adder_file), "--patterns", value]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == f"--patterns must be >= 1, got {value}"
        assert captured.out == ""

    @pytest.mark.parametrize(
        ("option", "message"),
        [
            (["--cut-limit", "1"], "--cut-limit must be >= 2, got 1"),
            (["-k", "1"], "--lut-size must be >= 2, got 1"),
            (["--area-rounds", "-1"], "--area-rounds must be >= 0, got -1"),
        ],
    )
    def test_bad_map_option_exits_2_before_reading_input(self, tmp_path, capsys, option, message):
        # The input does not exist: the option must be rejected first.
        assert map_main([str(tmp_path / "missing.aag"), *option]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""

    def test_limits_themselves_are_accepted(self, adder_file, capsys):
        assert optimize_main([str(adder_file), "--script", "fraig; map", "-k", "2", "--patterns", "0"]) == 0
        assert map_main([str(adder_file), "--patterns", "1"]) == 0
        assert map_main([str(adder_file), "--cut-limit", "2", "-k", "2", "--area-rounds", "0"]) == 0


class TestServiceSubcommands:
    """serve/submit are dispatched from the combined entry point."""

    def test_help_lists_serve_and_submit(self, capsys):
        assert main(["--help"]) == 0
        printed = capsys.readouterr().out
        assert "serve" in printed and "submit" in printed

    def test_submit_without_server_exits_2(self, adder_file, capsys):
        # Port 1 is never listening; the connection error is a typed
        # usage-level failure, not a traceback.
        code = main(["submit", str(adder_file), "--port", "1", "--quiet"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err
