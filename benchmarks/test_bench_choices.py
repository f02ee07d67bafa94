"""Benchmarks for choice networks and choice-aware mapping (the ``choice`` pass).

Three groups:

* micro-kernels of the choice machinery -- ``add_choice`` (including
  the collapsed-acyclicity walk) and choice-aware cut enumeration
  against plain enumeration on the same augmented network;
* the per-circuit ``choice`` pass itself (rewrite/refactor recording
  plus the choice-recording fraig);
* the flow-level acceptance measurement: ``choice; map`` produces fewer
  or equal LUTs and never a larger depth than plain ``map`` on **every**
  bundled EPFL workload at k = 6, strictly fewer LUTs on a **majority**,
  with every mapping verified against the source AIG by word-parallel
  simulation.  Running this target with
  ``--benchmark-enable`` regenerates ``BENCH_choices.json``
  in the repository root with the per-workload numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.circuits import epfl_benchmark
from repro.circuits.epfl import EPFL_BENCHMARKS
from repro.cuts import CutEngine
from repro.networks.mapping import technology_map
from repro.rewriting import compute_choices
from repro.simulation import (
    PatternSet,
    aig_po_signatures,
    klut_po_signatures,
    simulate_aig,
    simulate_klut_per_pattern,
)

#: Profiles used by the micro-kernels and per-circuit pass benchmarks.
CHOICE_BENCHMARKS = ["adder", "max", "cavlc"]

#: Where the acceptance run records its numbers.
_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_choices.json"


def _verify(aig, network, num_patterns=256, seed=7):
    patterns = PatternSet.random(aig.num_pis, num_patterns, seed)
    aig_signatures = aig_po_signatures(aig, simulate_aig(aig, patterns))
    klut_signatures = klut_po_signatures(network, simulate_klut_per_pattern(network, patterns))
    return aig_signatures == klut_signatures


@pytest.fixture(scope="module")
def augmented_networks():
    """Choice-augmented versions of the micro-kernel profiles."""
    result = {}
    for name in CHOICE_BENCHMARKS:
        aig = epfl_benchmark(name)
        augmented, report = compute_choices(aig)
        result[name] = (aig, augmented, report)
    return result


# ---------------------------------------------------------------------------
# micro-kernels: recording choices and enumerating over them
# ---------------------------------------------------------------------------


def test_bench_add_choice_with_acyclicity_walk(benchmark):
    """add_choice throughput including the collapsed-cone cycle check."""
    benchmark.group = "choice-micro"
    aig = epfl_benchmark("max")

    def record_associative():
        work = aig.clone()
        recorded = 0
        for node in work.topological_order():
            fanin0, fanin1 = work.fanins(node)
            # associative restructuring: node = (g0 & g1) & f1 becomes
            # g0 & (g1 & f1) -- a genuine equivalent alternative
            if fanin0 & 1 or not work.is_and(fanin0 >> 1):
                continue
            g0, g1 = work.fanins(fanin0 >> 1)
            alternative = work.add_and(g0, work.add_and(g1, fanin1))
            if alternative >> 1 != node and work.add_choice(node, alternative):
                recorded += 1
        return work, recorded

    work, recorded = benchmark.pedantic(record_associative, rounds=1, iterations=1)
    assert recorded > 0
    assert work.num_choice_classes > 0


@pytest.mark.parametrize("use_choices", [False, True], ids=["plain", "choice-aware"])
def test_bench_choice_cut_enumeration(benchmark, augmented_networks, use_choices):
    """Cut enumeration over a choice-augmented ``max`` (k = 6)."""
    benchmark.group = "choice-micro"
    _aig, augmented, _report = augmented_networks["max"]

    def enumerate_all():
        engine = CutEngine(augmented, k=6, use_choices=use_choices)
        return engine.enumerate_all()

    db = benchmark(enumerate_all)
    assert len(db) > augmented.num_ands


# ---------------------------------------------------------------------------
# per-circuit: the choice pass and the choice-aware mapping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CHOICE_BENCHMARKS)
def test_bench_compute_choices_pass(benchmark, name):
    benchmark.group = "choice-pass"
    aig = epfl_benchmark(name)
    augmented, report = benchmark.pedantic(lambda: compute_choices(aig), rounds=1, iterations=1)
    assert augmented.num_choice_classes > 0
    assert report.choice_alternatives >= report.choice_classes
    # additive invariant: the subject logic is untouched
    assert augmented.num_pis == aig.num_pis
    assert augmented.pos == aig.pos


@pytest.mark.parametrize("name", CHOICE_BENCHMARKS)
def test_bench_choice_aware_mapping(benchmark, augmented_networks, name):
    benchmark.group = "choice-map"
    aig, augmented, _report = augmented_networks[name]
    result = benchmark.pedantic(lambda: technology_map(augmented, k=6), rounds=1, iterations=1)
    assert result.stats.choice_classes > 0
    assert not result.network.has_choices
    assert _verify(aig, result.network)


# ---------------------------------------------------------------------------
# the acceptance measurement: choice; map versus plain map
# ---------------------------------------------------------------------------


def test_bench_choice_map_beats_plain_map_suite(benchmark, request):
    """Full-suite acceptance: <= LUTs and <= depth everywhere, fewer on a majority."""
    benchmark.group = "choice-flow"

    def map_suite():
        rows = {}
        for name in EPFL_BENCHMARKS:
            aig = epfl_benchmark(name)
            plain = technology_map(aig, k=6)
            augmented, report = compute_choices(aig)
            chosen = technology_map(augmented, k=6)
            assert _verify(aig, chosen.network), f"{name}: choice mapping not equivalent"
            rows[name] = {
                "ands": aig.num_ands,
                "map_only": plain.stats.num_luts,
                "choice_map": chosen.stats.num_luts,
                "depth_map": plain.stats.depth,
                "depth_choice": chosen.stats.depth,
                "choice_classes": report.choice_classes,
                "choice_alternatives": report.choice_alternatives,
                "used_choices": chosen.stats.used_choices,
            }
        return rows

    rows = benchmark.pedantic(map_suite, rounds=1, iterations=1)
    strictly_better = 0
    for name, row in rows.items():
        assert row["choice_map"] <= row["map_only"], (
            f"{name}: choice mapping increased the LUT count "
            f"{row['map_only']} -> {row['choice_map']}"
        )
        assert row["depth_choice"] <= row["depth_map"], (
            f"{name}: choice mapping increased the depth "
            f"{row['depth_map']} -> {row['depth_choice']}"
        )
        if row["choice_map"] < row["map_only"]:
            strictly_better += 1
    assert strictly_better > len(rows) // 2, (
        f"choice mapping strictly better on only {strictly_better}/{len(rows)} workloads"
    )

    record = {
        "benchmark": "choice-networks-end-to-end",
        "pr": (
            "ISSUE 5 (multi_layer_refactor): structural choices preserved from "
            "rewriting/refactoring/fraig through the class-merging cut engine into "
            "choice-aware multi-pass mapping with a plain-fallback never-worse guarantee"
        ),
        "method": (
            "technology_map(k=6, cut_limit=8) versus compute_choices (additive rw/rf "
            "recording + choice-recording fraig) followed by choice-aware "
            "technology_map(k=6) on the same source AIG; workloads are the bundled "
            "EPFL profiles from repro.circuits.epfl; every mapping verified against "
            "the source AIG with 256 word-parallel random patterns"
        ),
        "strictly_better": strictly_better,
        "workloads": len(rows),
        "luts": rows,
    }
    if request.config.getoption("benchmark_enable"):
        # The tracked record is rewritten only by an explicit timing run.
        try:
            _RESULT_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
        except OSError:  # pragma: no cover - read-only checkouts still benchmark fine
            pass
