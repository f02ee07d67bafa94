#!/usr/bin/env python
"""Quickstart: build a circuit, map it to LUTs, simulate it three ways, sweep it.

This walks through the whole public API in one sitting:

1. build an AIG (an 8-bit ripple-carry adder) with the circuit generators;
2. map it to a 6-LUT network;
3. simulate it with the word-parallel baseline, the per-pattern baseline
   and the STP-based simulator, and check that the three agree;
4. inject redundancy and run the STP-enhanced SAT sweeper;
5. verify the swept network with the combinational equivalence checker.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro.circuits import inject_redundancy
from repro.circuits.arithmetic import ripple_carry_adder
from repro.networks import map_aig_to_klut
from repro.simulation import (
    PatternSet,
    StpSimulator,
    aig_po_signatures,
    klut_po_signatures,
    simulate_aig,
    simulate_klut_per_pattern,
)
from repro.sweeping import check_combinational_equivalence, stp_sweep


def main() -> None:
    # 1. Build a circuit.
    adder = ripple_carry_adder(width=8)
    print(f"built {adder!r} (depth {adder.depth()})")

    # 2. Map it to a 6-LUT network.
    klut, _node_map = map_aig_to_klut(adder, k=6)
    print(f"mapped to {klut!r}")

    # 3. Simulate 1024 random patterns with three different simulators.
    patterns = PatternSet.random(adder.num_pis, 1024, seed=7)
    timings = {}

    start = time.perf_counter()
    aig_result = simulate_aig(adder, patterns)
    timings["word-parallel AIG (baseline TA)"] = time.perf_counter() - start

    start = time.perf_counter()
    lut_result = simulate_klut_per_pattern(klut, patterns)
    timings["per-pattern 6-LUT (baseline TL)"] = time.perf_counter() - start

    start = time.perf_counter()
    stp_result = StpSimulator(klut).simulate_all(patterns)
    timings["STP 6-LUT (this paper)"] = time.perf_counter() - start

    agree = (
        aig_po_signatures(adder, aig_result)
        == klut_po_signatures(klut, lut_result)
        == klut_po_signatures(klut, stp_result)
    )
    print(f"\nsimulated {patterns.num_patterns} patterns; all simulators agree: {agree}")
    for label, seconds in timings.items():
        print(f"  {label:35s} {seconds * 1000:8.2f} ms")
    tl, stp = timings["per-pattern 6-LUT (baseline TL)"], timings["STP 6-LUT (this paper)"]
    print(f"  -> TL speedup of the STP simulator: {tl / stp:.2f}x")

    # 4. Create a sweeping workload and run the STP-enhanced sweeper.
    workload, report = inject_redundancy(
        adder, duplication_fraction=0.25, constant_cones=2, near_miss_count=5, seed=7
    )
    print(
        f"\ninjected redundancy: {report.gates_before} -> {report.gates_after} gates "
        f"({report.duplicated_nodes} duplicated cones, {report.near_miss_nodes} near-miss decoys)"
    )
    swept, stats = stp_sweep(workload, num_patterns=64)
    print(f"swept: {stats}")

    # 5. Verify.
    cec = check_combinational_equivalence(workload, swept)
    print(f"equivalence check: {cec.status}")


if __name__ == "__main__":
    main()
