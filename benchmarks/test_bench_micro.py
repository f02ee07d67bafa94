"""Micro-benchmarks of the primitives behind both tables.

Not tied to one specific table; these isolate the kernels whose relative
cost explains the table-level results: the semi-tensor product itself,
canonical-form construction, cut truth-table computation, window
simulation, and the SAT query path.
"""

from __future__ import annotations

from repro.circuits import epfl_benchmark
from repro.networks import Aig, map_aig_to_klut
from repro.cuts import simulation_cuts
from repro.sat import CircuitSolver
from repro.simulation import (
    PatternSet,
    compute_local_truth_tables,
    cut_truth_table_stp,
    simulate_aig,
)
from repro.stp import expression_to_stp, semi_tensor_product, structural_matrix
from repro.truthtable import TruthTable, truth_table_to_structural_matrix


def test_micro_semi_tensor_product(benchmark):
    """One STP of a 6-input structural matrix with a logic vector chain."""
    import numpy as np

    matrix = truth_table_to_structural_matrix(TruthTable(6, 0x123456789ABCDEF0))
    vector = np.array([[1], [0]])

    def kernel():
        result = matrix
        for _ in range(6):
            result = semi_tensor_product(result, vector)
        return result

    benchmark(kernel)


def test_micro_canonical_form_construction(benchmark):
    """Canonical form of the three-liars expression (Example 2)."""
    benchmark(expression_to_stp, "(a <-> !b) & (b <-> !c) & (c <-> (!a & !b))", ["a", "b", "c"])


def test_micro_structural_matrix_lookup(benchmark):
    benchmark(structural_matrix, "nand")


def test_micro_cut_truth_table(benchmark):
    """Cut function computation on a 6-LUT mapping of the EPFL 'sin' profile."""
    aig = epfl_benchmark("sin")
    klut, _ = map_aig_to_klut(aig, k=6)
    targets = list(klut.luts())[:32]
    cuts = simulation_cuts(klut, targets, limit=8)

    def kernel():
        return [cut_truth_table_stp(klut, cut) for cut in cuts]

    benchmark(kernel)


def test_micro_local_truth_tables(benchmark):
    """One bottom-up pass of per-node exhaustive functions (priority profile)."""
    aig = epfl_benchmark("priority")
    benchmark(compute_local_truth_tables, aig, 12)


def test_micro_bit_parallel_aig_simulation(benchmark):
    aig = epfl_benchmark("bar")
    patterns = PatternSet.random(aig.num_pis, 1024, seed=1)
    benchmark(simulate_aig, aig, patterns)


def test_micro_substitute_fanout_rewrite(benchmark):
    """Chained substitutions on the EPFL 'sin' profile.

    Exercises the incremental `Aig.substitute`: each call must only visit
    the fanouts of the replaced node (the seed implementation scanned all
    gates and rebuilt the whole strash table per call, so this kernel was
    O(merges x gates))."""
    aig = epfl_benchmark("sin")
    gates = list(aig.gates())
    substitutions = []
    for gate in gates[len(gates) // 2 :: 7]:
        substitutions.append(gate)

    def setup():
        return (aig.clone(),), {}

    def kernel(work):
        for gate in substitutions:
            fanin0, _ = work.fanins(gate)
            if Aig.node_of(fanin0) != gate:
                work.substitute(gate, fanin0)
        return work

    work = benchmark.pedantic(kernel, setup=setup, rounds=5, iterations=1)
    assert work.num_ands == aig.num_ands  # substitution never deletes nodes


def test_micro_repeated_cone_encoding(benchmark):
    """Many equivalence queries on one incremental solver ('sin' profile).

    Exercises the cone-local `_encode_cone`: across the run every gate is
    Tseitin-encoded at most once, so the total encoding work is O(network)
    rather than O(queries x network) as in the seed."""
    aig = epfl_benchmark("sin")
    gates = list(aig.gates())
    pairs = [(gates[i], gates[i + 1]) for i in range(0, min(len(gates) - 1, 120), 3)]

    def kernel():
        solver = CircuitSolver(aig, conflict_limit=500)
        for a, b in pairs:
            solver.prove_equivalence(Aig.literal(a), Aig.literal(b), 500)
        return solver

    solver = benchmark(kernel)
    assert solver.num_queries == len(pairs)


def test_micro_topological_order_cached(benchmark):
    """Repeated topological_order queries with interleaved substitutions.

    The cached order answers in O(N) list copies (recomputed at most once
    per mutation epoch) instead of a fresh DFS per call."""
    base = epfl_benchmark("sin")

    def kernel():
        aig = base.clone()
        total = 0
        for _ in range(50):
            total += len(aig.topological_order())
        gate = max(aig.gates())
        aig.substitute(gate, aig.fanins(gate)[0])
        for _ in range(50):
            total += len(aig.topological_order())
        return total

    benchmark(kernel)


def test_micro_counterexample_refinement(benchmark):
    """Buffered counter-example absorption into the incremental simulator."""
    from repro.simulation import IncrementalAigSimulator

    aig = epfl_benchmark("priority")
    patterns = PatternSet.random(aig.num_pis, 64, seed=1)
    counterexamples = [
        tuple((seed >> position) & 1 for position in range(aig.num_pis))
        for seed in range(48)
    ]

    def kernel():
        simulator = IncrementalAigSimulator(aig, patterns)
        for pattern in counterexamples:
            simulator.add_pattern(pattern)
        return simulator.signature(max(aig.gates()))

    benchmark(kernel)


def test_micro_fraig_sweep_sin(benchmark):
    """The acceptance workload: full FRAIG sweep of 'sin' with 64 patterns."""
    from repro.sweeping import FraigSweeper

    aig = epfl_benchmark("sin")

    def kernel():
        return FraigSweeper(aig, num_patterns=64).run()

    swept, stats = benchmark.pedantic(kernel, rounds=3, iterations=1)
    assert swept.num_ands < aig.num_ands
    assert stats.sat_time <= stats.total_time


def test_micro_sat_equivalence_query(benchmark):
    """One UNSAT equivalence proof on associative AND trees (the common merge query)."""
    aig = Aig()
    pis = [aig.add_pi() for _ in range(12)]
    left = aig.add_and_multi(pis)
    right = pis[0]
    for pi in pis[1:]:
        right = aig.add_and(right, pi)
    aig.add_po(left)
    aig.add_po(right)

    def kernel():
        solver = CircuitSolver(aig)
        return solver.prove_equivalence(left, right)

    outcome = benchmark(kernel)
    assert outcome.is_equivalent
