"""Randomised cross-validation of the two sweeping engines.

For every seed: build a random circuit, inject redundancy, sweep it with
both engines, and check the three invariants the paper relies on --
functional equivalence (verified exhaustively on these small circuits,
not just by the CEC miter), interface preservation, and never *growing*
the network.
"""

import itertools
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import EPFL_BENCHMARKS, epfl_benchmark
from repro.circuits.random_logic import random_aig
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import Aig
from repro.networks.structural_hash import structural_hash
from repro.networks.traversal import fanout_counts, topological_sort
from repro.sat import CircuitSolver, EquivalenceStatus
from repro.simulation import PatternSet, compute_local_truth_tables, compute_pi_supports, simulate_aig
from repro.simulation.stp_simulator import complement_key, function_key
from repro.sweeping import FraigSweeper, StpSweeper
from repro.sweeping.engine import SweepEngine
from repro.sweeping.stats import SweepStatistics


def fanout_counts_impl(aig: Aig) -> dict[int, int]:
    """Reference counts of every node, recomputed from scratch by the generic traversal helper."""
    return fanout_counts(aig.nodes(), aig.gate_fanin_nodes, aig.po_nodes())


def _exhaustively_equal(a: Aig, b: Aig) -> bool:
    if a.num_pis != b.num_pis or a.num_pos != b.num_pos:
        return False
    for assignment in range(1 << a.num_pis):
        values = [bool(assignment & (1 << i)) for i in range(a.num_pis)]
        if a.evaluate(values) != b.evaluate(values):
            return False
    return True


def _workload(seed: int, num_pis: int = 6, num_gates: int = 60) -> Aig:
    base = random_aig(num_pis=num_pis, num_gates=num_gates, num_pos=5, seed=seed)
    workload, _report = inject_redundancy(
        base,
        duplication_fraction=0.25,
        constant_cones=1,
        near_miss_count=2,
        cut_size=3,
        seed=seed + 1,
    )
    return workload


class TestSweeperFuzz:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_stp_sweeper_preserves_function(self, seed):
        workload = _workload(seed)
        swept, stats = StpSweeper(workload, num_patterns=32).run()
        assert _exhaustively_equal(workload, swept)
        assert swept.num_ands <= workload.num_ands
        assert stats.gates_after == swept.num_ands

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_baseline_sweeper_preserves_function(self, seed):
        workload = _workload(seed)
        swept, _stats = FraigSweeper(workload, num_patterns=32).run()
        assert _exhaustively_equal(workload, swept)
        assert swept.num_ands <= workload.num_ands

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_engines_agree_on_result_size(self, seed):
        # The two engines explore merges in different orders, so on rare
        # seeds one may catch a merge the other misses (e.g. seed 98
        # differs by one gate); exact size equality is not an invariant.
        # What must hold: both results are equivalent (to the workload and
        # hence to each other) and their sizes stay close.
        workload = _workload(seed)
        baseline, _ = FraigSweeper(workload, num_patterns=32).run()
        swept, _ = StpSweeper(workload, num_patterns=32).run()
        assert _exhaustively_equal(baseline, swept)
        assert abs(swept.num_ands - baseline.num_ands) <= max(2, workload.num_ands // 20)

    @pytest.mark.parametrize("seed", range(40))
    def test_skipped_dangling_gates_are_never_revived(self, seed, monkeypatch):
        # A gate is skipped once every reference to it sits in merged or
        # skipped gates.  The skip is exact only if no later merge brings
        # it back: no substitution may pick a driver whose fanin cone
        # holds a skipped gate.  Every gate the sweep may pick as a driver
        # has a smaller index than the candidate, so a candidate below
        # every skipped gate keeps them out of the cone of any driver, not
        # only of the one picked.
        workload = _workload(seed)
        sweeper = StpSweeper(workload, num_patterns=32)
        substitute = Aig.substitute
        revived: list[int] = []
        exposed: list[int] = []

        def checked_substitute(aig: Aig, old_node: int, new_literal: int) -> int:
            revived.extend(sweeper.dangling.intersection(aig.tfi([Aig.node_of(new_literal)])))
            exposed.extend(gate for gate in sweeper.dangling if gate < old_node)
            return substitute(aig, old_node, new_literal)

        monkeypatch.setattr(Aig, "substitute", checked_substitute)
        swept, stats = sweeper.run()
        assert not revived
        assert not exposed
        assert stats.extra["dangling_skipped"] == len(sweeper.dangling)
        assert _exhaustively_equal(workload, swept)

    @pytest.mark.parametrize("seed", range(40))
    def test_patterns_used_counts_every_simulated_pattern(self, seed):
        # fraig simulates its random patterns plus one pattern per SAT
        # counter-example; the STP sweeper's SAT-guided set and its
        # constant pass's counter-examples come on top of its random ones.
        workload = _workload(seed)
        _swept, fraig = FraigSweeper(workload, num_patterns=32).run()
        assert fraig.patterns_used == 32 + fraig.counterexamples_simulated
        _swept, stp = StpSweeper(workload, num_patterns=32).run()
        assert stp.patterns_used >= 32 + stp.counterexamples_simulated

    @pytest.mark.parametrize("seed", [3, 17])
    def test_sweeping_is_idempotent(self, seed):
        workload = _workload(seed)
        once, _ = StpSweeper(workload, num_patterns=32).run()
        twice, stats = StpSweeper(once, num_patterns=32).run()
        assert twice.num_ands == once.num_ands
        assert _exhaustively_equal(once, twice)


class TestExhaustiveVerdict:
    """Equal function keys prove a pair; only uncovered pairs reach SAT."""

    @pytest.mark.parametrize("seed", range(3))
    def test_key_verdict_matches_sat(self, seed):
        # A 4-leaf window on 10 inputs leaves some nodes without a key and
        # gives many keyed pairs a joint support wider than the window.
        aig = _workload(seed, num_pis=10, num_gates=30)
        sweeper = StpSweeper(aig, num_patterns=32, window_leaves=4)
        sweeper._load_tables(aig)
        solver = CircuitSolver(aig)
        keyed = [node for node in aig.nodes() if sweeper._function_key(node) is not None]
        verdicts = set()
        for a, b in itertools.combinations(keyed, 2):
            for inverted in (False, True):
                outcome = solver.prove_equivalence(Aig.literal(b), Aig.literal(a, inverted))
                assert outcome.status is not EquivalenceStatus.UNDETERMINED
                verdict = sweeper._local_verdict(b, a, inverted)
                assert verdict == (outcome.status is EquivalenceStatus.EQUIVALENT), (a, b, inverted)
                verdicts.add(verdict)
        assert verdicts == {False, True}
        assert len(keyed) < aig.num_nodes

    @pytest.mark.parametrize("window_leaves", [4, 16])
    @pytest.mark.parametrize("seed", range(40))
    def test_sat_never_sees_a_keyed_pair(self, seed, window_leaves, monkeypatch):
        workload = _workload(seed)
        supports = compute_pi_supports(workload, window_leaves)
        tables = compute_local_truth_tables(workload, window_leaves, supports)
        keyed = {node for node, table in tables.items() if table is not None and supports.get(node) is not None}
        prove = CircuitSolver.prove_equivalence
        queried: list[tuple[int, int]] = []

        def recording_prove(solver, literal_a, literal_b, conflict_limit=None):
            queried.append((Aig.node_of(literal_a), Aig.node_of(literal_b)))
            return prove(solver, literal_a, literal_b, conflict_limit)

        monkeypatch.setattr(CircuitSolver, "prove_equivalence", recording_prove)
        swept, stats = StpSweeper(workload, num_patterns=32, window_leaves=window_leaves).run()
        monkeypatch.undo()
        assert not [pair for pair in queried if pair[0] in keyed and pair[1] in keyed]
        assert _exhaustively_equal(workload, swept)
        if window_leaves == 16:
            assert not queried
            assert stats.extra["exhaustive_proofs"] >= stats.merges - stats.constant_merges


def _check_verdicts(monkeypatch) -> dict[str, int]:
    """Check every ``_local_verdict`` against a fresh :func:`function_key` comparison.

    Returns the number of keyed pairs seen, by whether the two nodes
    share their structural support (decided from the raw tables) or not.
    """
    local_verdict = SweepEngine._local_verdict
    seen = {"same_support": 0, "other_support": 0}

    def checked(self, candidate, driver, inverted):
        verdict = local_verdict(self, candidate, driver, inverted)
        tables, supports = self._local_tables, self._supports
        if tables.get(candidate) is None or tables.get(driver) is None:
            assert verdict is None
            return verdict
        candidate_key = function_key(tables[candidate], supports[candidate])
        driver_key = function_key(tables[driver], supports[driver])
        assert verdict == (candidate_key == (complement_key(driver_key) if inverted else driver_key))
        seen["same_support" if supports[candidate] == supports[driver] else "other_support"] += 1
        return verdict

    monkeypatch.setattr(SweepEngine, "_local_verdict", checked)
    return seen


def _sweep_twice(aig: Aig, monkeypatch, **options) -> tuple[tuple[str, int], tuple[str, int], float]:
    """(structure, gates) of an STP sweep with and without key lemmas, and the lemma count."""
    swept, stats = StpSweeper(aig, **options).run()
    with monkeypatch.context() as patch:
        patch.setattr(SweepEngine, "_function_table", lambda self, node: None)
        bare, bare_stats = StpSweeper(aig, **options).run()
    assert bare_stats.extra["key_lemmas"] == 0
    return (
        (structural_hash(swept), stats.gates_after),
        (structural_hash(bare), bare_stats.gates_after),
        stats.extra["key_lemmas"],
    )


class TestKeyLemmas:
    """Key lemmas in the SAT encoding and the raw-table verdict change no sweep."""

    @pytest.mark.parametrize("seed", range(40))
    def test_lemma_free_sweep_is_identical(self, seed, monkeypatch):
        seen = _check_verdicts(monkeypatch)
        with_lemmas, without, _lemmas = _sweep_twice(_workload(seed), monkeypatch, num_patterns=32)
        assert with_lemmas == without
        assert seen["same_support"] + seen["other_support"] > 0

    def test_lemma_free_sweeps_of_epfl_are_identical(self, monkeypatch):
        seen = _check_verdicts(monkeypatch)
        lemmas = 0.0
        for name in EPFL_BENCHMARKS:
            with_lemmas, without, count = _sweep_twice(epfl_benchmark(name), monkeypatch, num_patterns=64, seed=1)
            assert with_lemmas == without, name
            lemmas += count
        assert lemmas > 0
        assert seen["same_support"] > seen["other_support"] > 0


def _check_driver_lists(monkeypatch) -> dict[str, int]:
    """Check every driver list against the unfiltered order minus the key disproofs.

    The reference keys come from the whole-network tables of the
    sweep's input.  Returns the number of lists checked and of members
    the keys dropped.
    """
    drivers = SweepEngine._drivers
    seen = {"lists": 0, "dropped": 0}
    reference: dict[str, Any] = {}

    def key(sweeper, node):
        if reference.get("network") is not sweeper.original:
            supports = compute_pi_supports(sweeper.original, sweeper.window_leaves)
            tables = compute_local_truth_tables(sweeper.original, sweeper.window_leaves, supports)
            reference.update(network=sweeper.original, supports=supports, tables=tables, keys={})
        keys = reference["keys"]
        if node not in keys:
            table = reference["tables"].get(node)
            keys[node] = None if table is None else function_key(table, reference["supports"][node])
        return keys[node]

    def checked(self, candidate, cls, tfi, disproved, stats):
        members = [member for member in cls.members if member < candidate and member not in disproved]
        result = drivers(self, candidate, cls, tfi, disproved, stats)
        if not members:
            assert result is None
            return result
        expected = tfi.order_drivers(candidate, members)
        if members[0] == 0:
            expected = [0] + [driver for driver in expected if driver != 0]
        candidate_key = key(self, candidate)

        def disproves(member):
            member_key = key(self, member)
            if candidate_key is None or member_key is None:
                return False
            inverted = cls.polarity[candidate] != cls.polarity[member]
            return candidate_key != (complement_key(member_key) if inverted else member_key)

        assert result == [driver for driver in expected if not disproves(driver)], candidate
        seen["lists"] += 1
        seen["dropped"] += len(expected) - len(result)
        return result

    monkeypatch.setattr(SweepEngine, "_drivers", checked)
    return seen


class TestKeyFirstDrivers:
    """The key filter drops exactly the drivers the keys disprove, in the unfiltered order."""

    @pytest.mark.parametrize("seed", range(40))
    def test_driver_lists_of_fuzz_workloads(self, seed, monkeypatch):
        seen = _check_driver_lists(monkeypatch)
        workload = _workload(seed)
        swept, stats = StpSweeper(workload, num_patterns=32).run()
        assert seen["lists"] > 0
        assert stats.simulation_disproofs >= seen["dropped"]
        assert _exhaustively_equal(workload, swept)

    def test_driver_lists_of_epfl(self, monkeypatch):
        seen = _check_driver_lists(monkeypatch)
        dropped = 0
        for name in EPFL_BENCHMARKS:
            _swept, stats = StpSweeper(epfl_benchmark(name), num_patterns=64, seed=1).run()
            dropped += stats.simulation_disproofs
        assert seen["dropped"] > 0
        assert dropped >= seen["dropped"]


def _sweep_recording_tables(aig: Aig, monkeypatch, **options) -> tuple[dict[int, Any], set[int], SweepStatistics]:
    """Sweep with the STP sweeper; returns its table cache, the requested roots and the statistics."""
    build = SweepEngine._build_tables
    cache: dict[int, Any] = {}
    requested: set[int] = set()

    def recording(self, roots):
        requested.update(roots)
        build(self, roots)
        cache.update(self._local_tables)

    with monkeypatch.context() as patch:
        patch.setattr(SweepEngine, "_build_tables", recording)
        _swept, stats = StpSweeper(aig, **options).run()
    return cache, requested, stats


def _eager_tables(aig: Aig) -> dict[int, Any]:
    return compute_local_truth_tables(aig, 16, compute_pi_supports(aig, 16))


class TestOnDemandTables:
    """Tables built on demand equal the whole-network pass, and none is built unread."""

    @pytest.mark.parametrize("seed", range(40))
    def test_tables_of_fuzz_workloads(self, seed, monkeypatch):
        workload = _workload(seed)
        built, _requested, stats = _sweep_recording_tables(workload, monkeypatch, num_patterns=32)
        eager = _eager_tables(workload)
        supports = compute_pi_supports(workload, 16)
        # An oracle that shares no code with the table builder: each node's
        # exhaustive simulation over all inputs.
        simulated = simulate_aig(workload, PatternSet.exhaustive(workload.num_pis))
        position = {pi: index for index, pi in enumerate(workload.pis)}
        gates = [node for node in built if workload.is_and(node)]
        assert stats.extra["tables_built"] == len(gates) > 0
        for node in gates:
            assert built[node] == eager[node], node
            table = built[node].extend(workload.num_pis, [position[leaf] for leaf in supports[node]])
            assert table.bits == simulated.signature(node), node

    def test_tables_of_epfl(self, monkeypatch):
        for name in EPFL_BENCHMARKS:
            aig = epfl_benchmark(name)
            built, _requested, stats = _sweep_recording_tables(aig, monkeypatch, num_patterns=64, seed=1)
            eager = _eager_tables(aig)
            gates = [node for node in built if aig.is_and(node)]
            assert stats.extra["tables_built"] == len(gates), name
            assert all(built[node] == eager[node] for node in gates), name

    @pytest.mark.parametrize("name", ["adder", "bar"])
    def test_every_table_built_is_read(self, name, monkeypatch):
        # A table is read when a verdict, a key, the solver or the constant
        # pass asks for it, or when a table above it is built from it.
        aig = epfl_benchmark(name)
        built, requested, stats = _sweep_recording_tables(aig, monkeypatch, num_patterns=64, seed=1)
        gates = {node for node in built if aig.is_and(node)}
        fanins = {fanin for node in gates for fanin in aig.fanin_nodes(node)}
        assert stats.extra["tables_built"] == len(gates)
        assert gates <= requested | fanins
        narrow = [node for node, support in compute_pi_supports(aig, 16).items() if support is not None]
        assert len(gates) < len([node for node in narrow if aig.is_and(node)])


def _reference_topological_order(aig: Aig) -> list[int]:
    """From-scratch fanin-before-fanout order, bypassing the cache."""
    roots = [Aig.node_of(po) for po in aig.pos] + list(aig.gates())
    order = topological_sort(roots, aig.gate_fanin_nodes)
    return [n for n in order if aig.is_and(n)]


def _assert_incremental_state_consistent(aig: Aig) -> None:
    """Cross-check every incrementally maintained structure of an AIG.

    Cached topological order, maintained fanout lists / counts, and the
    patched strash table must all agree with a from-scratch rebuild.
    """
    # Cached topological order is a valid fanin-before-fanout order over
    # exactly the AND gates.
    cached = aig.topological_order()
    assert sorted(cached) == sorted(aig.gates())
    position = {node: i for i, node in enumerate(cached)}
    for node in cached:
        for fanin in aig.fanin_nodes(node):
            if aig.is_and(fanin):
                assert position[fanin] < position[node]
    # Cached positions agree with the returned order.
    for node in cached:
        assert aig.topological_position(node) == position[node]
    # The cached order covers the same gates as a fresh recomputation.
    assert sorted(cached) == sorted(_reference_topological_order(aig))
    # Maintained fanout counts match the from-scratch edge scan.
    assert aig.fanout_counts() == fanout_counts_impl(aig)
    # Maintained fanout lists match the fanin edges.
    for node in aig.gates():
        for fanin in aig.fanins(node):
            assert aig.fanouts(Aig.node_of(fanin)).count(node) >= 1
    # The strash table maps canonical fanin keys to gates with those fanins.
    for key, gate in aig._strash.items():
        fanin0, fanin1 = aig.fanins(gate)
        assert key == ((fanin0, fanin1) if fanin0 <= fanin1 else (fanin1, fanin0))


class TestIncrementalInvariantsFuzz:
    """The incremental engine's caches must equal a from-scratch rebuild."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_randomized_substitutions_keep_state_consistent(self, seed):
        import random

        rng = random.Random(seed)
        aig = _workload(seed)
        gates = [g for g in aig.gates()]
        for _ in range(10):
            candidate = rng.choice(gates)
            # Substitute by one of its fanins (structurally always legal).
            fanin0, _fanin1 = aig.fanins(candidate)
            if Aig.node_of(fanin0) == candidate:
                continue
            aig.substitute(candidate, fanin0)
            _assert_incremental_state_consistent(aig)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_sweep_leaves_state_consistent(self, seed):
        workload = _workload(seed)
        sweeper = FraigSweeper(workload, num_patterns=32)
        swept, _stats = sweeper.run()
        _assert_incremental_state_consistent(swept)

    def test_replace_fanin_keeps_state_consistent(self):
        aig = _workload(5)
        gate = max(aig.gates())
        fanin0, _ = aig.fanins(gate)
        target = Aig.node_of(fanin0)
        if aig.is_and(target):
            inner0, _ = aig.fanins(target)
            aig.replace_fanin(gate, target, inner0)
            _assert_incremental_state_consistent(aig)
