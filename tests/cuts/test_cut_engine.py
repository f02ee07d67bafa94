"""Tests for the shared priority-cut engine (repro.cuts)."""

import random

import pytest

from repro.circuits import epfl_benchmark
from repro.circuits.random_logic import random_aig
from repro.cuts import (
    Cut,
    CutEngine,
    CutFunctionCache,
    aig_cone_table,
    merge_cut_sets,
    trivial_cut,
)
from repro.networks import Aig
from repro.rewriting import compute_choices
from repro.simulation import PatternSet, simulate_aig
from repro.truthtable import TruthTable


class TestFusedTables:
    @pytest.mark.parametrize("seed", [1, 7, 42, 99])
    def test_fused_tables_match_cone_walk(self, seed):
        """Every enumerated cut's fused table equals the reference walker's."""
        aig = random_aig(num_pis=6, num_gates=40, num_pos=3, seed=seed)
        engine = CutEngine(aig, k=4)
        for node, cuts in engine.enumerate_all().items():
            if not aig.is_and(node):
                continue
            for cut in cuts:
                assert cut.table is not None
                if cut.leaves == (node,):
                    assert cut.table == TruthTable.variable(0, 1)
                    continue
                assert cut.table == aig_cone_table(aig, node, cut.leaves)

    def test_constant_fanin_table(self):
        """A gate rewired onto the constant node keeps sound fused tables."""
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        aig.add_po(y)
        aig.substitute(Aig.node_of(x), 0)  # x proven constant false
        engine = CutEngine(aig, k=4)
        cuts = engine.cuts(Aig.node_of(y))
        for cut in cuts:
            if cut.leaves == (Aig.node_of(y),):
                continue
            assert cut.table is not None
            assert cut.table.bits == 0  # y = false & c = false

    def test_tables_off(self):
        aig = random_aig(num_pis=4, num_gates=10, num_pos=2, seed=3)
        engine = CutEngine(aig, k=4, compute_tables=False)
        for node, cuts in engine.enumerate_all().items():
            for cut in cuts:
                assert cut.table is None


class TestCutSetInvariants:
    @pytest.mark.parametrize("seed", [2, 11])
    def test_no_dominated_cuts_and_bounds(self, seed):
        aig = random_aig(num_pis=6, num_gates=50, num_pos=3, seed=seed)
        engine = CutEngine(aig, k=4, cut_limit=6)
        for node, cuts in engine.enumerate_all().items():
            if not aig.is_and(node):
                continue
            assert len(cuts) <= 6
            assert cuts[-1] == Cut((node,))  # trivial cut always kept, last
            nontrivial = cuts[:-1]
            for cut in nontrivial:
                assert 1 <= cut.size <= 4
            for i, one in enumerate(nontrivial):
                for j, other in enumerate(nontrivial):
                    if i != j:
                        assert not (one.dominates(other) and one != other)


class TestIncrementalMaintenance:
    def test_substitute_invalidates_exactly_rewired_gates(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        z = aig.add_and(y, a)
        aig.add_po(z)
        engine = CutEngine(aig, k=4, attach=True)
        engine.enumerate_all()
        replacement = aig.add_and(a, c)
        engine.note_created(Aig.node_of(replacement))
        aig.substitute(Aig.node_of(y), replacement)
        # Only z (the single fanout of y) was rewired.
        assert engine.invalidations == 1
        cuts = engine.cuts(Aig.node_of(z))
        live_leaves = {leaf for cut in cuts for leaf in cut.leaves}
        assert Aig.node_of(y) not in live_leaves
        for cut in cuts:
            if cut.leaves != (Aig.node_of(z),):
                assert cut.table == aig_cone_table(aig, Aig.node_of(z), cut.leaves)
        engine.detach()

    def test_recompute_after_invalidation_matches_fresh_engine(self):
        aig = random_aig(num_pis=5, num_gates=30, num_pos=3, seed=17)
        engine = CutEngine(aig, k=4, attach=True)
        engine.enumerate_all()
        # Substitute one internal node by one of its fanins (a legal,
        # acyclicity-preserving rewire).
        gates = [n for n in aig.topological_order() if aig.fanout_count(n) > 0]
        target = gates[len(gates) // 2]
        fanin_literal = aig.fanins(target)[0]
        aig.substitute(target, fanin_literal)
        fresh = CutEngine(aig, k=4)
        fresh_db = fresh.enumerate_all()
        for node in aig.topological_order():
            if aig.fanout_count(node) == 0 and node != target:
                continue
            if node == target:
                continue
            # Rewired gates recompute lazily and match a from-scratch
            # enumeration; untouched gates kept their sets.
            rewired = {g for g in aig.fanouts(Aig.node_of(fanin_literal))}
            if node in rewired:
                assert engine.cuts(node) == fresh_db[node]
        engine.detach()

    def test_detach_stops_invalidation(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        aig.add_po(y)
        engine = CutEngine(aig, k=4, attach=True)
        engine.enumerate_all()
        engine.detach()
        aig.substitute(Aig.node_of(x), a)
        assert engine.invalidations == 0

    def test_kill_and_revive(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        aig.add_po(y)
        engine = CutEngine(aig, k=4)
        engine.kill([Aig.node_of(x), Aig.node_of(y)])
        assert engine.is_dead(Aig.node_of(x))
        assert engine.num_dead == 2
        revived = engine.revive_from(Aig.node_of(y))
        assert revived == 2
        assert not engine.is_dead(Aig.node_of(x))


class TestCutFunctionCache:
    def test_cache_hits_on_repeated_structure(self):
        # A ripple chain repeats the same local merge structure, so the
        # cache must answer most merges.
        aig = Aig()
        inputs = [aig.add_pi() for _ in range(31)]
        literal = inputs[0]
        for pi in inputs[1:]:
            literal = aig.add_and(literal, pi)
        aig.add_po(literal)
        engine = CutEngine(aig, k=4)
        engine.enumerate_all()
        assert engine.cache.hits > engine.cache.misses
        assert 0.0 < engine.cache.hit_rate < 1.0

    @pytest.mark.parametrize("name", ["adder", "sin", "max", "mem_ctrl"])
    def test_cache_answers_most_merges_on_epfl_profiles(self, name):
        # Real netlists repeat local structure; the cache must answer a
        # large share of the merges even on the seeded-random control
        # profile mem_ctrl.
        engine = CutEngine(epfl_benchmark(name), k=6)
        engine.enumerate_all()
        assert engine.cache.hit_rate > 0.4, f"{name}: hit rate {engine.cache.hit_rate:.1%}"

    def test_shared_cache_across_engines(self):
        aig = random_aig(num_pis=5, num_gates=25, num_pos=2, seed=9)
        cache = CutFunctionCache()
        CutEngine(aig, k=4, cache=cache).enumerate_all()
        misses_first = cache.misses
        CutEngine(aig, k=4, cache=cache).enumerate_all()
        assert cache.misses == misses_first  # second run fully cached

    def test_clear_resets_counters(self):
        cache = CutFunctionCache()
        table = TruthTable.variable(0, 1)
        cache.merge_table(table, (1,), 0, table, (2,), 0, (1, 2))
        assert cache.misses == 1
        cache.clear()
        assert cache.hits == cache.misses == 0
        assert cache.num_entries == 0


class TestTrivialCut:
    def test_trivial_cut_table_is_identity(self):
        cut = trivial_cut(7)
        assert cut.leaves == (7,)
        assert cut.table == TruthTable.variable(0, 1)
        assert trivial_cut(7, with_table=False).table is None


def eager_merge_cut_sets(node, fanin0, fanin1, cuts0, cuts1, k, cut_limit, cache=None):
    """Reference: eager insertion-order merging, which :func:`merge_cut_sets` must reproduce.

    Every non-dominated candidate gets its table as it arrives, evicts
    the kept candidates it dominates, and the survivors are stably
    sorted by size and truncated to ``cut_limit - 1`` at the end.
    """
    comp0, comp1 = fanin0 & 1, fanin1 & 1
    merged = []
    for cut0 in cuts0:
        for cut1 in cuts1:
            leaves = tuple(sorted(set(cut0.leaves) | set(cut1.leaves)))
            if len(leaves) > k:
                continue
            if any(set(kept.leaves) <= set(leaves) for kept in merged):
                continue
            merged = [kept for kept in merged if not set(leaves) < set(kept.leaves)]
            if cache is not None and cut0.table is not None and cut1.table is not None:
                table = cache.merge_table(cut0.table, cut0.leaves, comp0, cut1.table, cut1.leaves, comp1, leaves)
                merged.append(Cut(leaves, table))
            else:
                merged.append(Cut(leaves))
    merged.sort(key=lambda cut: cut.size)
    merged = merged[: cut_limit - 1]
    merged.append(trivial_cut(node, with_table=cache is not None))
    return merged


class CountingCache(CutFunctionCache):
    """A cut-function cache that counts its ``merge_table`` calls."""

    def __init__(self):
        super().__init__()
        self.merge_calls = 0

    def merge_table(self, *args):
        self.merge_calls += 1
        return super().merge_table(*args)


def _random_cut_set(rng, k, with_tables):
    """A fanin cut set over a small leaf pool: overlaps and repeated leaf sets."""
    pool = [tuple(sorted(rng.sample(range(1, 13), rng.randint(0, k)))) for _ in range(rng.randint(1, 6))]
    cuts = []
    for _ in range(rng.randint(1, 12)):
        leaves = rng.choice(pool)
        table = TruthTable(len(leaves), rng.getrandbits(1 << len(leaves))) if with_tables else None
        cuts.append(Cut(leaves, table))
    return cuts


def _signature(cuts):
    return [(cut.leaves, None if cut.table is None else cut.table.bits) for cut in cuts]


class TestMergeCutSetsOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_eager_reference(self, seed):
        """Same leaves, same order, same table bits as eager merging."""
        rng = random.Random(seed)
        for _ in range(150):
            k = rng.randint(2, 8)
            cut_limit = rng.randint(1, 16)
            with_cache = rng.random() < 0.7
            cuts0 = _random_cut_set(rng, k, with_cache)
            cuts1 = _random_cut_set(rng, k, with_cache)
            fanin0, fanin1 = 2 * 20 + rng.getrandbits(1), 2 * 21 + rng.getrandbits(1)
            reference_cache = CutFunctionCache() if with_cache else None
            cache = CountingCache() if with_cache else None
            expected = eager_merge_cut_sets(30, fanin0, fanin1, cuts0, cuts1, k, cut_limit, reference_cache)
            result = merge_cut_sets(30, fanin0, fanin1, cuts0, cuts1, k, cut_limit, cache)
            assert _signature(result) == _signature(expected)
            if cache is not None:
                # One fused table per kept cut, none for dropped candidates.
                assert cache.merge_calls == len(result) - 1

    @pytest.mark.parametrize("use_choices", [False, True])
    def test_enumeration_matches_eager_reference(self, monkeypatch, use_choices):
        """Whole-network cut sets are unchanged, plain and choice-merged."""
        for seed in range(40):
            aig = random_aig(num_pis=7, num_gates=50, num_pos=4, seed=seed)
            if use_choices:
                aig, _report = compute_choices(aig)
            k, cut_limit = 2 + seed % 5, 2 + seed % 9
            result = CutEngine(aig, k=k, cut_limit=cut_limit, use_choices=use_choices).enumerate_all()
            with monkeypatch.context() as patch:
                patch.setattr("repro.cuts.engine.merge_cut_sets", eager_merge_cut_sets)
                expected = CutEngine(aig, k=k, cut_limit=cut_limit, use_choices=use_choices).enumerate_all()
            assert result.keys() == expected.keys()
            for node, cuts in expected.items():
                assert _signature(result[node]) == _signature(cuts), (seed, node)


def _cut_output(cut, result):
    """The cut's table applied word-parallel to its leaves' simulated signatures."""
    mask = result.mask
    leaves = [result.signature(leaf) for leaf in cut.leaves]
    output = 0
    for minterm in range(1 << len(leaves)):
        if cut.table.value_at(minterm):
            word = mask
            for position, signature in enumerate(leaves):
                word &= signature if minterm >> position & 1 else ~signature
            output |= word
    return output & mask


class TestEpflEnumeration:
    """Whole-network enumeration at k = 6, every fifth gate's cuts checked by simulation."""

    @pytest.mark.parametrize("with_tables", [False, True], ids=["plain", "fused-tables"])
    def test_enumeration_on_sin(self, with_tables):
        aig = epfl_benchmark("sin")
        db = CutEngine(aig, k=6, compute_tables=with_tables).enumerate_all()
        assert len(db) > aig.num_ands
        if not with_tables:
            assert all(cut.table is None for cuts in db.values() for cut in cuts)
            fused = CutEngine(aig, k=6).enumerate_all()
            assert {node: [cut.leaves for cut in cuts] for node, cuts in db.items()} == {
                node: [cut.leaves for cut in cuts] for node, cuts in fused.items()
            }
            return
        result = simulate_aig(aig, PatternSet.random(aig.num_pis, 64, seed=2))
        for node in list(aig.gates())[::5]:
            for cut in db[node]:
                assert cut.size <= 6
                assert _cut_output(cut, result) == result.signature(node), (node, cut.leaves)

    @pytest.mark.parametrize("use_choices", [False, True], ids=["plain", "choice-aware"])
    def test_enumeration_over_choices_on_max(self, use_choices):
        augmented, _report = compute_choices(epfl_benchmark("max"))
        db = CutEngine(augmented, k=6, use_choices=use_choices).enumerate_all()
        assert len(db) > augmented.num_ands
        result = simulate_aig(augmented, PatternSet.random(augmented.num_pis, 64, seed=2))
        borrowed = 0
        for node in list(augmented.gates())[::5]:
            cone = set(augmented.tfi([node]))
            for cut in db[node]:
                assert _cut_output(cut, result) == result.signature(node), (node, cut.leaves)
                borrowed += not set(cut.leaves) <= cone
        # Only class-merged sets hold cuts taken from another member's cone.
        assert (borrowed > 0) == use_choices
