"""Tests for the DAG-aware cut rewriting pass."""

import pytest

from repro.circuits.arithmetic import ripple_carry_adder
from repro.circuits.random_logic import random_aig
from repro.cuts import CutEngine
from repro.networks import Aig
from repro.networks.transforms import cleanup_dangling
from repro.rewriting import RewriteLibrary, collect_mffc, rewrite
from repro.rewriting.library import default_library
from repro.rewriting.rewrite import _instantiate
from repro.sweeping import check_combinational_equivalence


def _exhaustively_equal(a: Aig, b: Aig) -> bool:
    if a.num_pis != b.num_pis or a.num_pos != b.num_pos:
        return False
    for assignment in range(1 << a.num_pis):
        values = [bool(assignment & (1 << i)) for i in range(a.num_pis)]
        if a.evaluate(values) != b.evaluate(values):
            return False
    return True


class TestRewriteCorrectness:
    def test_adder_reduces_and_stays_equivalent(self):
        aig = ripple_carry_adder(width=6)
        result, report = rewrite(aig)
        assert result.num_ands < aig.num_ands
        assert _exhaustively_equal(aig, result)
        assert report.rewrites_applied > 0
        assert report.gates_after == result.num_ands

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_logic_equivalent(self, seed):
        aig = random_aig(num_pis=6, num_gates=80, num_pos=5, seed=seed)
        result, _report = rewrite(aig)
        assert _exhaustively_equal(aig, result)

    def test_never_grows_a_clean_network(self):
        for seed in (5, 6, 7):
            aig, _ = cleanup_dangling(random_aig(num_pis=7, num_gates=90, num_pos=5, seed=seed))
            result, report = rewrite(aig)
            assert result.num_ands <= aig.num_ands
            # On a dangling-free input the accumulated gain is a lower
            # bound on the reduction (the final cleanup rebuild can merge
            # gates that became structurally identical, freeing more).
            assert report.gates_after <= report.gates_before - report.estimated_gain

    def test_zero_gain_still_equivalent(self):
        aig = random_aig(num_pis=6, num_gates=70, num_pos=4, seed=9)
        result, report = rewrite(aig, zero_gain=True)
        assert _exhaustively_equal(aig, result)
        assert result.num_ands <= aig.num_ands
        assert report.zero_gain_applied >= 0

    def test_second_pass_converges(self):
        aig = ripple_carry_adder(width=8)
        once, _ = rewrite(aig)
        twice, report = rewrite(once)
        assert twice.num_ands <= once.num_ands
        assert _exhaustively_equal(once, twice)
        # The second pass finds little: the first pass already rewrote.
        assert once.num_ands - twice.num_ands <= once.num_ands // 5

    def test_interface_preserved(self):
        aig = ripple_carry_adder(width=5, name="keeps_names")
        result, _ = rewrite(aig)
        assert result.num_pis == aig.num_pis
        assert result.num_pos == aig.num_pos
        assert result.pi_names == aig.pi_names
        assert result.po_names == aig.po_names

    def test_shared_library_instance(self):
        library = RewriteLibrary()
        aig = ripple_carry_adder(width=4)
        result, _ = rewrite(aig, library=library)
        assert _exhaustively_equal(aig, result)
        assert library.num_cached_classes > 0

    def test_invalid_parameters(self):
        aig = ripple_carry_adder(width=3)
        with pytest.raises(ValueError):
            rewrite(aig, cut_size=1)
        with pytest.raises(ValueError):
            rewrite(aig, cut_size=5)  # exceeds the default library arity


class TestRewriteOnMutatedNetworks:
    def test_network_with_dangling_nodes(self):
        # random_aig leaves unreachable gates; rewrite must survive them
        # and the cleanup must drop them.
        aig = random_aig(num_pis=6, num_gates=60, num_pos=3, seed=21)
        clean, _ = cleanup_dangling(aig)
        result, _report = rewrite(aig)
        assert _exhaustively_equal(clean, result)
        assert result.num_ands <= clean.num_ands

    def test_rewrite_after_substitution(self):
        aig = ripple_carry_adder(width=6)
        # Emulate a sweeping merge first: substitute one gate by an
        # equivalent literal, leaving a dangling cone behind.
        order = aig.topological_order()
        victim = order[len(order) // 2]
        fanin0, _ = aig.fanins(victim)
        reference = aig.clone()
        result, _ = rewrite(aig)
        assert _exhaustively_equal(reference, result)

    def test_cec_on_larger_network(self):
        aig = random_aig(num_pis=12, num_gates=300, num_pos=8, seed=33)
        result, _ = rewrite(aig)
        assert check_combinational_equivalence(aig, result)


@pytest.mark.parametrize("name", ["adder", "sin"])
def test_rewrite_pass_on_epfl(name):
    from repro.circuits import epfl_benchmark

    aig = epfl_benchmark(name)
    result, report = rewrite(aig)
    assert result.num_ands < aig.num_ands
    assert report.rewrites_applied > 0
    assert check_combinational_equivalence(aig, result)


def reference_price(aig, structure, leaves, root, mffc, engine):
    """Reference dry run: the gates ``structure`` would add over ``leaves``, and whether it is acyclic."""
    created = 0
    entries = [(0, 0)] + [(leaf, 0) for leaf in leaves]
    for fanin0, fanin1 in structure.gates:
        entry0, entry1 = entries[fanin0 >> 1], entries[fanin1 >> 1]
        if entry0 is None or entry1 is None:
            created += 1
            entries.append(None)
            continue
        found = aig.find_and(
            Aig.literal(entry0[0], entry0[1] ^ (fanin0 & 1)),
            Aig.literal(entry1[0], entry1[1] ^ (fanin1 & 1)),
        )
        if found is None:
            created += 1
            entries.append(None)
            continue
        node = Aig.node_of(found)
        if node == root:
            return created, False
        if aig.is_and(node) and (node in mffc or engine.is_dead(node)):
            created += 1
        entries.append((node, found & 1))
    output = entries[structure.output >> 1]
    return created, output is None or output[0] != root


def reference_rewrite(aig, zero_gain=False, record_choices=False):
    """Reference: the ``rw`` loop pricing every cut, which :func:`rewrite` must reproduce.

    It dry-runs every cut of every visited node and keeps the first cut
    of the largest gain, so a cut that :func:`rewrite` skips without a
    dry run must never have been the one chosen.
    """
    library = default_library()
    work = aig.clone()
    engine = CutEngine(work, k=4, attach=True)
    applied = 0
    try:
        for node in work.topological_order():
            if engine.is_dead(node):
                continue
            priced = []
            for cut in engine.compute(node):
                if cut.leaves == (node,) or cut.table is None:
                    continue
                mffc = collect_mffc(work, node, cut.leaves)
                structure = library.structure(cut.table)
                created, valid = reference_price(work, structure, cut.leaves, node, mffc, engine)
                if valid:
                    priced.append((len(mffc) - created, structure, cut.leaves, mffc))
            if not priced:
                continue
            if record_choices:
                best = max((entry for entry in priced if entry[0] >= 0), key=lambda entry: entry[0], default=None)
                if best is not None:
                    new_literal = _instantiate(work, best[1], [Aig.literal(leaf) for leaf in best[2]], engine)
                    if new_literal >> 1 != node:
                        work.add_choice(node, new_literal)
                continue
            gain, structure, leaves, mffc = max(priced, key=lambda entry: entry[0])
            if gain < (0 if zero_gain else 1):
                continue
            new_literal = _instantiate(work, structure, [Aig.literal(leaf) for leaf in leaves], engine)
            if new_literal >> 1 == node:
                continue
            work.substitute(node, new_literal)
            engine.kill(mffc)
            engine.revive_from(new_literal >> 1)
            applied += 1
    finally:
        engine.detach()
    if record_choices:
        return work, applied
    return cleanup_dangling(work)[0], applied


def _network(aig):
    """Everything a rewritten network is: nodes, outputs and choice classes."""
    classes = [(aig.choice_repr(node), aig.choice_phase(node)) for node in aig.nodes()]
    return aig.node_entries, aig.pos, classes


class TestRewriteOracle:
    """:func:`rewrite` skips the dry run of a cut that cannot win; nothing else may change."""

    @pytest.mark.parametrize("record_choices", [False, True])
    @pytest.mark.parametrize("zero_gain", [False, True])
    def test_matches_reference_on_fuzz_networks(self, zero_gain, record_choices):
        skipped = 0
        for seed in range(12):
            aig = random_aig(num_pis=7, num_gates=70 + 5 * seed, num_pos=5, seed=100 + seed)
            result, report = rewrite(aig, zero_gain=zero_gain, record_choices=record_choices)
            expected, applied = reference_rewrite(aig, zero_gain=zero_gain, record_choices=record_choices)
            assert _network(result) == _network(expected), seed
            assert report.rewrites_applied == applied
            assert 0 <= report.dry_runs_skipped <= report.cuts_evaluated
            skipped += report.dry_runs_skipped
        if record_choices:
            # Every non-negative gain is a candidate choice: nothing is skipped.
            assert skipped == 0
        else:
            assert skipped > 0

    def test_skip_count_reaches_stats_details(self):
        _result, report = rewrite(random_aig(num_pis=7, num_gates=90, num_pos=5, seed=3))
        assert report.as_details()["dry_runs_skipped"] == float(report.dry_runs_skipped)
