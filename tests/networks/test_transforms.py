"""Tests for cleanup, strashing rebuild and constant propagation."""

from repro.networks import (
    Aig,
    cleanup_dangling,
    network_statistics,
    rebuild_strashed,
)


def _functionally_equal(a: Aig, b: Aig) -> bool:
    assert a.num_pis == b.num_pis and a.num_pos == b.num_pos
    for assignment in range(1 << a.num_pis):
        values = [bool(assignment & (1 << i)) for i in range(a.num_pis)]
        if a.evaluate(values) != b.evaluate(values):
            return False
    return True


class TestRebuild:
    def test_removes_dangling_nodes(self, small_aig):
        aig = small_aig.clone()
        a, b = Aig.literal(aig.pis[0]), Aig.literal(aig.pis[1])
        dangling = aig.add_and(aig.add_and(a, b), Aig.negate(b))
        assert aig.is_and(Aig.node_of(dangling))
        rebuilt, _ = rebuild_strashed(aig)
        assert rebuilt.num_ands <= small_aig.num_ands
        assert _functionally_equal(small_aig, rebuilt)

    def test_cleanup_dangling_alias(self, small_aig):
        cleaned, literal_map = cleanup_dangling(small_aig)
        assert _functionally_equal(small_aig, cleaned)
        assert literal_map[0] == 0 and literal_map[1] == 1

    def test_merges_duplicate_structure_after_substitution(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        aig.add_po(y)
        # Manually create a duplicate of x through another route and point y at it.
        duplicate = aig.add_and(b, a)
        assert duplicate == x  # strashing already merges identical gates
        rebuilt, _ = rebuild_strashed(aig)
        assert rebuilt.num_ands == 2

    def test_constant_propagation(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, Aig.negate(a))
        aig.add_po(y)
        # Substitute x by constant true; the strashing rebuild should
        # propagate it and reduce y to !a.
        aig.substitute(Aig.node_of(x), 1)
        propagated, _ = rebuild_strashed(aig)
        assert propagated.num_ands == 0
        assert propagated.evaluate([False, True]) == [True]
        assert propagated.evaluate([True, True]) == [False]

    def test_literal_map_translates_pos(self, small_aig):
        rebuilt, literal_map = rebuild_strashed(small_aig)
        for old_po, new_po in zip(small_aig.pos, rebuilt.pos):
            translated = literal_map[Aig.regular(old_po)] ^ (old_po & 1)
            assert translated == new_po


class TestStatistics:
    def test_network_statistics(self, small_aig):
        stats = network_statistics(small_aig)
        assert stats.num_pis == small_aig.num_pis
        assert stats.num_pos == small_aig.num_pos
        assert stats.num_gates == small_aig.num_ands
        assert stats.depth == small_aig.depth()
        assert str(stats.num_gates) in str(stats)
