"""Tests for cut enumeration and the paper's simulation-cut algorithm."""

import pytest

from repro.cuts import (
    Cut,
    CutEngine,
    aig_cone_table,
    cut_truth_table,
    simulation_cuts,
    simulation_cuts_generic,
)
from repro.networks import Aig
from repro.truthtable import TruthTable


class TestPriorityCuts:
    def test_trivial_cut_always_present(self, small_aig):
        cuts = CutEngine(small_aig, k=4).enumerate_all()
        for node in small_aig.gates():
            assert Cut((node,)) in cuts[node]

    def test_cut_sizes_bounded(self, small_aig):
        cuts = CutEngine(small_aig, k=3).enumerate_all()
        for node in small_aig.gates():
            for cut in cuts[node]:
                assert cut.size <= 3

    def test_pi_cut_is_itself(self, small_aig):
        cuts = CutEngine(small_aig, k=4).enumerate_all()
        for pi in small_aig.pis:
            assert cuts[pi] == [Cut((pi,))]

    def test_cut_limit_respected(self, small_aig):
        cuts = CutEngine(small_aig, k=4, cut_limit=3).enumerate_all()
        for node in small_aig.gates():
            assert len(cuts[node]) <= 3

    def test_k_validation(self, small_aig):
        with pytest.raises(ValueError):
            CutEngine(small_aig, k=0).enumerate_all()

    def test_cut_merge_and_domination(self):
        a, b = Cut((1, 2)), Cut((2, 3))
        assert a.merge(b) == Cut((1, 2, 3))
        assert a.dominates(Cut((1, 2, 3)))
        assert not a.dominates(b)

    def test_full_pi_cut_reproduces_function(self, small_aig):
        """A cut whose leaves are all PIs gives the node's global function."""
        cuts = CutEngine(small_aig, k=4).enumerate_all()
        po_node = Aig.node_of(small_aig.pos[0])
        pi_cut = next(
            (c for c in cuts[po_node] if all(small_aig.is_pi(leaf) for leaf in c.leaves)),
            None,
        )
        if pi_cut is None:
            pytest.skip("no all-PI cut of size 4 for this node")
        table = aig_cone_table(small_aig, po_node, pi_cut.leaves)
        for assignment in range(1 << len(pi_cut.leaves)):
            values = {leaf: bool(assignment & (1 << i)) for i, leaf in enumerate(pi_cut.leaves)}
            full = [values.get(pi, False) for pi in small_aig.pis]
            node_values = {}
            expected = small_aig.evaluate(full)
            # Compare through the PO literal to avoid recomputing internals.
            po_literal = small_aig.pos[0]
            got = table.value_at(assignment) ^ Aig.is_complemented(po_literal)
            assert got == expected[0]
            del node_values


class TestSimulationCuts:
    def test_fig1_cut_structure(self, fig1_klut):
        """The Fig. 1 example: limit 3, targets {7, 8} plus the PO drivers."""
        nodes = fig1_klut.fig1_nodes
        targets = [nodes[7], nodes[8], nodes[10], nodes[11]]
        cuts = simulation_cuts(fig1_klut, targets, limit=3)
        by_root = {cut.root: cut for cut in cuts}
        assert set(by_root) == {nodes[7], nodes[8], nodes[10], nodes[11]}
        # Node 6 is absorbed into the cut of node 10, node 9 into node 11.
        assert nodes[6] in by_root[nodes[10]].volume
        assert nodes[9] in by_root[nodes[11]].volume
        assert by_root[nodes[7]].volume == ()
        assert by_root[nodes[8]].volume == ()
        # Leaf counts respect the limit of 3.
        for cut in cuts:
            assert cut.size <= 3

    def test_cuts_are_in_topological_order(self, fig1_klut):
        nodes = fig1_klut.fig1_nodes
        targets = [nodes[7], nodes[8], nodes[10], nodes[11]]
        cuts = simulation_cuts(fig1_klut, targets, limit=3)
        emitted = set()
        for cut in cuts:
            for leaf in cut.leaves:
                if fig1_klut.is_lut(leaf):
                    assert leaf in emitted
            emitted.add(cut.root)

    def test_multi_fanout_nodes_become_boundaries(self, small_klut):
        targets = list(small_klut.luts())
        cuts = simulation_cuts(small_klut, targets, limit=4)
        roots = {cut.root for cut in cuts}
        assert set(targets) <= roots

    def test_leaf_limit_promotes_interior_nodes(self, fig1_klut):
        nodes = fig1_klut.fig1_nodes
        # With limit 2, the cut of node 10 cannot absorb node 6 (3 leaves),
        # so node 6 must become its own cut.
        cuts = simulation_cuts(fig1_klut, [nodes[10]], limit=2)
        by_root = {cut.root: cut for cut in cuts}
        assert nodes[6] in by_root
        assert by_root[nodes[10]].size <= 2

    def test_limit_validation(self, fig1_klut):
        with pytest.raises(ValueError):
            simulation_cuts(fig1_klut, [next(iter(fig1_klut.luts()))], limit=0)

    def test_generic_interface_on_plain_dag(self):
        edges = {4: [2, 3], 2: [0, 1], 3: [1]}
        cuts = simulation_cuts_generic(
            [4],
            lambda n: edges.get(n, []),
            lambda n: n in (0, 1),
            limit=3,
        )
        assert cuts[-1].root == 4
        assert set(cuts[-1].leaves) <= {0, 1, 2, 3}


class TestCutTruthTable:
    def test_cut_function_matches_evaluation(self, fig1_klut):
        nodes = fig1_klut.fig1_nodes
        targets = [nodes[7], nodes[8], nodes[10], nodes[11]]
        cuts = simulation_cuts(fig1_klut, targets, limit=3)
        by_root = {cut.root: cut for cut in cuts}
        cut10 = by_root[nodes[10]]
        table = cut_truth_table(fig1_klut, cut10.root, cut10.leaves)
        assert isinstance(table, TruthTable)
        assert table.num_vars == cut10.size

    def test_pi_not_in_leaves_raises(self, fig1_klut):
        nodes = fig1_klut.fig1_nodes
        with pytest.raises(ValueError):
            cut_truth_table(fig1_klut, nodes[10], [nodes[6]])


class TestRetiredShim:
    def test_networks_cuts_module_is_gone(self):
        """The repro.networks.cuts shim is retired for good: import fails."""
        import importlib
        import sys

        sys.modules.pop("repro.networks.cuts", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.networks.cuts")

    def test_simulation_cuts_accepts_aig(self, small_aig):
        """The protocol port: simulation cuts partition AIGs too."""
        targets = [small_aig.node_of(po) for po in small_aig.pos]
        cuts = simulation_cuts(small_aig, targets, limit=4)
        roots = {cut.root for cut in cuts}
        for target in targets:
            assert target in roots
        for cut in cuts:
            assert len(cut.leaves) <= 4
