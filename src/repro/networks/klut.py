"""k-input LUT networks.

A :class:`KLutNetwork` is a DAG whose internal nodes are lookup tables of
bounded fan-in; every LUT stores its function as a word-packed
:class:`~repro.truthtable.TruthTable`.  This is the representation the
paper's STP simulator targets: each LUT's truth table converts directly
into a 2 x 2^k structural matrix and simulation becomes a chain of
semi-tensor products.

Unlike the AIG there are no complemented edges; inversions are folded into
the LUT functions during mapping.  Primary outputs may optionally be
complemented, which keeps AIG-to-LUT conversion loss-free without
introducing single-input inverter LUTs.

The container implements the
:class:`~repro.networks.protocol.MutableNetwork` protocol with the same
incremental guarantees as the AIG (via the shared
:class:`~repro.networks.incremental.IncrementalNetworkMixin`): fanout
lists and the PO reference map are maintained per construction/mutation
event, :meth:`substitute` / :meth:`replace_fanin` cost O(fanout) and
fire the mutation-listener bus, the topological order is cached per
mutation epoch, and :meth:`fanout_count` answers in O(1).  This is what
makes mapped-network resynthesis (collapsing LUT cones and committing
replacements in place) possible; the read-only seed container had to be
rebuilt from scratch for every change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..truthtable import TruthTable
from .incremental import IncrementalNetworkMixin
from .traversal import levelize, topological_sort, transitive_fanin

__all__ = ["KLutNetwork", "LutNode"]

_KIND_CONST = "const"
_KIND_PI = "pi"
_KIND_LUT = "lut"


@dataclass
class LutNode:
    """One node of a k-LUT network."""

    kind: str
    fanins: tuple[int, ...]
    function: TruthTable | None

    def is_lut(self) -> bool:
        """True for internal LUT nodes."""
        return self.kind == _KIND_LUT


class KLutNetwork(IncrementalNetworkMixin):
    """A network of k-input lookup tables."""

    def __init__(self, name: str = "klut") -> None:
        self.name = name
        # Node 0 is the constant-false node; constant true is created on demand.
        self._nodes: list[LutNode] = [LutNode(_KIND_CONST, (), TruthTable.constant(False))]
        self._const_true: int | None = None
        self._pis: list[int] = []
        self._pi_names: list[str] = []
        self._pos: list[tuple[int, bool]] = []
        self._po_names: list[str] = []
        self._num_luts = 0
        # Fanout lists, PO reference map, topo cache and listener bus.
        self._init_incremental()
        self._register_node()  # the constant-false node

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @property
    def constant_false(self) -> int:
        """Node index of the constant-false node."""
        return 0

    def constant_node(self, value: bool) -> int:
        """Node index of a constant node, creating constant-true on demand."""
        if not value:
            return 0
        if self._const_true is None:
            self._const_true = len(self._nodes)
            self._nodes.append(LutNode(_KIND_CONST, (), TruthTable.constant(True)))
            self._register_node()
        return self._const_true

    def add_pi(self, name: str | None = None) -> int:
        """Create a primary input node; returns its node index."""
        node = len(self._nodes)
        self._nodes.append(LutNode(_KIND_PI, (), None))
        self._register_node()
        self._pis.append(node)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        return node

    def add_lut(self, fanins: Sequence[int], function: TruthTable) -> int:
        """Create a LUT node computing ``function`` over ``fanins``."""
        fanin_tuple = tuple(fanins)
        if function.num_vars != len(fanin_tuple):
            raise ValueError(
                f"function has {function.num_vars} inputs but {len(fanin_tuple)} fanins were given"
            )
        for fanin in fanin_tuple:
            if not 0 <= fanin < len(self._nodes):
                raise ValueError(f"fanin {fanin} references an unknown node")
        node = len(self._nodes)
        self._nodes.append(LutNode(_KIND_LUT, fanin_tuple, function))
        self._register_node()
        fanouts = self._fanouts
        if fanouts is not None:
            for fanin in fanin_tuple:
                fanouts[fanin].append(node)
        self._num_luts += 1
        # Appending a freshly created LUT keeps any cached order valid:
        # its fanins already exist, hence precede it.
        self._topo_append(node)
        return node

    def add_po(self, node: int, negated: bool = False, name: str | None = None) -> int:
        """Register a primary output; returns the PO index."""
        if not 0 <= node < len(self._nodes):
            raise ValueError(f"PO references unknown node {node}")
        self._pos.append((node, bool(negated)))
        self._po_names.append(name if name is not None else f"po{len(self._pos) - 1}")
        index = len(self._pos) - 1
        self._add_po_ref(node, index)
        return index

    def set_po(self, index: int, node: int, negated: bool | None = None) -> None:
        """Redirect primary output ``index`` to a new node.

        ``negated`` keeps the existing complementation flag when omitted.
        """
        if not 0 <= node < len(self._nodes):
            raise ValueError(f"PO references unknown node {node}")
        old_node, old_negated = self._pos[index]
        self._drop_po_ref(old_node, index)
        self._pos[index] = (node, old_negated if negated is None else bool(negated))
        self._add_po_ref(node, index)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Total node count (constants, PIs and LUTs)."""
        return len(self._nodes)

    @property
    def num_pis(self) -> int:
        """Number of primary inputs."""
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        """Number of primary outputs."""
        return len(self._pos)

    @property
    def num_luts(self) -> int:
        """Number of internal LUT nodes (maintained counter, O(1))."""
        return self._num_luts

    @property
    def num_gates(self) -> int:
        """Number of internal gates (protocol-generic alias of :attr:`num_luts`)."""
        return self._num_luts

    @property
    def pis(self) -> list[int]:
        """Node indices of the primary inputs."""
        return list(self._pis)

    @property
    def pi_names(self) -> list[str]:
        """Names of the primary inputs (parallel to :attr:`pis`)."""
        return list(self._pi_names)

    @property
    def pos(self) -> list[tuple[int, bool]]:
        """Primary outputs as ``(node, negated)`` pairs."""
        return list(self._pos)

    @property
    def po_names(self) -> list[str]:
        """Names of the primary outputs (parallel to :attr:`pos`)."""
        return list(self._po_names)

    def po_nodes(self) -> list[int]:
        """Node indices driving the primary outputs, in PO order."""
        return [node for node, _negated in self._pos]

    def is_constant(self, node: int) -> bool:
        """True for constant-false or constant-true nodes."""
        return self._nodes[node].kind == _KIND_CONST

    def constant_value(self, node: int) -> bool:
        """Value of a constant node."""
        entry = self._nodes[node]
        if entry.kind != _KIND_CONST:
            raise ValueError(f"node {node} is not a constant")
        assert entry.function is not None
        return entry.function.bits == 1

    def is_pi(self, node: int) -> bool:
        """True if ``node`` is a primary input."""
        return self._nodes[node].kind == _KIND_PI

    def is_lut(self, node: int) -> bool:
        """True if ``node`` is an internal LUT."""
        return self._nodes[node].kind == _KIND_LUT

    def is_gate(self, node: int) -> bool:
        """True if ``node`` is an internal gate (protocol alias of :meth:`is_lut`)."""
        return self._nodes[node].kind == _KIND_LUT

    def pi_index(self, node: int) -> int:
        """Position of a PI node in the PI list."""
        if not self.is_pi(node):
            raise ValueError(f"node {node} is not a primary input")
        return self._pis.index(node)

    def lut_fanins(self, node: int) -> tuple[int, ...]:
        """Fanin node indices of a LUT."""
        entry = self._nodes[node]
        if entry.kind != _KIND_LUT:
            raise ValueError(f"node {node} is not a LUT")
        return entry.fanins

    def lut_function(self, node: int) -> TruthTable:
        """Truth table of a LUT node."""
        entry = self._nodes[node]
        if entry.kind != _KIND_LUT or entry.function is None:
            raise ValueError(f"node {node} is not a LUT")
        return entry.function

    def fanins(self, node: int) -> tuple[int, ...]:
        """Fanins of any node (empty for PIs and constants)."""
        return self._nodes[node].fanins

    def gate_fanin_nodes(self, node: int) -> tuple[int, ...]:
        """Fanin node indices of ``node`` (protocol alias of :meth:`fanins`)."""
        return self._nodes[node].fanins

    def luts(self) -> Iterator[int]:
        """Iterate the LUT node indices in creation order."""
        return (n for n, entry in enumerate(self._nodes) if entry.kind == _KIND_LUT)

    def gates(self) -> Iterator[int]:
        """Iterate the internal gate indices (protocol alias of :meth:`luts`)."""
        return self.luts()

    def nodes(self) -> Iterator[int]:
        """Iterate all node indices."""
        return iter(range(len(self._nodes)))

    def max_fanin_size(self) -> int:
        """Largest LUT fan-in in the network (0 if there are no LUTs)."""
        sizes = [len(entry.fanins) for entry in self._nodes if entry.kind == _KIND_LUT]
        return max(sizes) if sizes else 0

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def _fanin_nodes(self, node: int) -> tuple[int, ...]:
        return self._nodes[node].fanins

    def topological_order(self, include_sources: bool = False) -> list[int]:
        """LUT node indices in topological order (optionally with sources).

        Dangling LUTs (not reachable from any PO) are included as well,
        in a fanin-consistent position, so simulators can evaluate every
        node.  The order is cached: it is recomputed at most once per
        mutation epoch (O(N)) and answered with a list copy afterwards.
        Creating LUTs extends the cache in place; :meth:`substitute` and
        :meth:`replace_fanin` preserve the cache whenever the
        replacement node precedes the replaced node in the cached order
        and invalidate it otherwise.
        """
        cache = self._topo_cache
        if cache is None:
            roots = [node for node, _negated in self._pos]
            order = topological_sort(roots, self._fanin_nodes)
            lut_order = [n for n in order if self.is_lut(n)]
            reachable = set(lut_order)
            lut_order.extend(n for n in self.luts() if n not in reachable)
            cache = lut_order
            self._topo_cache = cache
        if include_sources:
            sources = [n for n in self.nodes() if not self.is_lut(n)]
            return sources + list(cache)
        return list(cache)

    def levels(self) -> dict[int, int]:
        """Logic level of every node (sources are level 0)."""
        sources = [n for n in self.nodes() if not self.is_lut(n)]
        return levelize(self.topological_order(), self._fanin_nodes, sources)

    def depth(self) -> int:
        """Largest PO level."""
        node_levels = self.levels()
        if not self._pos:
            return 0
        return max(node_levels[node] for node, _negated in self._pos)

    def tfi(self, nodes: Iterable[int], limit: int | None = None) -> list[int]:
        """Transitive fanin cone of ``nodes`` (the nodes themselves included).

        O(cone) through the stored fanin tuples, independent of the
        network size.
        """
        return transitive_fanin(list(nodes), self._fanin_nodes, limit)

    # fanouts / fanout_count / fanout_counts / tfo / topological_position
    # are provided by IncrementalNetworkMixin, answered from the
    # maintained fanout lists and PO reference map (the seed container
    # recounted every edge of the network per query).

    # ------------------------------------------------------------------
    # Mutation (the MutableNetwork surface)
    # ------------------------------------------------------------------

    def substitute(self, old_node: int, new_node: int) -> int:
        """Replace every reference to ``old_node`` by ``new_node``.

        Fanins of the LUTs in ``fanouts(old_node)`` and the PO entries
        referencing ``old_node`` are redirected (PO complementation
        flags are preserved -- a k-LUT network has no complemented
        edges, so the replacement must compute the same phase).  Returns
        the number of references rewritten.  The replaced node becomes
        dangling and can be removed later with
        :func:`repro.networks.transforms.cleanup_dangling`.

        Complexity: O(fanout(old_node)) -- only the referencing LUTs are
        visited.
        """
        if not 0 <= new_node < len(self._nodes):
            raise ValueError(f"substitute references unknown node {new_node}")
        if new_node == old_node:
            raise ValueError("cannot substitute a node by itself")
        if not self.is_lut(old_node):
            raise ValueError(f"cannot substitute non-LUT node {old_node}")
        rewritten = 0
        fanouts = self._fanout_lists()
        old_refs = fanouts[old_node]
        fanouts[old_node] = []
        new_refs: list[int] = []
        rewired_gates = tuple(dict.fromkeys(old_refs))
        for gate in rewired_gates:
            entry = self._nodes[gate]
            replaced = sum(1 for fanin in entry.fanins if fanin == old_node)
            entry.fanins = tuple(new_node if fanin == old_node else fanin for fanin in entry.fanins)
            new_refs.extend([gate] * replaced)
            rewritten += 1
        fanouts[new_node].extend(new_refs)
        for index in self._move_po_refs(old_node, new_node):
            _node, negated = self._pos[index]
            self._pos[index] = (new_node, negated)
            rewritten += 1
        self._note_rewire(old_node, new_node)
        if self._choice_repr:
            self._choices_on_substitute(old_node, new_node)
        if self._has_mutation_audience():
            self._notify_mutation(old_node, new_node, rewired_gates)
        return rewritten

    def replace_fanin(self, gate: int, old_node: int, new_node: int) -> bool:
        """Redirect the fanins of one LUT that reference ``old_node``.

        Returns ``True`` if at least one fanin was rewritten.  The LUT's
        function is unchanged, so the rewiring is function-preserving
        whenever ``new_node`` is equivalent to ``old_node``.
        O(fanout(old_node)) for the fanout-list update.
        """
        if not 0 <= new_node < len(self._nodes):
            raise ValueError(f"replace_fanin references unknown node {new_node}")
        if not self.is_lut(gate):
            raise ValueError(f"node {gate} is not a LUT")
        entry = self._nodes[gate]
        replaced = sum(1 for fanin in entry.fanins if fanin == old_node)
        if not replaced:
            return False
        # Built (if need be) from the fanins before they are rewritten.
        fanouts = self._fanout_lists()
        entry.fanins = tuple(new_node if fanin == old_node else fanin for fanin in entry.fanins)
        old_fanouts = fanouts[old_node]
        for _ in range(replaced):
            old_fanouts.remove(gate)
        fanouts[new_node].extend([gate] * replaced)
        self._note_rewire(old_node, new_node)
        if self._has_mutation_audience():
            self._notify_mutation(old_node, new_node, (gate,))
        return True

    def clone(self) -> "KLutNetwork":
        """Deep copy of the network (mutation listeners are not cloned)."""
        other = KLutNetwork(self.name)
        other._nodes = [LutNode(n.kind, n.fanins, n.function) for n in self._nodes]
        other._const_true = self._const_true
        other._pis = list(self._pis)
        other._pi_names = list(self._pi_names)
        other._pos = list(self._pos)
        other._po_names = list(self._po_names)
        other._num_luts = self._num_luts
        self._copy_incremental_into(other)
        return other

    # ------------------------------------------------------------------
    # Evaluation (reference semantics)
    # ------------------------------------------------------------------

    def evaluate_nodes(self, pi_values: Sequence[bool | int]) -> dict[int, bool]:
        """Evaluate every node on one input assignment; returns a node-value map."""
        if len(pi_values) != self.num_pis:
            raise ValueError(f"expected {self.num_pis} input values, got {len(pi_values)}")
        values: dict[int, bool] = {}
        for node in self.nodes():
            if self.is_constant(node):
                values[node] = self.constant_value(node)
        for position, node in enumerate(self._pis):
            values[node] = bool(pi_values[position])
        for node in self.topological_order():
            function = self.lut_function(node)
            inputs = [values[f] for f in self.lut_fanins(node)]
            values[node] = function.evaluate(inputs)
        return values

    def evaluate(self, pi_values: Sequence[bool | int]) -> list[bool]:
        """Evaluate all POs on one input assignment."""
        values = self.evaluate_nodes(pi_values)
        return [values[node] ^ negated for node, negated in self._pos]

    def __repr__(self) -> str:
        return (
            f"KLutNetwork(name={self.name!r}, pis={self.num_pis}, pos={self.num_pos}, "
            f"luts={self.num_luts}, k={self.max_fanin_size()})"
        )
