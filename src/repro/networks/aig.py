"""And-Inverter Graphs (AIGs) with structural hashing.

The AIG is the working representation of the SAT sweeper: every internal
node is a two-input AND gate and inversion is expressed by *complemented
edges*.  The encoding follows the AIGER convention:

* every node has an integer index; node ``0`` is the constant-false node,
  nodes ``1 .. num_pis`` are primary inputs, higher indices are AND gates;
* a *literal* is ``2 * node + complement``, so literal ``0`` is constant
  false, literal ``1`` constant true, and odd literals are complemented.

The :class:`Aig` container supports structural hashing (identical AND
gates are created only once), the usual one-level simplifications
(``a & 0 = 0``, ``a & a = a``, ``a & !a = 0`` ...), convenience
constructors for derived gates (OR, XOR, MUX, adders' carry, ...), node
substitution used by SAT-sweeping, and the traversal queries (topological
order, levels, fanouts, TFI/TFO cones) required by the simulator and the
sweeper.

The container implements the :class:`~repro.networks.protocol.MutableNetwork`
protocol; network-generic engines (the pass pipeline, traversal and
simulation-window helpers, the cut engine's attachment) consume it --
and the :class:`~repro.networks.klut.KLutNetwork` -- through that
protocol surface.

Incremental-engine design
-------------------------

The container is built for SAT sweeping, where a network of ``N`` gates
undergoes thousands of small mutations interleaved with traversal
queries.  All bookkeeping is therefore maintained *incrementally* --
through the shared
:class:`~repro.networks.incremental.IncrementalNetworkMixin` -- so that
per-event work is proportional to the event's cone, not to ``N``:

* **Fanout lists** (``_fanouts``) hold, for every node, the indices of
  the gates referencing it (one entry per referencing fanin).  They are
  built by one O(N) scan on first use and then updated in O(1) by
  :meth:`add_and` and in O(fanout) by :meth:`substitute` /
  :meth:`replace_fanin`.  ``fanout_counts`` and
  ``tfo`` answer directly from the maintained lists.  Previously
  ``substitute`` scanned every gate of the network (O(N) per merge, so
  O(merges x N) per sweep); it now visits only ``fanouts(old_node)``.
* **Cached topological order** (``_topo_cache`` / ``_topo_pos``): the
  order is computed at most once per mutation epoch and returned in O(N)
  (a list copy) afterwards.  ``add_and`` appends to the cache (creation
  order extends any valid order); ``substitute`` keeps the cache *valid*
  whenever the replacement node precedes the replaced node in the cached
  order -- the common case in sweeping, where merge drivers are always
  topologically earlier -- and only then is a recomputation avoided.
  ``topological_position`` exposes the cached position for O(1)
  ancestor-pruning in reachability checks (see
  :class:`repro.sweeping.tfi.TfiManager`).
* **Structural hashing** is patched per rewritten gate instead of being
  rebuilt: ``substitute`` deletes only the strash keys of the gates it
  rewrites (O(fanout) dictionary operations) and re-registers their new
  keys, where the previous implementation rebuilt the whole dictionary
  on every merge (O(N) per merge).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .incremental import IncrementalNetworkMixin

__all__ = ["Aig", "AigNode", "LIT_FALSE", "LIT_TRUE"]

#: Literal of the constant-false node.
LIT_FALSE = 0
#: Literal of the constant-true node (complement of constant false).
LIT_TRUE = 1


#: One node of the graph: the fanin literals ``(fanin0, fanin1)``, each
#: ``2 * node + complement``.  Primary inputs and the constant node store
#: ``(-1, -1)``.  Entries are plain tuples, never edited in place: a
#: rewrite stores a new one, so clones share them, a gate whose fanins
#: are in canonical order is its own strash key, and readers unpack them
#: on the interpreter's fast path for exact two-tuples.
AigNode = tuple[int, int]

#: The entry of the constant node and of every primary input.
_SOURCE: AigNode = (-1, -1)


class Aig(IncrementalNetworkMixin):
    """An And-Inverter Graph with structural hashing and complemented edges."""

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        # Node 0 is the constant-false node.
        self._nodes: list[AigNode] = [_SOURCE]
        self._pis: list[int] = []
        self._pi_names: list[str] = []
        self._pos: list[int] = []
        self._po_names: list[str] = []
        self._strash: dict[tuple[int, int], int] = {}
        # Fanout lists, PO reference map, topo cache and listener bus.
        self._init_incremental()
        self._register_node()  # the constant node

    # ------------------------------------------------------------------
    # Literal helpers
    # ------------------------------------------------------------------

    @staticmethod
    def literal(node: int, complement: bool = False) -> int:
        """Build a literal from a node index and a complement flag."""
        return 2 * node + int(bool(complement))

    @staticmethod
    def node_of(literal: int) -> int:
        """Node index referenced by a literal."""
        return literal >> 1

    @staticmethod
    def is_complemented(literal: int) -> bool:
        """True if the literal has the complement bit set."""
        return bool(literal & 1)

    @staticmethod
    def negate(literal: int) -> int:
        """Complement a literal."""
        return literal ^ 1

    @staticmethod
    def regular(literal: int) -> int:
        """Strip the complement bit from a literal."""
        return literal & ~1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_pi(self, name: str | None = None) -> int:
        """Create a primary input; returns its (positive) literal."""
        node = len(self._nodes)
        self._nodes.append(_SOURCE)
        self._register_node()
        self._pis.append(node)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        return self.literal(node)

    def add_po(self, literal: int, name: str | None = None) -> int:
        """Register ``literal`` as a primary output; returns the PO index."""
        self._check_literal(literal)
        self._pos.append(literal)
        self._po_names.append(name if name is not None else f"po{len(self._pos) - 1}")
        index = len(self._pos) - 1
        self._add_po_ref(literal >> 1, index)
        return index

    def add_and(self, a: int, b: int) -> int:
        """AND of two literals, with one-level simplification and strashing."""
        self._check_literal(a)
        self._check_literal(b)
        # Trivial cases.
        if a == LIT_FALSE or b == LIT_FALSE:
            return LIT_FALSE
        if a == LIT_TRUE:
            return b
        if b == LIT_TRUE:
            return a
        if a == b:
            return a
        if a == self.negate(b):
            return LIT_FALSE
        # Canonical fanin order for structural hashing.
        if a > b:
            a, b = b, a
        entry = (a, b)
        existing = self._strash.get(entry)
        if existing is not None:
            return self.literal(existing)
        node = len(self._nodes)
        self._nodes.append(entry)
        self._register_node()
        fanouts = self._fanouts
        if fanouts is not None:
            fanouts[a >> 1].append(node)
            fanouts[b >> 1].append(node)
        self._strash[entry] = node
        # Appending a freshly created gate keeps any cached order valid:
        # both fanins already exist, hence precede it.
        self._topo_append(node)
        return self.literal(node)

    def find_and(self, a: int, b: int) -> int | None:
        """Literal :meth:`add_and` would return, or ``None`` if it would create a gate.

        Applies the same one-level simplifications and strash lookup as
        :meth:`add_and` but never mutates the graph.  DAG-aware rewriting
        uses this to price candidate replacement structures (counting the
        gates a structure would actually add, given sharing with the
        existing network) before committing to any of them.
        """
        self._check_literal(a)
        self._check_literal(b)
        if a == LIT_FALSE or b == LIT_FALSE:
            return LIT_FALSE
        if a == LIT_TRUE:
            return b
        if b == LIT_TRUE:
            return a
        if a == b:
            return a
        if a == self.negate(b):
            return LIT_FALSE
        if a > b:
            a, b = b, a
        existing = self._strash.get((a, b))
        if existing is None:
            return None
        return self.literal(existing)

    # Derived gates -----------------------------------------------------

    def add_or(self, a: int, b: int) -> int:
        """OR of two literals (built from AND by De Morgan)."""
        return self.negate(self.add_and(self.negate(a), self.negate(b)))

    def add_xor(self, a: int, b: int) -> int:
        """XOR of two literals (two-level AND/OR construction)."""
        return self.add_or(self.add_and(a, self.negate(b)), self.add_and(self.negate(a), b))

    def add_xnor(self, a: int, b: int) -> int:
        """XNOR of two literals."""
        return self.negate(self.add_xor(a, b))

    def add_mux(self, select: int, when_true: int, when_false: int) -> int:
        """2:1 multiplexer ``select ? when_true : when_false``."""
        return self.add_or(
            self.add_and(select, when_true),
            self.add_and(self.negate(select), when_false),
        )

    def add_maj(self, a: int, b: int, c: int) -> int:
        """Majority of three literals (the full-adder carry)."""
        return self.add_or(self.add_and(a, b), self.add_or(self.add_and(a, c), self.add_and(b, c)))

    def add_and_multi(self, literals: Sequence[int]) -> int:
        """Balanced AND of an arbitrary number of literals."""
        return self._balanced(literals, self.add_and, LIT_TRUE)

    def add_or_multi(self, literals: Sequence[int]) -> int:
        """Balanced OR of an arbitrary number of literals."""
        return self._balanced(literals, self.add_or, LIT_FALSE)

    def add_xor_multi(self, literals: Sequence[int]) -> int:
        """Balanced XOR (parity) of an arbitrary number of literals."""
        return self._balanced(literals, self.add_xor, LIT_FALSE)

    @staticmethod
    def _balanced(literals: Sequence[int], combine: Callable[[int, int], int], empty: int) -> int:
        items = list(literals)
        if not items:
            return empty
        while len(items) > 1:
            paired = [
                combine(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
                for i in range(0, len(items), 2)
            ]
            items = paired
        return items[0]

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Total node count including the constant node and PIs."""
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
    def num_ands(self) -> int:
        """Number of internal AND gates."""
        return len(self._nodes) - 1 - len(self._pis)

    @property
    def num_gates(self) -> int:
        """Number of internal gates (protocol-generic alias of :attr:`num_ands`)."""
        return self.num_ands

    @property
    def pis(self) -> list[int]:
        """Node indices of the primary inputs."""
        return list(self._pis)

    @property
    def pos(self) -> list[int]:
        """Literals driving the primary outputs."""
        return list(self._pos)

    @property
    def pi_names(self) -> list[str]:
        """Names of the primary inputs (parallel to :attr:`pis`)."""
        return list(self._pi_names)

    @property
    def po_names(self) -> list[str]:
        """Names of the primary outputs (parallel to :attr:`pos`)."""
        return list(self._po_names)

    @property
    def node_entries(self) -> list[AigNode]:
        """The raw node array (fast read-only view for simulators).

        Word-parallel simulators index this list directly in their hot
        loop; callers must not mutate it.
        """
        return self._nodes

    def set_po(self, index: int, literal: int) -> None:
        """Redirect primary output ``index`` to a new literal."""
        self._check_literal(literal)
        self._drop_po_ref(self._pos[index] >> 1, index)
        self._pos[index] = literal
        self._add_po_ref(literal >> 1, index)

    def is_constant(self, node: int) -> bool:
        """True for the constant-false node 0."""
        return node == 0

    def is_pi(self, node: int) -> bool:
        """True if ``node`` is a primary input."""
        return 1 <= node <= len(self._pis)

    def is_and(self, node: int) -> bool:
        """True if ``node`` is an internal AND gate."""
        return node > len(self._pis) and node < len(self._nodes)

    def is_gate(self, node: int) -> bool:
        """True if ``node`` is an internal gate (protocol alias of :meth:`is_and`)."""
        return self.is_and(node)

    def po_nodes(self) -> list[int]:
        """Node indices driving the primary outputs, in PO order."""
        return [po >> 1 for po in self._pos]

    def fanins(self, node: int) -> tuple[int, int]:
        """Fanin literals of an AND node."""
        if not self.is_and(node):
            raise ValueError(f"node {node} is not an AND gate")
        return self._nodes[node]

    def fanin_nodes(self, node: int) -> tuple[int, int]:
        """Fanin node indices of an AND node (complements dropped)."""
        fanin0, fanin1 = self.fanins(node)
        return self.node_of(fanin0), self.node_of(fanin1)

    def gates(self) -> Iterator[int]:
        """Iterate the AND-node indices in creation order."""
        return iter(range(len(self._pis) + 1, len(self._nodes)))

    def nodes(self) -> Iterator[int]:
        """Iterate all node indices (constant, PIs, AND gates)."""
        return iter(range(len(self._nodes)))

    def pi_index(self, node: int) -> int:
        """Position of a PI node in the PI list."""
        if not self.is_pi(node):
            raise ValueError(f"node {node} is not a primary input")
        return node - 1

    def _check_literal(self, literal: int) -> None:
        if literal < 0 or self.node_of(literal) >= len(self._nodes):
            raise ValueError(f"literal {literal} references an unknown node")

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def _scan_fanouts(self) -> list[list[int]]:
        nodes = self._nodes
        fanouts: list[list[int]] = [[] for _ in nodes]
        for gate in range(len(self._pis) + 1, len(nodes)):
            fanin0, fanin1 = nodes[gate]
            fanouts[fanin0 >> 1].append(gate)
            fanouts[fanin1 >> 1].append(gate)
        return fanouts

    def _gate_fanin_nodes(self, node: int) -> list[int]:
        if self.is_and(node):
            return [self.node_of(f) for f in self.fanins(node)]
        return []

    def gate_fanin_nodes(self, node: int) -> list[int]:
        """Fanin node indices of ``node`` (empty for PIs and the constant)."""
        return self._gate_fanin_nodes(node)

    def topological_order(self, include_pis: bool = False) -> list[int]:
        """AND-node indices in topological (fanin-before-fanout) order.

        With ``include_pis`` the constant node and the PIs are prepended.
        Dangling gates are included as well, also in a fanin-consistent
        position, so simulators can evaluate every gate.

        The order is cached: it is recomputed at most once per mutation
        epoch (O(N)) and answered with a list copy afterwards.  Creating
        gates extends the cache in place; :meth:`substitute` and
        :meth:`replace_fanin` preserve the cache whenever the replacement
        node precedes the replaced node in the cached order (always true
        for sweeping merges, whose drivers are topologically earlier) and
        invalidate it otherwise.
        """
        cache = self._topo_cache
        if cache is None:
            # Specialised DFS producing exactly the order of
            # topological_sort(po_nodes + gates, _gate_fanin_nodes): the
            # generic helper's per-node callback, tuple stack and list
            # allocations triple the cost of this rebuild, and sweeping
            # re-sorts after every cache-invalidating merge.
            nodes = self._nodes
            num_pis = len(self._pis)
            num_nodes = len(nodes)
            visited = bytearray(num_nodes)
            cache = []
            append = cache.append
            roots = [po >> 1 for po in self._pos]
            roots.extend(range(num_pis + 1, num_nodes))
            stack: list[int] = []
            for root in roots:
                if visited[root]:
                    continue
                # Expanded nodes are pushed one's-complemented.
                stack.append(root)
                while stack:
                    node = stack.pop()
                    if node < 0:
                        append(~node)
                        continue
                    if visited[node]:
                        continue
                    visited[node] = 1
                    if num_pis < node < num_nodes:
                        stack.append(~node)
                        fanin0, fanin1 = nodes[node]
                        fanin0 >>= 1
                        fanin1 >>= 1
                        if not visited[fanin0]:
                            stack.append(fanin0)
                        if not visited[fanin1]:
                            stack.append(fanin1)
            self._topo_cache = cache
        if include_pis:
            return [0] + list(self._pis) + list(cache)
        return list(cache)

    def _level_array(self) -> list[int]:
        """Logic level per node index (0 for PIs/constant and unused slots)."""
        nodes = self._nodes
        level = [0] * len(nodes)
        for node in self.topological_order():
            fanin0, fanin1 = nodes[node]
            level0 = level[fanin0 >> 1]
            level1 = level[fanin1 >> 1]
            level[node] = (level0 if level0 >= level1 else level1) + 1
        return level

    def levels(self) -> dict[int, int]:
        """Logic level of every node (PIs and constant are level 0)."""
        level = self._level_array()
        result = {0: 0}
        for pi in self._pis:
            result[pi] = 0
        for node in self.topological_order():
            result[node] = level[node]
        return result

    def depth(self) -> int:
        """Largest PO level (0 for a constant/PI-only network)."""
        if not self._pos:
            return 0
        level = self._level_array()
        return max(level[po >> 1] for po in self._pos)

    def tfi(self, nodes: Iterable[int], limit: int | None = None) -> list[int]:
        """Transitive fanin cone of ``nodes`` (the nodes themselves included).

        Returns exactly what ``transitive_fanin(nodes, _gate_fanin_nodes,
        limit)`` returns -- breadth-first order of first visits, repeated
        roots once, at most ``max(limit, 1)`` nodes -- but walks the raw
        node array inline.  Deduplicating at push time keeps that order,
        so the list being walked is the cone itself.
        """
        entries = self._nodes
        cone = list(dict.fromkeys(nodes))
        if cone and not (0 <= min(cone) and max(cone) < len(entries)):
            raise ValueError(f"tfi roots reference an unknown node (nodes are 0..{len(entries) - 1})")
        bound = len(entries) if limit is None else max(limit, 1)
        if len(cone) >= bound:
            return cone[:bound]
        seen = set(cone)
        add = seen.add
        append = cone.append
        # Appending to the list being iterated extends the iteration.
        for node in cone:
            fanin0, fanin1 = entries[node]
            if fanin0 < 0:
                continue
            fanin0 >>= 1
            if fanin0 not in seen:
                add(fanin0)
                append(fanin0)
            fanin1 >>= 1
            if fanin1 not in seen:
                add(fanin1)
                append(fanin1)
            if len(cone) >= bound:
                return cone[:bound]
        return cone

    # fanouts / fanout_count / fanout_counts / tfo / topological_position
    # are provided by IncrementalNetworkMixin, answered from the
    # maintained fanout lists and PO reference map.

    # ------------------------------------------------------------------
    # Evaluation (reference semantics, used by tests and CEC)
    # ------------------------------------------------------------------

    def evaluate(self, pi_values: Sequence[bool | int]) -> list[bool]:
        """Evaluate all POs on one input assignment (reference implementation)."""
        if len(pi_values) != self.num_pis:
            raise ValueError(f"expected {self.num_pis} input values, got {len(pi_values)}")
        values: dict[int, bool] = {0: False}
        for position, node in enumerate(self._pis):
            values[node] = bool(pi_values[position])
        for node in self.topological_order():
            fanin0, fanin1 = self.fanins(node)
            value0 = values[self.node_of(fanin0)] ^ self.is_complemented(fanin0)
            value1 = values[self.node_of(fanin1)] ^ self.is_complemented(fanin1)
            values[node] = value0 and value1
        return [values[self.node_of(po)] ^ self.is_complemented(po) for po in self._pos]

    # ------------------------------------------------------------------
    # Mutation used by SAT-sweeping
    # ------------------------------------------------------------------

    def _strash_key(self, gate: int) -> tuple[int, int]:
        entry = self._nodes[gate]
        a, b = entry
        return entry if a <= b else (b, a)

    def _unstrash_gate(self, gate: int) -> None:
        key = self._strash_key(gate)
        if self._strash.get(key) == gate:
            del self._strash[key]

    def _restrash_gate(self, gate: int) -> None:
        """Re-register a rewritten gate in the strash table.

        Degenerate gates (constant or duplicated fanin node after a
        rewrite) are not registered: :meth:`add_and` simplifies those
        shapes before lookup, so their keys would never be queried.
        """
        fanin0, fanin1 = self._nodes[gate]
        node0, node1 = fanin0 >> 1, fanin1 >> 1
        if node0 == 0 or node1 == 0 or node0 == node1:
            return
        key = self._strash_key(gate)
        if key not in self._strash:
            self._strash[key] = gate

    # add_mutation_listener / remove_mutation_listener, the topo-cache
    # validity tracking (_note_rewire) and the choice-class bookkeeping
    # live in IncrementalNetworkMixin.  The AIG's edge references are
    # literals, so choice alternatives can be recorded with an explicit
    # complement: ``add_choice(node, Aig.literal(alt, True))`` records
    # that ``alt`` realises the complement of ``node``.

    def _edge_ref_parts(self, reference: int) -> tuple[int, bool]:
        return reference >> 1, bool(reference & 1)

    def _make_edge_ref(self, node: int, phase: bool) -> int:
        return 2 * node + int(phase)

    def substitute(self, old_node: int, new_literal: int) -> int:
        """Replace every reference to ``old_node`` by ``new_literal``.

        Fanins of the gates in ``fanouts(old_node)`` and the PO literals
        referencing ``old_node`` are redirected; the complement bit of
        each reference is xor-ed into the replacement literal.  Returns
        the number of references rewritten.  The replaced node becomes
        dangling and can be removed later with
        :func:`repro.networks.transforms.cleanup_dangling`.

        Complexity: O(fanout(old_node)) -- only the referencing gates are
        visited and only their strash entries are patched.  (The previous
        implementation scanned all gates and rebuilt the entire strash
        dictionary, i.e. O(N) per call.)
        """
        self._check_literal(new_literal)
        new_node = new_literal >> 1
        if new_node == old_node:
            raise ValueError("cannot substitute a node by itself")
        if self.is_pi(old_node) or self.is_constant(old_node):
            raise ValueError(f"cannot substitute PI/constant node {old_node}")
        rewritten = 0
        fanouts = self._fanout_lists()
        old_refs = fanouts[old_node]
        fanouts[old_node] = []
        new_refs: list[int] = []
        rewired_gates = tuple(dict.fromkeys(old_refs))
        for gate in rewired_gates:
            self._unstrash_gate(gate)
            fanin0, fanin1 = self._nodes[gate]
            if fanin0 >> 1 == old_node:
                fanin0 = new_literal ^ (fanin0 & 1)
                new_refs.append(gate)
            if fanin1 >> 1 == old_node:
                fanin1 = new_literal ^ (fanin1 & 1)
                new_refs.append(gate)
            self._nodes[gate] = (fanin0, fanin1)
            self._restrash_gate(gate)
            rewritten += 1
        fanouts[new_node].extend(new_refs)
        for index in self._move_po_refs(old_node, new_node):
            self._pos[index] = new_literal ^ (self._pos[index] & 1)
            rewritten += 1
        self._note_rewire(old_node, new_node)
        if self._choice_repr:
            self._choices_on_substitute(old_node, new_literal)
        if self._has_mutation_audience():
            self._notify_mutation(old_node, new_literal, rewired_gates)
        return rewritten

    def replace_fanin(self, gate: int, old_node: int, new_literal: int) -> bool:
        """Redirect the fanins of one gate that reference ``old_node``.

        The complement bit of the existing reference is xor-ed into the new
        literal, so the rewiring is function-preserving whenever
        ``new_literal`` is equivalent to ``old_node``.  Returns ``True`` if
        at least one fanin was rewritten.  O(fanout(old_node)) for the
        fanout-list update, O(1) strash patching.
        """
        self._check_literal(new_literal)
        if not self.is_and(gate):
            raise ValueError(f"node {gate} is not an AND gate")
        new_node = new_literal >> 1
        fanin0, fanin1 = self._nodes[gate]
        changed = False
        self._unstrash_gate(gate)
        fanouts = self._fanout_lists()
        old_fanouts = fanouts[old_node]
        if fanin0 >> 1 == old_node:
            fanin0 = new_literal ^ (fanin0 & 1)
            old_fanouts.remove(gate)
            fanouts[new_node].append(gate)
            changed = True
        if fanin1 >> 1 == old_node:
            fanin1 = new_literal ^ (fanin1 & 1)
            old_fanouts.remove(gate)
            fanouts[new_node].append(gate)
            changed = True
        if changed:
            self._nodes[gate] = (fanin0, fanin1)
        self._restrash_gate(gate)
        if changed:
            self._note_rewire(old_node, new_node)
            if self._has_mutation_audience():
                self._notify_mutation(old_node, new_literal, (gate,))
        return changed

    def clone(self) -> "Aig":
        """Deep copy of the graph.

        The clone keeps the strash table, the fanout lists, the PO
        references, the choice classes and their acyclicity ranks as they
        are.  The input's mutation history can show in them: the order of
        a fanout list (``substitute`` rewires in that order, which decides
        the gate that keeps a shared strash key) and the rank values.  A
        sweep reads none of it: it creates no gate, reads fanouts as a
        set, and ranks only prune an exact acyclicity walk.  The clone
        keeps no cached topological order and no listeners: an order
        extended by new gates differs from a fresh one, and sweeps walk
        and prove in that order.
        """
        other = Aig(self.name)
        other._nodes = list(self._nodes)
        other._pis = list(self._pis)
        other._pi_names = list(self._pi_names)
        other._pos = list(self._pos)
        other._po_names = list(self._po_names)
        other._strash = dict(self._strash)
        self._copy_incremental_into(other)
        return other

    def __repr__(self) -> str:
        return (
            f"Aig(name={self.name!r}, pis={self.num_pis}, pos={self.num_pos}, "
            f"ands={self.num_ands})"
        )


def fanout_counts_impl(aig: Aig) -> dict[int, int]:
    """Reference counts of every node, recomputed from scratch.

    Kept as the from-scratch oracle for the incrementally maintained
    :meth:`Aig.fanout_counts`; tests cross-check the two.
    """
    counts = {node: 0 for node in aig.nodes()}
    for node in aig.gates():
        for fanin in aig.fanins(node):
            counts[aig.node_of(fanin)] += 1
    for po in aig.pos:
        counts[aig.node_of(po)] += 1
    return counts
