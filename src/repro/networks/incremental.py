"""Shared incremental bookkeeping for mutable logic networks.

:class:`IncrementalNetworkMixin` holds the machinery that used to be
private to :class:`~repro.networks.aig.Aig` and is in fact completely
network-agnostic: maintained fanout lists, the PO reference map, the
mutation-listener bus, the epoch-cached topological order with its
validity tracking, and the structural **choice classes**.  Both
containers (:class:`~repro.networks.aig.Aig` and
:class:`~repro.networks.klut.KLutNetwork`) mix it in, so the
incremental-engine guarantees -- O(fanout) substitution, O(1)-amortised
topological order, O(1) ``fanout_count`` -- hold uniformly and the
:class:`~repro.networks.protocol.MutableNetwork` protocol has one
implementation of its bookkeeping, not two.

Choice classes
--------------

A *choice class* groups functionally-equivalent gates: one
**representative** plus a ring of alternatives, each annotated with a
phase flag (``True`` when the member realises the *complement* of the
representative).  Optimization passes record the structures they would
otherwise discard -- the sweeper's proven-equivalent nodes, rewriting's
replaced cones -- and the cut engine later merges cut sets across each
class so the mapper can pick the best implementation per node
(ABC's ``dch``-style flow).

Classes are kept sound under mutation:

* :meth:`add_choice` refuses any link that would make the
  *choice-collapsed* graph cyclic (every class contracted to one
  supernode whose fanins are the union of the members' fanins).  That
  invariant is exactly what makes choice-aware cut selection acyclic:
  a cut recorded at any member only ever reaches leaves whose collapsed
  class strictly precedes the member's class, so a mapping that mixes
  implementations can never close a combinational cycle.  The refusal
  is answered through incrementally maintained class-level topological
  *ranks* (equal ranks merge in O(1); unequal ranks pay one bounded
  forward walk), not a per-link O(cone) fanin sweep.
* ``substitute`` re-anchors the replaced node's class onto the
  replacement (best effort: links that would break the invariant are
  dropped), so sweeping a choice-carrying network keeps the recorded
  alternatives attached to the surviving nodes.
* choice events fire on a dedicated listener bus
  (:meth:`add_choice_listener`), so attached engines (the shared cut
  engine) invalidate exactly the affected class members.

The mixin deliberately does *not* own the mutation operations
themselves: how fanins are stored (literal pairs versus node tuples)
and what must be patched alongside them (the AIG strash table, LUT
functions) is representation-specific.  Containers implement
``substitute`` / ``replace_fanin`` and call back into the mixin's
primitives:

* ``_register_node`` when appending a node, then direct edits of the
  fanout lists: of ``_fanouts`` during construction when it is built,
  of ``_fanout_lists()`` during substitution (the edit pattern is
  representation-specific: two literal fanins on an AIG, an arbitrary
  fanin tuple on a LUT network);
* ``_add_po_ref`` / ``_drop_po_ref`` / ``_move_po_refs`` for the PO
  reference map;
* ``_topo_append`` when creating a gate (creation order extends any
  valid topological order), ``_note_rewire`` after redirecting
  references (the cache survives whenever the replacement precedes the
  replaced node), ``_topo_invalidate`` for anything else;
* ``_notify_mutation`` to fire the listener bus.

Hosts must provide ``nodes()``, ``gates()`` and ``gate_fanin_nodes``
(for ``fanout_counts`` and the first build of the fanout lists),
``is_gate`` and ``topological_order()`` (which fills ``_topo_cache``
when dirty) -- exactly the :class:`~repro.networks.protocol.LogicNetwork`
read surface.

Both derived indexes are built on first use rather than at
construction: the fanout lists by the first fanout query or mutation,
the position map by the first position query or rewire.  A network
that is only built and read -- a sweep's result, a mapped network that
is written out -- never holds them, which is most of its memory.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .protocol import ChoiceListener, MutationListener
from .traversal import topological_sort, transitive_fanout

__all__ = [
    "IncrementalNetworkMixin",
    "AmbientMutationObserver",
    "add_ambient_mutation_observer",
    "remove_ambient_mutation_observer",
    "scoped_mutation_observer",
    "ambient_mutation_observers",
]

#: Ambient mutation observer: ``observer(network, old_node, replacement,
#: rewired_gates)``.  Unlike per-network listeners, ambient observers see
#: every mutation on *every* network **in the current execution
#: context** -- including the private working copies optimization passes
#: clone internally, which per-network listeners never reach (``clone``
#: does not copy listeners).  This is the hook the resilience layer uses
#: for mutation budgets and fault injection.
#:
#: Observers are *context-scoped*, not process-global: the registry
#: lives in a :class:`contextvars.ContextVar`, so an observer registered
#: in one thread (or one ``contextvars.copy_context()`` scope) is
#: invisible to every other thread.  Concurrent service jobs therefore
#: cannot observe -- or fault-inject into -- each other's mutations,
#: while the single-threaded CLI behaviour is unchanged.
AmbientMutationObserver = Callable[["IncrementalNetworkMixin", int, int, "tuple[int, ...]"], None]

#: Context-local observer registry.  The value is an immutable tuple so
#: registration replaces it atomically in the current context without
#: mutating a list another context might be iterating.
_AMBIENT_MUTATION_OBSERVERS: ContextVar[tuple[AmbientMutationObserver, ...]] = ContextVar(
    "ambient_mutation_observers", default=()
)


def ambient_mutation_observers() -> tuple[AmbientMutationObserver, ...]:
    """The observers registered in the current execution context."""
    return _AMBIENT_MUTATION_OBSERVERS.get()


def add_ambient_mutation_observer(observer: AmbientMutationObserver) -> None:
    """Register a context-scoped mutation observer (see :data:`AmbientMutationObserver`)."""
    _AMBIENT_MUTATION_OBSERVERS.set(_AMBIENT_MUTATION_OBSERVERS.get() + (observer,))


def remove_ambient_mutation_observer(observer: AmbientMutationObserver) -> None:
    """Unregister a context-scoped mutation observer (no-op if absent)."""
    current = _AMBIENT_MUTATION_OBSERVERS.get()
    if observer in current:
        filtered = list(current)
        filtered.remove(observer)
        _AMBIENT_MUTATION_OBSERVERS.set(tuple(filtered))


@contextmanager
def scoped_mutation_observer(observer: AmbientMutationObserver) -> Iterator[AmbientMutationObserver]:
    """Register ``observer`` for the duration of the ``with`` block.

    The registration is bounded both in time (removed on exit, even on
    error) and in space (visible only to code running in the current
    thread / context) -- the form the service's per-job tracers and the
    fault injector use.
    """
    add_ambient_mutation_observer(observer)
    try:
        yield observer
    finally:
        remove_ambient_mutation_observer(observer)


class IncrementalNetworkMixin:
    """Fanout lists, PO references, topo cache, choice classes and listener buses."""

    #: Conservative bound on the choice-acyclicity walk: a merge whose
    #: collapsed-cone check would visit more nodes is rejected outright
    #: (soundness over completeness; real classes stay far below this).
    CHOICE_TFI_LIMIT = 100_000

    _fanouts: list[list[int]] | None
    _po_refs: dict[int, list[int]]
    _topo_cache: list[int] | None
    _topo_pos: dict[int, int] | None
    _mutation_listeners: list[MutationListener]
    _choice_listeners: list[ChoiceListener]
    _choice_repr: dict[int, int]
    _choice_phase: dict[int, bool]
    _choice_members: dict[int, list[int]]
    _choice_rank: dict[int, int] | None
    _choice_rank_cyclic: bool

    if TYPE_CHECKING:  # pragma: no cover - the host container provides these
        # Declared for the type checker only (no runtime definition, so
        # the subclass's implementations are never shadowed): the read
        # surface the mixin's derived queries build on.
        def nodes(self) -> Iterator[int]: ...

        def gates(self) -> Iterator[int]: ...

        def topological_order(self) -> list[int]: ...

        def is_gate(self, node: int) -> bool: ...

        def gate_fanin_nodes(self, node: int) -> Sequence[int]: ...

        def po_nodes(self) -> list[int]: ...

    def _init_incremental(self) -> None:
        """Initialise the incremental state (call from ``__init__``)."""
        # Fanout lists: _fanouts[n] holds the gate indices referencing
        # node n, one entry per referencing fanin; None until first used.
        self._fanouts = None
        # PO references per node: _po_refs[n] lists the PO indices driven by n.
        self._po_refs = {}
        # Cached topological gate order; None = dirty.  The node->position
        # map is built from it on the first position query, so networks
        # that only walk the order (results kept for reading) never hold it.
        self._topo_cache = None
        self._topo_pos = None
        # Mutation listeners: callables invoked after substitute/replace_fanin
        # with (old_node, replacement, rewired_gates).  Incremental consumers
        # (the cut engine) use them to invalidate exactly the affected state.
        self._mutation_listeners = []
        # Choice classes: member -> representative, member -> phase
        # relative to the representative, representative -> member list
        # (representative first).  Nodes outside any class appear in none
        # of the three maps; classes always have at least two members.
        self._choice_listeners = []
        self._choice_repr = {}
        self._choice_phase = {}
        self._choice_members = {}
        # Class-level acyclicity ranks over the choice-collapsed graph:
        # every collapsed edge goes from a strictly smaller to a strictly
        # larger rank, and all members of one class share a rank.  Built
        # lazily by the first ``add_choice`` and maintained incrementally
        # afterwards; ``None`` means "not built" (choice-free networks
        # never pay for it).  ``substitute`` can close a collapsed cycle
        # among *existing* classes (it rewires structural edges without
        # re-checking them); a detected cycle sets ``_choice_rank_cyclic``
        # and merge checks fall back to the exhaustive walk until every
        # class is dissolved (an empty class set is trivially acyclic).
        self._choice_rank = None
        self._choice_rank_cyclic = False

    # ------------------------------------------------------------------
    # Construction-time bookkeeping
    # ------------------------------------------------------------------

    def _register_node(self) -> None:
        """Extend the fanout lists (once built) for one freshly appended node."""
        if self._fanouts is not None:
            self._fanouts.append([])

    def _fanout_lists(self) -> list[list[int]]:
        """The fanout lists, built by one scan of the gates on first use.

        Until the first mutation the maintained lists hold every
        referencing gate in creation order, one entry per fanin, which is
        exactly what the scan produces; mutations build the lists before
        they edit them, so the two never disagree.
        """
        fanouts = self._fanouts
        if fanouts is None:
            fanouts = self._fanouts = self._scan_fanouts()
        return fanouts

    def _scan_fanouts(self) -> list[list[int]]:
        """Fanout lists from one scan of the gates in creation order."""
        fanouts: list[list[int]] = [[] for _ in self.nodes()]
        for gate in self.gates():
            for fanin in self.gate_fanin_nodes(gate):
                fanouts[fanin].append(gate)
        return fanouts

    def _add_po_ref(self, node: int, po_index: int) -> None:
        """Record that PO ``po_index`` is driven by ``node``."""
        self._po_refs.setdefault(node, []).append(po_index)

    def _drop_po_ref(self, node: int, po_index: int) -> None:
        """Remove one PO reference (no-op if absent)."""
        refs = self._po_refs.get(node)
        if refs is not None and po_index in refs:
            refs.remove(po_index)
            if not refs:
                del self._po_refs[node]

    def _move_po_refs(self, old_node: int, new_node: int) -> list[int]:
        """Transfer all PO references of ``old_node`` to ``new_node``.

        Returns the transferred PO indices (empty when there were none);
        the caller patches the PO literal/tuple entries themselves.
        """
        refs = self._po_refs.pop(old_node, None)
        if not refs:
            return []
        self._po_refs.setdefault(new_node, []).extend(refs)
        return refs

    # ------------------------------------------------------------------
    # Fanout queries (the LogicNetwork read surface)
    # ------------------------------------------------------------------

    def fanouts(self, node: int) -> list[int]:
        """Gate indices referencing ``node`` (one entry per referencing fanin).

        Answered in O(fanout) from the incrementally maintained lists; a
        gate referencing the node through several fanins appears once per
        reference.
        """
        return list(self._fanout_lists()[node])

    def fanout_count(self, node: int) -> int:
        """Number of references of one node (gate fanins plus PO drivers).

        Answered in O(1) from the maintained fanout list and PO reference
        map; MFFC computation queries this for every cone node, so it
        must not scan the network.
        """
        fanouts = self._fanouts
        if fanouts is None:
            fanouts = self._fanout_lists()
        count = len(fanouts[node])
        refs = self._po_refs.get(node)
        return count + len(refs) if refs else count

    def fanout_counts(self) -> dict[int, int]:
        """Number of gate/PO references of every node.

        Answered in O(N) straight from the maintained fanout lists and PO
        reference map (no edge scan).
        """
        fanouts = self._fanout_lists()
        counts = {node: len(fanouts[node]) for node in self.nodes()}
        for node, refs in self._po_refs.items():
            counts[node] += len(refs)
        return counts

    def tfo(self, nodes: Iterable[int], limit: int | None = None) -> list[int]:
        """Transitive fanout cone of ``nodes`` (the nodes themselves included).

        Served from the maintained fanout lists in O(cone), without
        rebuilding a network-wide fanout map.
        """
        fanouts = self._fanout_lists()
        return transitive_fanout(list(nodes), lambda n: fanouts[n], limit)

    # ------------------------------------------------------------------
    # Topological-order cache
    # ------------------------------------------------------------------

    def _topo_append(self, node: int) -> None:
        """Extend a clean cache with a freshly created gate.

        Creation order extends any valid order: a new gate's fanins
        already exist, hence precede it.  A dirty cache stays dirty.
        When the choice ranks are active, the fresh gate (which starts
        classless and fanout-free) is ranked one past its fanins so the
        collapsed-rank invariant keeps covering every gate.
        """
        ranks = self._choice_rank
        if ranks is not None:
            base = 0
            for fanin in self.gate_fanin_nodes(node):
                fanin_rank = ranks.get(fanin, 0)
                if fanin_rank > base:
                    base = fanin_rank
            ranks[node] = base + 1
        if self._topo_cache is not None:
            if self._topo_pos is not None:
                self._topo_pos[node] = len(self._topo_cache)
            self._topo_cache.append(node)

    def _topo_invalidate(self) -> None:
        """Drop the cached order (recomputed lazily on next access)."""
        self._topo_cache = None
        self._topo_pos = None

    def _note_rewire(self, old_node: int, new_node: int) -> None:
        """Update topological-cache validity after redirecting references.

        If the cached order exists and the replacement node appears
        strictly before the replaced node, every redirected edge still
        points backwards and the cached order remains valid; otherwise
        the cache is dropped and recomputed lazily.

        With active choice ranks the redirected edges (the replacement's
        freshly gained fanouts) are re-ranked: any fanout whose class no
        longer out-ranks the replacement's class is raised, restoring the
        collapsed-rank invariant in O(affected cone).
        """
        if self._choice_rank is not None:
            self._choice_ranks_raise((new_node,))
        if self._topo_cache is None:
            return
        pos = self._topo_positions()
        if pos.get(new_node, -1) >= pos.get(old_node, -1):
            self._topo_invalidate()

    def _topo_positions(self) -> dict[int, int]:
        """The node->position map of the cached order, built on first use."""
        if self._topo_pos is None:
            if self._topo_cache is None:
                self.topological_order()
            assert self._topo_cache is not None
            self._topo_pos = {node: i for i, node in enumerate(self._topo_cache)}
        return self._topo_pos

    def topological_position(self, node: int) -> int:
        """Position of a gate in the cached topological order.

        PIs and constant nodes report ``-1`` (they precede every gate).
        Positions are consistent with fanin edges: for any gate, every
        fanin has a strictly smaller position.  Computing the order on a
        clean cache is O(1); a dirty cache triggers one O(N)
        recomputation through the host's ``topological_order``.
        """
        return self._topo_positions().get(node, -1)

    # ------------------------------------------------------------------
    # Mutation-listener bus
    # ------------------------------------------------------------------

    def add_mutation_listener(self, listener: MutationListener) -> None:
        """Register a mutation hook.

        The listener is invoked after every ``substitute`` /
        ``replace_fanin`` as ``listener(old_node, replacement,
        rewired_gates)``, where ``replacement`` is the network's
        edge-reference type (AIG literal / k-LUT node index) and
        ``rewired_gates`` are the gate indices whose fanins were
        redirected.  Incremental consumers (e.g. the shared cut engine)
        invalidate per-event state in O(fanout) instead of re-scanning
        the network.  Listeners are not cloned by ``clone``.
        """
        self._mutation_listeners.append(listener)

    def remove_mutation_listener(self, listener: MutationListener) -> None:
        """Unregister a mutation hook (no-op if it is not registered)."""
        try:
            self._mutation_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_mutation(self, old_node: int, replacement: int, rewired_gates: tuple[int, ...]) -> None:
        for observer in _AMBIENT_MUTATION_OBSERVERS.get():
            observer(self, old_node, replacement, rewired_gates)
        for listener in self._mutation_listeners:
            listener(old_node, replacement, rewired_gates)

    def _has_mutation_audience(self) -> bool:
        """True when any per-network listener or ambient observer is registered.

        Containers use this as the fire-the-bus guard in ``substitute``/
        ``replace_fanin`` so mutation events reach ambient observers even
        on networks (e.g. pass-internal clones) with no listeners.
        """
        return bool(self._mutation_listeners) or bool(_AMBIENT_MUTATION_OBSERVERS.get())

    # ------------------------------------------------------------------
    # Choice classes
    # ------------------------------------------------------------------

    def _edge_ref_parts(self, reference: int) -> tuple[int, bool]:
        """Split an edge reference into ``(node, phase)``.

        The default covers networks without complemented edges (the
        k-LUT container); the AIG overrides it to decode literals.
        """
        return reference, False

    def _make_edge_ref(self, node: int, phase: bool) -> int:
        """Inverse of :meth:`_edge_ref_parts` (phase-less by default)."""
        if phase:
            raise ValueError("this network has no complemented edge references")
        return node

    @property
    def has_choices(self) -> bool:
        """True when at least one choice class is recorded."""
        return bool(self._choice_members)

    @property
    def num_choice_classes(self) -> int:
        """Number of choice classes (each has >= 2 members)."""
        return len(self._choice_members)

    @property
    def num_choice_alternatives(self) -> int:
        """Total number of non-representative class members."""
        return len(self._choice_repr) - len(self._choice_members)

    def choice_repr(self, node: int) -> int:
        """Representative of ``node``'s choice class (``node`` itself if none)."""
        return self._choice_repr.get(node, node)

    def choice_phase(self, node: int) -> bool:
        """Phase of ``node`` relative to its class representative.

        ``True`` means the node realises the *complement* of the
        representative; nodes outside any class (and representatives)
        report ``False``.
        """
        return self._choice_phase.get(node, False)

    def choice_members(self, node: int) -> list[int]:
        """All members of ``node``'s choice class, representative first.

        A node outside any class reports ``[node]``, so callers can
        treat every node as a (possibly singleton) class uniformly.
        """
        members = self._choice_members.get(self._choice_repr.get(node, node))
        return list(members) if members is not None else [node]

    def choices(self, node: int) -> list[tuple[int, bool]]:
        """The other members of ``node``'s class, with phases relative to ``node``.

        Each entry is ``(member, phase)`` where ``phase`` is ``True``
        when the member realises the complement of ``node``.  Empty for
        nodes outside any class.
        """
        representative = self._choice_repr.get(node)
        if representative is None:
            return []
        own_phase = self._choice_phase[node]
        return [
            (member, self._choice_phase[member] ^ own_phase)
            for member in self._choice_members[representative]
            if member != node
        ]

    def _choice_merge_creates_cycle(self, members: Sequence[int]) -> bool:
        """True if merging ``members`` into one class breaks collapsed acyclicity.

        Walks the choice-closed transitive fanin of the prospective
        class (structural fanins, expanded through existing classes) and
        reports a cycle as soon as any prospective member is reached.
        The walk is bounded by :attr:`CHOICE_TFI_LIMIT`; overflowing the
        bound conservatively counts as a cycle.

        ``add_choice`` answers through the incremental rank structure
        (:meth:`_choice_merge_allowed`) instead; this exhaustive walk is
        retained as the reference the fuzz suite checks the ranks
        against, and as the answer on a cyclic collapsed graph, for
        every network kind.
        """
        targets = set(members)
        visited: set[int] = set()
        stack: list[int] = []
        for member in members:
            stack.extend(self.gate_fanin_nodes(member))
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            if node in targets:
                return True
            if len(visited) > self.CHOICE_TFI_LIMIT:
                return True
            stack.extend(self.gate_fanin_nodes(node))
            representative = self._choice_repr.get(node)
            if representative is not None:
                stack.extend(
                    other for other in self._choice_members[representative] if other not in visited
                )
        return False

    # -- collapsed-acyclicity ranks ------------------------------------
    #
    # ``_choice_merge_creates_cycle`` answers every link by walking the
    # whole choice-closed TFI of the prospective class -- O(cone) per
    # recorded link, which dominates choice recording on choice-rich
    # networks.  The rank structure replaces that walk with an O(1)
    # comparison in the common case: every gate carries a rank such that
    # each collapsed edge goes from a strictly smaller to a strictly
    # larger rank and all members of one class share a rank.  Two classes
    # of *equal* rank can then never reach each other (any collapsed path
    # strictly increases ranks), so merging them is safe without any
    # traversal; unequal ranks only require a forward walk from the
    # lower-ranked class, pruned at the higher rank.  The exhaustive walk
    # is kept (above) as the test oracle and the cyclic fallback.

    def _choice_ranks_build(self) -> bool:
        """Compute the collapsed-graph ranks for every existing gate.

        Iterative DFS over the choice-collapsed graph: the rank of a
        class is one past the largest rank among the classes feeding any
        of its members, with PIs and constants implicitly at rank 0.
        O(N) once; ranks are maintained incrementally afterwards.

        Returns ``False`` (setting :attr:`_choice_rank_cyclic`, leaving
        the ranks unbuilt) when the collapsed graph turns out to hold a
        cycle -- ``substitute`` can close one among existing classes --
        in which case no rank assignment exists and merge checks fall
        back to the exhaustive walk.
        """
        choice_repr = self._choice_repr
        choice_members = self._choice_members
        ranks: dict[int, int] = {}
        on_path: set[int] = set()
        for root in self.gates():
            if root in ranks:
                continue
            stack: list[tuple[int, bool]] = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                members = choice_members.get(choice_repr.get(node, node))
                group: Sequence[int] = members if members is not None else (node,)
                if expanded:
                    on_path.difference_update(group)
                    base = 0
                    for member in group:
                        for fanin in self.gate_fanin_nodes(member):
                            fanin_rank = ranks.get(fanin, 0)
                            if fanin_rank > base:
                                base = fanin_rank
                    value = base + 1
                    for member in group:
                        ranks[member] = value
                    continue
                if node in ranks:
                    continue
                if node in on_path:
                    # Reached a class that is currently being expanded:
                    # a collapsed cycle.
                    self._choice_rank = None
                    self._choice_rank_cyclic = True
                    return False
                on_path.update(group)
                stack.append((node, True))
                for member in group:
                    for fanin in self.gate_fanin_nodes(member):
                        if fanin not in ranks and self.is_gate(fanin):
                            stack.append((fanin, False))
        self._choice_rank = ranks
        return True

    def _choice_ranks_raise(self, seeds: Iterable[int]) -> None:
        """Propagate rank increases downstream over the collapsed graph.

        For every seed whose rank may have grown (a freshly merged class,
        a substitution target that just inherited fanouts), re-checks its
        collapsed fanout edges and raises any class that no longer
        out-ranks its fanin, transitively.  Raising a class re-queues all
        its members (their fanouts must out-rank the new value too).  The
        walk is bounded by :attr:`CHOICE_TFI_LIMIT` (on overflow the rank
        structure is dropped and rebuilt by the next ``add_choice`` --
        correctness never depends on it) and by the node count as a rank
        ceiling: an acyclic collapsed graph never ranks past its node
        count, so exceeding it proves ``substitute`` closed a collapsed
        cycle and flips :attr:`_choice_rank_cyclic`.
        """
        ranks = self._choice_rank
        if ranks is None:
            return
        choice_repr = self._choice_repr
        choice_members = self._choice_members
        fanouts = self._fanout_lists()
        ceiling = len(fanouts)
        stack = list(seeds)
        touched = 0
        while stack:
            node = stack.pop()
            base = ranks.get(node, 0)
            for out in fanouts[node]:
                if ranks.get(out, 0) > base:
                    continue
                members = choice_members.get(choice_repr.get(out, out))
                group: Sequence[int] = members if members is not None else (out,)
                value = base + 1
                if value > ceiling:
                    self._choice_rank = None
                    self._choice_rank_cyclic = True
                    return
                for member in group:
                    ranks[member] = value
                    stack.append(member)
                touched += len(group)
                if touched > self.CHOICE_TFI_LIMIT:
                    self._choice_rank = None
                    return

    def _choice_merge_allowed(
        self, target_members: Sequence[int], alt_members: Sequence[int]
    ) -> bool:
        """Rank-based replacement for the collapsed-acyclicity walk.

        Equal class ranks are accepted in O(1) (no collapsed path can
        connect equally-ranked classes).  Unequal ranks trigger one
        forward walk from the lower-ranked class over choice-closed
        fanouts, pruned wherever the rank reaches the higher class's rank
        -- a path there would have to keep climbing past it.  Overflowing
        :attr:`CHOICE_TFI_LIMIT` conservatively rejects, exactly like the
        exhaustive walk.

        On a collapsed graph known to hold a cycle
        (:attr:`_choice_rank_cyclic`) no rank assignment exists: the
        answer comes from the exhaustive walk until the class set empties
        and the flag resets.
        """
        if self._choice_rank_cyclic:
            return not self._choice_merge_creates_cycle(
                list(target_members) + list(alt_members)
            )
        ranks = self._choice_rank
        if ranks is None:
            if not self._choice_ranks_build():
                return not self._choice_merge_creates_cycle(
                    list(target_members) + list(alt_members)
                )
            ranks = self._choice_rank
            assert ranks is not None
        rank_a = ranks.get(target_members[0])
        rank_b = ranks.get(alt_members[0])
        if rank_a is None or rank_b is None:  # pragma: no cover - defensive
            return not self._choice_merge_creates_cycle(
                list(target_members) + list(alt_members)
            )
        if rank_a == rank_b:
            return True
        if rank_a < rank_b:
            low, high, high_rank = target_members, alt_members, rank_b
        else:
            low, high, high_rank = alt_members, target_members, rank_a
        choice_repr = self._choice_repr
        choice_members = self._choice_members
        fanouts = self._fanout_lists()
        high_set = set(high)
        visited = set(low)
        stack: list[int] = []
        for member in low:
            stack.extend(fanouts[member])
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            if node in high_set:
                return False
            if len(visited) > self.CHOICE_TFI_LIMIT:
                return False
            if ranks.get(node, 0) >= high_rank:
                # Any collapsed path onwards keeps strictly increasing
                # ranks, so it can never come back down to ``high``.
                continue
            members = choice_members.get(choice_repr.get(node, node))
            if members is None:
                stack.extend(fanouts[node])
            else:
                # The whole class is one collapsed node: continue through
                # every member's fanouts (class rank < high_rank, so no
                # member can itself be in ``high``).
                for member in members:
                    visited.add(member)
                    stack.extend(fanouts[member])
        return True

    def add_choice(self, repr_node: int, alternative: int) -> bool:
        """Record ``alternative`` as a functionally-equivalent choice of ``repr_node``.

        ``alternative`` is the network's edge-reference type (an AIG
        literal, so complemented equivalences are expressible; a plain
        node index on a k-LUT network).  The call is *best effort* and
        returns whether the link was recorded: it refuses PIs/constants,
        nodes already in the same class, and -- crucially -- any link
        that would make the choice-collapsed graph cyclic (see the
        module docstring).  When the alternative already heads a class
        of its own, the two classes are merged.  The caller is
        responsible for the *functional* equivalence of the pair; the
        fuzz suite verifies it by simulation.
        """
        alt_node, alt_phase = self._edge_ref_parts(alternative)
        if alt_node == repr_node:
            return False
        if not self.is_gate(repr_node) or not self.is_gate(alt_node):
            return False
        target = self._choice_repr.get(repr_node, repr_node)
        if self._choice_repr.get(alt_node, alt_node) == target:
            return False
        alt_repr = self._choice_repr.get(alt_node, alt_node)
        alt_members = self._choice_members.get(alt_repr, [alt_node])
        target_members = self._choice_members.get(target, [target])
        if not self._choice_merge_allowed(target_members, alt_members):
            return False
        # Phase of the alternative's representative relative to `target`:
        # alt_node == target ^ (phase(repr_node) ^ alt_phase) and
        # alt_node == alt_repr ^ phase(alt_node).
        alt_repr_phase = self._choice_phase.get(repr_node, False) ^ alt_phase ^ self._choice_phase.get(alt_node, False)
        if target not in self._choice_members:
            self._choice_members[target] = [target]
            self._choice_repr[target] = target
            self._choice_phase[target] = False
        merged = self._choice_members[target]
        for member in alt_members:
            self._choice_repr[member] = target
            self._choice_phase[member] = alt_repr_phase ^ self._choice_phase.get(member, False)
            merged.append(member)
        if alt_repr in self._choice_members and alt_repr != target:
            del self._choice_members[alt_repr]
        ranks = self._choice_rank
        if ranks is not None:
            # The merged class takes the larger of the two ranks; the
            # raised half's fanouts may no longer out-rank it, so
            # propagate downstream.
            value = max(ranks.get(member, 0) for member in merged)
            for member in merged:
                ranks[member] = value
            self._choice_ranks_raise(tuple(merged))
        self._notify_choice(target, tuple(merged))
        return True

    def remove_choice(self, node: int) -> bool:
        """Detach ``node`` from its choice class (dissolving 1-member remnants).

        Returns ``True`` when the node was a class member.  When the
        removed node was the representative, the first surviving member
        takes over and phases are rebased onto it.
        """
        representative = self._choice_repr.get(node)
        if representative is None:
            return False
        members = self._choice_members[representative]
        affected = tuple(members)
        members.remove(node)
        del self._choice_repr[node]
        del self._choice_phase[node]
        if len(members) < 2:
            for member in members:
                self._choice_repr.pop(member, None)
                self._choice_phase.pop(member, None)
            del self._choice_members[representative]
            if not self._choice_members:
                # No classes left: the collapsed graph is the structural
                # DAG again, so a cycle flagged earlier is gone.
                self._choice_rank_cyclic = False
        elif node == representative:
            new_representative = members[0]
            base = self._choice_phase[new_representative]
            del self._choice_members[representative]
            self._choice_members[new_representative] = members
            for member in members:
                self._choice_repr[member] = new_representative
                self._choice_phase[member] = self._choice_phase[member] ^ base
        self._notify_choice(representative, affected)
        return True

    def clear_choices(self) -> None:
        """Drop every recorded choice class."""
        affected = [tuple(members) for members in self._choice_members.values()]
        self._choice_repr.clear()
        self._choice_phase.clear()
        self._choice_members.clear()
        self._choice_rank_cyclic = False
        for members in affected:
            self._notify_choice(members[0], members)

    def _choices_on_substitute(self, old_node: int, replacement: int) -> None:
        """Re-anchor ``old_node``'s choice class onto the replacement.

        Called by the containers' ``substitute``: the replaced node
        leaves its class, and the surviving members are linked to the
        replacement node (which now carries the fanouts) -- best effort,
        links breaking the collapsed-acyclicity invariant are dropped.
        """
        representative = self._choice_repr.get(old_node)
        if representative is None:
            return
        new_node, sub_phase = self._edge_ref_parts(replacement)
        old_phase = self._choice_phase[old_node]
        survivors = [m for m in self._choice_members[representative] if m != old_node]
        # anchor == repr ^ phase(anchor), old == repr ^ old_phase and
        # old == new ^ sub_phase, hence anchor == new ^ (phases xored).
        # Captured before remove_choice, which may rebase or drop phases.
        anchor = survivors[0] if survivors else -1
        anchor_phase = (self._choice_phase.get(anchor, False) ^ old_phase ^ sub_phase) if survivors else False
        self.remove_choice(old_node)
        if not survivors or not self.is_gate(new_node):
            return
        self.add_choice(new_node, self._make_edge_ref(anchor, anchor_phase))

    def choice_topological_order(self) -> list[int]:
        """Gate order consistent with the *choice-collapsed* graph.

        For every gate, the structural fanins of **all** members of its
        choice class appear earlier -- the order choice-aware cut
        enumeration and mapping iterate, since a cut recorded at any
        class member may reach leaves anywhere in the class's merged
        fanin cone.  Without choices this is the plain (cached)
        topological order.
        """
        if not self._choice_members:
            return self.topological_order()
        choice_repr = self._choice_repr
        choice_members = self._choice_members

        def fanins_of(node: int) -> list[int]:
            members = choice_members.get(choice_repr.get(node, node))
            if members is None:
                return list(self.gate_fanin_nodes(node))
            merged: list[int] = []
            for member in members:
                merged.extend(self.gate_fanin_nodes(member))
            return merged

        roots = list(self.po_nodes()) + list(self.gates())
        return [node for node in topological_sort(roots, fanins_of) if self.is_gate(node)]

    # -- choice listener bus -------------------------------------------

    def add_choice_listener(self, listener: ChoiceListener) -> None:
        """Register a choice hook.

        The listener is invoked after every class change (link added,
        member removed, class re-anchored) as ``listener(representative,
        members)`` with ``members`` the nodes whose class composition
        changed; incremental consumers (the choice-aware cut engine)
        invalidate exactly those nodes' merged state.  Listeners are not
        cloned by ``clone``.
        """
        self._choice_listeners.append(listener)

    def remove_choice_listener(self, listener: ChoiceListener) -> None:
        """Unregister a choice hook (no-op if it is not registered)."""
        try:
            self._choice_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_choice(self, representative: int, members: tuple[int, ...]) -> None:
        for listener in self._choice_listeners:
            listener(representative, members)

    # ------------------------------------------------------------------
    # Clone support
    # ------------------------------------------------------------------

    def _copy_incremental_into(self, other: "IncrementalNetworkMixin") -> None:
        """Copy the incremental state into a clone (listeners and cached order excluded).

        Mutation listeners are bound to *this* network's consumers; the
        clone starts with none.  It also starts with no cached
        topological order: an order extended by :meth:`_topo_append`
        differs from a fresh one, and passes that walk a clone must not
        depend on how the input was built.
        """
        other._fanouts = [list(refs) for refs in self._fanouts] if self._fanouts is not None else None
        other._po_refs = {node: list(refs) for node, refs in self._po_refs.items()}
        other._topo_cache = None
        other._topo_pos = None
        other._mutation_listeners = []
        other._choice_listeners = []
        other._choice_repr = dict(self._choice_repr)
        other._choice_phase = dict(self._choice_phase)
        other._choice_members = {node: list(members) for node, members in self._choice_members.items()}
        other._choice_rank = dict(self._choice_rank) if self._choice_rank is not None else None
        other._choice_rank_cyclic = self._choice_rank_cyclic
