"""The shared priority-cut engine.

One :class:`CutEngine` instance serves every cut consumer in the tree:

* the LUT mapper enumerates cuts over a static network
  (:meth:`CutEngine.enumerate_all`);
* DAG-aware rewriting keeps the engine *attached* to a mutating
  :class:`~repro.networks.aig.Aig`: :meth:`~repro.networks.aig.Aig.substitute`
  events invalidate exactly the rewired gates' cut sets (O(fanout) per
  event), freshly created gates register at creation, and the
  dead-cone/revival bookkeeping that used to live privately in
  ``rewriting/rewrite.py`` is part of the engine.  Attachment goes
  through the generic mutation-listener bus of the
  :class:`~repro.networks.protocol.MutableNetwork` protocol (the
  listener signature is network-agnostic); the cut *merging* itself is
  AIG-specific -- two fanin literals per gate -- which is why the
  engine's constructor takes an ``Aig``, not the bare protocol;
* every cut carries its function, fused bottom-up from the fanin cut
  tables through the shared :class:`~repro.cuts.cache.CutFunctionCache`
  -- no consumer ever re-walks a cone to learn a cut's function;
* with ``use_choices`` the engine merges cut sets **across choice
  classes**: every class member's set is the union of its own
  structural cuts and the (phase-complemented) cuts of the other
  members, so downstream merges and the mapper transparently select
  among all recorded implementations.

Soundness of the fused tables under rewriting: the pass only commits
function-preserving substitutions, so the composition identity a stored
table expresses (``f_root = table(f_leaf_0, ..., f_leaf_{k-1})`` as
functions of the primary inputs) survives every mutation even when the
*structural* cone has been rewired around a stale leaf.

Soundness of choice-merged cuts: a member's table over its leaves is
complemented through the class phases
(:meth:`~repro.cuts.cache.CutFunctionCache.complement_table`, memoised under
the same structural-signature regime as the merge tables), so a cut
borrowed from an alternative expresses the *borrowing* node's function
exactly.  Acyclicity of any mapping drawn from the merged sets is the
network's choice-collapsed invariant (see
:mod:`repro.networks.incremental`); enumeration follows the network's
``choice_topological_order`` so every leaf a borrowed cut can reach is
enumerated first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..truthtable import TruthTable
from .cache import CutFunctionCache
from .cut import Cut, merge_cut_sets, trivial_cut

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..networks.aig import Aig
    from ..resilience import Budget

__all__ = ["CutEngine"]


class CutEngine:
    """Priority-cut database over an AIG, static or incrementally maintained.

    Parameters
    ----------
    aig:
        The network.  With ``attach=True`` the engine registers a
        mutation listener (the
        :class:`~repro.networks.protocol.MutableNetwork` listener bus)
        so :meth:`Aig.substitute` / :meth:`Aig.replace_fanin` events
        invalidate the rewired gates' cut sets automatically; call
        :meth:`detach` when done.
    k / cut_limit:
        Cut size bound and priority limit (the trivial cut is always
        kept on top of ``cut_limit - 1`` merged cuts).
    compute_tables:
        Fuse truth-table computation into the merges (on by default).
    cache:
        A shared :class:`CutFunctionCache`; a private one is created
        when omitted.
    use_choices:
        Merge cut sets across the network's choice classes: every class
        member's served set is its own structural cuts plus the
        phase-complemented cuts of the other members, capped at
        ``2 * cut_limit``: a member's own cuts take priority, borrowed
        cuts fill the remainder smallest-first.  With ``attach=True`` the
        engine also registers a choice listener so class changes
        invalidate exactly the affected members.
    budget:
        Optional :class:`repro.resilience.Budget`; the enumeration loops
        poll its deadline every :data:`BUDGET_POLL_STRIDE` nodes and
        raise ``BudgetExceeded`` when it expires (the engine's database
        stays consistent -- already-computed sets remain valid).
    """

    #: Enumeration nodes between two deadline polls.
    BUDGET_POLL_STRIDE = 256

    def __init__(
        self,
        aig: Aig,
        k: int = 6,
        cut_limit: int = 8,
        compute_tables: bool = True,
        cache: CutFunctionCache | None = None,
        attach: bool = False,
        use_choices: bool = False,
        budget: "Budget | None" = None,
    ) -> None:
        if k < 1:
            raise ValueError("cut size k must be at least 1")
        if cut_limit < 1:
            raise ValueError("cut limit must be at least 1")
        self.aig = aig
        self.k = k
        self.cut_limit = cut_limit
        self.cache = cache if cache is not None else CutFunctionCache()
        self._with_tables = compute_tables
        self.use_choices = use_choices
        # The constant node's cut has no leaves; its zero-input constant
        # table expands into "constant false over the merged leaves".
        constant_table = TruthTable.constant(False, 0) if compute_tables else None
        self._db: dict[int, list[Cut]] = {0: [Cut((), constant_table)]}
        # Structural-only sets of choice-class members; the served
        # (class-merged) sets live in _db.
        self._own: dict[int, list[Cut]] = {}
        for pi in aig.pis:
            self._db[pi] = [trivial_cut(pi, with_table=compute_tables)]
        self._dead: set[int] = set()
        self._attached = False
        self.budget = budget
        self._poll_countdown = self.BUDGET_POLL_STRIDE
        self.merges = 0
        self.invalidations = 0
        if attach:
            aig.add_mutation_listener(self._on_mutation)
            aig.add_choice_listener(self._on_choice)
            self._attached = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def detach(self) -> None:
        """Unregister the mutation/choice listeners (idempotent)."""
        if self._attached:
            self.aig.remove_mutation_listener(self._on_mutation)
            self.aig.remove_choice_listener(self._on_choice)
            self._attached = False

    def _on_mutation(self, old_node: int, new_literal: int, rewired_gates: Sequence[int]) -> None:
        """Mutation event: drop the cut sets of exactly the rewired gates.

        The replaced node's own entry is dropped too (it is dangling
        now); rewired gates recompute lazily from their live fanins on
        the next access.  Work per event is O(len(rewired_gates)).
        """
        self._db.pop(old_node, None)
        self._own.pop(old_node, None)
        for gate in rewired_gates:
            self._own.pop(gate, None)
            if self._db.pop(gate, None) is not None:
                self.invalidations += 1

    def _poll_budget(self) -> None:
        """Strided cooperative deadline poll for the enumeration loops."""
        if self.budget is None:
            return
        self._poll_countdown -= 1
        if self._poll_countdown <= 0:
            self._poll_countdown = self.BUDGET_POLL_STRIDE
            self.budget.checkpoint("cuts")

    def _on_choice(self, representative: int, members: Sequence[int]) -> None:
        """Choice event: drop the served sets of the affected class members.

        Their structural-only sets stay valid; the class-merged view is
        rebuilt lazily on the next access.  Work per event is
        O(len(members)).
        """
        for member in members:
            self._db.pop(member, None)

    # ------------------------------------------------------------------
    # Cut access
    # ------------------------------------------------------------------

    def cuts(self, node: int) -> list[Cut]:
        """Cut set of ``node``, computing (and storing) it on demand.

        Missing fanin cut sets are computed first, iteratively, so a
        chain of invalidated gates never recurses deeply.  A node with
        no computable fanins (a PI or the constant) answers its trivial
        set directly.  With ``use_choices``, a choice-class member's set
        is the class-merged view: the member's own structural cuts plus
        the phase-complemented cuts of the other members (all members'
        structural sets are computed together, then combined).
        """
        cached = self._db.get(node)
        if cached is not None:
            return cached
        if not self.aig.is_and(node):
            result = [trivial_cut(node, with_table=self._with_tables)]
            self._db[node] = result
            return result
        use_choices = self.use_choices and self.aig.has_choices
        stack = [node]
        while stack:
            self._poll_budget()
            current = stack[-1]
            if current in self._db:
                stack.pop()
                continue
            members = self.aig.choice_members(current) if use_choices else [current]
            missing: list[int] = []
            if len(members) == 1:
                missing.extend(
                    fanin
                    for fanin in self.aig.fanin_nodes(current)
                    if fanin not in self._db and self.aig.is_and(fanin)
                )
                if missing:
                    stack.extend(missing)
                    continue
                stack.pop()
                self._db[current] = self._merge(current)
                continue
            # A choice class: every member's structural set is needed
            # before any member's merged view can be served.  The class-
            # collapsed acyclicity invariant guarantees no member's cone
            # reaches back into the class, so the stack terminates.
            for member in members:
                if member not in self._own:
                    missing.extend(
                        fanin
                        for fanin in self.aig.fanin_nodes(member)
                        if fanin not in self._db and self.aig.is_and(fanin)
                    )
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            for member in members:
                if member not in self._own:
                    self._own[member] = self._merge(member)
            for member in members:
                if member not in self._db:
                    self._db[member] = self._combine_class(member, members)
        return self._db[node]

    def _combine_class(self, node: int, members: Sequence[int]) -> list[Cut]:
        """Class-merged cut set served for ``node``.

        The member's own cuts keep their priority (they stay first, so
        downstream truncation prefers them -- a choice-augmented run can
        only widen, never displace, the plain selection at equal size);
        cuts borrowed from the other members follow smallest-first, with
        their fused tables complemented through the relative phases, and
        each member's *trivial* cut stays private (a borrowed wire would
        alias the class).  The result is capped at ``2 * cut_limit``.
        """
        own = self._own[node]
        combined = [cut for cut in own if cut.leaves != (node,)]
        seen = {cut.leaves for cut in combined}
        node_phase = self.aig.choice_phase(node)
        borrowed: list[tuple[Cut, int]] = []
        for member in members:
            if member == node:
                continue
            # The structural-only set when available; an already-served
            # (class-merged) set is an equally sound source -- its
            # tables express the member's function and duplicates are
            # filtered by leaf set.
            source = self._own.get(member)
            if source is None:
                source = self._db.get(member)
            if source is None:
                continue
            phase = self.aig.choice_phase(member) ^ node_phase
            for cut in source:
                if cut.leaves == (member,) or cut.leaves in seen:
                    continue
                seen.add(cut.leaves)
                borrowed.append((cut, phase))
        borrowed.sort(key=lambda entry: entry[0].size)
        room = max(0, 2 * self.cut_limit - 1 - len(combined))
        # Complement only the borrowed tables that survive the cap.
        for cut, phase in borrowed[:room]:
            if cut.table is not None and phase:
                cut = Cut(cut.leaves, self.cache.complement_table(cut.table))
            combined.append(cut)
        combined.append(trivial_cut(node, with_table=self._with_tables))
        return combined

    def compute(self, node: int) -> list[Cut]:
        """(Re)compute the cut set of ``node`` from its live fanins and store it.

        Rewriting calls this when visiting a node: the unconditional
        recompute folds in any fanin rewiring that happened since the
        node's cuts were last registered (e.g. at creation time).  With
        ``use_choices`` the recomputed structural set is re-merged with
        the node's class (the other members' sets are reused as cached).
        """
        cuts = self._merge(node)
        if self.use_choices:
            members = self.aig.choice_members(node)
            if len(members) > 1:
                self._own[node] = cuts
                for member in members:
                    if member != node and member not in self._own:
                        self.cuts(member)
                cuts = self._combine_class(node, members)
        self._db[node] = cuts
        return cuts

    def note_created(self, node: int) -> None:
        """Register a freshly created gate (no-op if it already has cuts)."""
        if self.aig.is_and(node) and node not in self._db:
            self._db[node] = self._merge(node)

    def _merge(self, node: int) -> list[Cut]:
        fanin0, fanin1 = self.aig.fanins(node)
        node0, node1 = fanin0 >> 1, fanin1 >> 1
        cuts0 = self._db.get(node0)
        if cuts0 is None:
            cuts0 = self.cuts(node0)
        cuts1 = self._db.get(node1)
        if cuts1 is None:
            cuts1 = self.cuts(node1)
        self.merges += 1
        return merge_cut_sets(
            node,
            fanin0,
            fanin1,
            cuts0,
            cuts1,
            self.k,
            self.cut_limit,
            self.cache if self._with_tables else None,
        )

    def enumerate_all(self) -> dict[int, list[Cut]]:
        """Cut sets of every gate, computed in one topological pass.

        This is the static-enumeration entry point the mapper uses; the
        returned dictionary is the live database (constant, PIs and
        gates), so callers must not mutate it.  With ``use_choices`` the
        pass follows the network's ``choice_topological_order`` (all
        structural fanins of a class precede every member) and the
        stored sets are the class-merged views.
        """
        if self.use_choices and self.aig.has_choices:
            for node in self.aig.choice_topological_order():
                self._poll_budget()
                if node not in self._db:
                    self.cuts(node)
            return self._db
        for node in self.aig.topological_order():
            self._poll_budget()
            if node not in self._db:
                self._db[node] = self._merge(node)
        return self._db

    def enumerate_nodes(self, nodes: Iterable[int]) -> dict[int, list[Cut]]:
        """Cut sets of ``nodes`` (plus their fanin cones), nothing else.

        The restricted-enumeration entry point: the choice-aware
        mapper's *plain fallback* run maps only the PO-reachable subject
        graph, so enumerating the (possibly subject-sized) dangling
        alternative cones would be pure waste.  Missing fanin sets
        resolve lazily through :meth:`cuts`; the returned dictionary is
        the live database, as with :meth:`enumerate_all`.
        """
        for node in nodes:
            self._poll_budget()
            if node not in self._db:
                self.cuts(node)
        return self._db

    # ------------------------------------------------------------------
    # Dead-cone bookkeeping (rewriting's staleness/revival logic)
    # ------------------------------------------------------------------

    @property
    def num_dead(self) -> int:
        """Number of gates currently marked dead."""
        return len(self._dead)

    def is_dead(self, node: int) -> bool:
        """True if ``node`` is marked as freed by a substitution."""
        return node in self._dead

    def kill(self, nodes: Iterable[int]) -> None:
        """Mark a substitution's freed cone (typically the root's MFFC) dead."""
        self._dead.update(nodes)

    def revive_from(self, start: int) -> int:
        """Un-kill every dead gate reachable through the fanins of ``start``.

        A replacement cone may reuse gates an earlier substitution left
        for dead (structural hashing resurrects them); those gates --
        and their fanin cones, which they keep referenced -- are live
        again.  Revived gates without a registered cut set get the
        trivial one (their stored sets, when present, are still sound:
        see the module docstring).  Returns the number of revived gates.
        """
        aig = self.aig
        revived = 0
        stack = [start]
        while stack:
            node = stack.pop()
            if not aig.is_and(node):
                continue
            changed = False
            if node in self._dead:
                self._dead.discard(node)
                revived += 1
                changed = True
            if node not in self._db:
                self._db[node] = [trivial_cut(node, with_table=self._with_tables)]
                changed = True
            if changed:
                stack.extend(aig.fanin_nodes(node))
        return revived

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Flat numeric view: merges, invalidations, dead count, cache stats."""
        result = {
            "merges": float(self.merges),
            "invalidations": float(self.invalidations),
            "dead": float(self.num_dead),
            "nodes_with_cuts": float(len(self._db)),
        }
        result.update(self.cache.stats())
        return result

