"""AIG-to-k-LUT technology mapping on the shared priority-cut engine.

The paper's simulator operates on k-LUT networks while the sweeper
operates on AIGs, so a structural mapper bridges the two.  The mapper is
a classical multi-pass cut-based mapper in the style of ABC's ``if``:

1. a **depth pass** selects, for every node, the cut with the smallest
   arrival time (ties broken by leaf count) and records the mapping's
   depth;
2. an **area-flow pass** re-selects cuts to minimise estimated global
   area (area flow), constrained by per-node *required times* derived
   from the depth-pass mapping, so depth never degrades;
3. an **exact-area pass** walks the covered nodes with a reference
   counter, dereferences each node's current cut and greedily picks the
   candidate whose cone adds the fewest actual LUTs at the same
   required-time constraint.

Cut enumeration, fused cut functions and the structural-signature
function cache come from :mod:`repro.cuts`; the mapper never walks a
cone to compute a LUT function.  Every selected cut becomes a LUT whose
truth table is the cut's fused table.

Each node's candidate cuts, and each candidate's gate leaves, are built
once per run.  The passes keep arrival times, area flow, exact-area
reference counts and required times in lists indexed by node, in the
manner of ABC's flat per-node arrays (Mishchenko et al., "Combinational
and sequential mapping with priority cuts", ICCAD 2007).  Each
selection's cover is computed once and serves the next pass's required
times and the final network.

Choice-aware mapping
--------------------

On a network carrying choice classes (see
:mod:`repro.networks.incremental`), every class member's cut set is the
class-merged view (:class:`~repro.cuts.engine.CutEngine` with
``use_choices``), so **all three passes** select per node among every
recorded implementation -- a depth-optimal alternative can win the depth
pass while an area-cheaper one wins exact area at another node.  The
passes iterate the network's ``choice_topological_order`` (a borrowed
cut's leaves may live anywhere in the class's merged fanin cone) and the
area-flow reference estimates are restricted to the PO-reachable
subject graph, so dangling alternative structures never distort the
sharing estimate.  The emitted k-LUT network is **choice-free**: the
selection resolves every class to one concrete implementation per
covered node.

The choice-aware run is additionally guarded by a *plain fallback*: the
same network is also mapped with choices disabled (exactly the plain
mapper's selection) and the choice selection only ships when it does
not regress -- mapping a choice-augmented network therefore never
yields more LUTs or a deeper network than plain mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..cuts import Cut, CutEngine, CutFunctionCache, aig_cone_table
from .aig import Aig
from .klut import KLutNetwork

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..resilience import Budget

__all__ = [
    "MappingStats",
    "MappingResult",
    "technology_map",
    "map_aig_to_klut",
]

_INFINITY = float("inf")


# ---------------------------------------------------------------------------
# Mapping statistics
# ---------------------------------------------------------------------------


@dataclass
class MappingStats:
    """Counters collected by one technology-mapping run.

    ``cache_hits``/``cache_misses`` are the shared
    :class:`~repro.cuts.cache.CutFunctionCache` lookups of this run: one
    per kept cut, none for a candidate that cut selection drops.
    """

    k: int = 0
    cut_limit: int = 0
    num_luts: int = 0
    depth: int = 0
    num_edges: int = 0
    depth_pass_luts: int = 0
    area_flow_luts: int = 0
    exact_area_luts: int = 0
    cuts_enumerated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_rate: float = 0.0
    choice_classes: int = 0
    choice_alternatives: int = 0
    used_choices: bool = False
    passes: list[str] = field(default_factory=list)

    def as_details(self) -> dict[str, float]:
        """Flat numeric view for reports and benchmarks."""
        return {
            "num_luts": float(self.num_luts),
            "depth": float(self.depth),
            "num_edges": float(self.num_edges),
            "depth_pass_luts": float(self.depth_pass_luts),
            "area_flow_luts": float(self.area_flow_luts),
            "exact_area_luts": float(self.exact_area_luts),
            "cuts_enumerated": float(self.cuts_enumerated),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "cache_hit_rate": self.cache_hit_rate,
            "choice_classes": float(self.choice_classes),
            "choice_alternatives": float(self.choice_alternatives),
            "used_choices": float(self.used_choices),
        }

    def __str__(self) -> str:
        choices = ""
        if self.choice_classes:
            outcome = "selected" if self.used_choices else "plain fallback"
            choices = f"; {self.choice_classes} choice classes, {outcome}"
        return (
            f"mapped to {self.num_luts} LUT{self.k}s, depth {self.depth}, "
            f"{self.num_edges} edges ({' -> '.join(self.passes)}; "
            f"cut cache hit rate {self.cache_hit_rate:.1%}{choices})"
        )


@dataclass
class MappingResult:
    """A mapped network plus the node map and the run's statistics."""

    network: KLutNetwork
    node_map: dict[int, int]
    stats: MappingStats


# ---------------------------------------------------------------------------
# The multi-pass mapper
# ---------------------------------------------------------------------------


class _Mapper:
    """One mapping run: cut selection state shared by the passes.

    Each topo node's candidate cuts and their gate leaves are built once,
    in lists parallel to ``topo``.  The passes keep their per-node state
    in lists indexed by node -- ``arrival``, ``best_gates`` (the gate
    leaves of the selected cut), the required times, the area flow and
    the exact-area reference counts -- where a node no pass has visited
    reads 0.
    """

    def __init__(
        self,
        aig: Aig,
        k: int,
        cut_limit: int,
        cache: CutFunctionCache | None,
        use_choices: bool = False,
        budget: "Budget | None" = None,
    ) -> None:
        self.aig = aig
        self.k = k
        self.budget = budget
        self.use_choices = use_choices and aig.has_choices
        # The choice-aware run doubles the priority-cut budget: class-
        # merged fanin sets produce more merge candidates, and at the
        # plain budget the smallest-first truncation starts dropping the
        # *subject* cuts -- measurably costing depth.  The plain
        # fallback run keeps the caller's budget, so its selection stays
        # bit-identical to a plain map.
        engine_cut_limit = 2 * cut_limit if self.use_choices else cut_limit
        self.engine = CutEngine(
            aig,
            k=k,
            cut_limit=engine_cut_limit,
            cache=cache,
            use_choices=self.use_choices,
            budget=budget,
        )
        # With choices a borrowed cut's leaves may live anywhere in the
        # class's merged fanin cone, so the passes iterate the choice-
        # collapsed order (leaves always precede the selecting node).
        # A *plain* run on a choice-carrying network (the never-worse
        # fallback) maps only the PO-reachable subject graph instead:
        # its selection cannot use the dangling alternative cones, so
        # neither enumerating nor iterating them buys anything.
        reachable = set(aig.tfi(aig.po_nodes())) if aig.has_choices else None
        if self.use_choices:
            self.topo = aig.choice_topological_order()
            self.all_cuts = self.engine.enumerate_all()
        elif reachable is not None:
            self.topo = [node for node in aig.topological_order() if node in reachable]
            self.all_cuts = self.engine.enumerate_nodes(self.topo)
        else:
            self.topo = aig.topological_order()
            self.all_cuts = self.engine.enumerate_all()
        # The candidates of a node are its non-trivial cuts (the trivial
        # cut maps a node onto itself), or its whole set when it has no
        # other.  A leaf is a gate exactly when its index lies above the
        # PIs'.
        num_pis = aig.num_pis
        self.candidates: list[list[Cut]] = []
        self.candidate_gates: list[list[tuple[int, ...]]] = []
        for node in self.topo:
            cuts = [cut for cut in self.all_cuts[node] if cut.leaves != (node,)] or list(self.all_cuts[node])
            self.candidates.append(cuts)
            self.candidate_gates.append([_gate_leaves(cut.leaves, num_pis) for cut in cuts])
        self.best: dict[int, Cut] = {}
        self.best_gates: list[tuple[int, ...]] = [()] * aig.num_nodes
        self.arrival = [0] * aig.num_nodes
        # Estimated reference counts for area flow: how often a node is
        # used in the subject graph (never below one).  The estimate is
        # restricted to the PO-reachable subgraph: references held by
        # dangling logic -- leftover cones, and in particular a choice
        # pass's additive alternative structures -- are not subject
        # logic and must not distort the sharing estimate.  This also
        # makes the choice-aware run and its plain fallback price
        # sharing identically to a plain map of the un-augmented
        # network, which is what the never-worse guarantee rests on.
        self.est_refs = self._reachable_refs(reachable)

    def _reachable_refs(self, reachable: set[int] | None = None) -> list[int]:
        """Reference estimates counted over the PO-reachable subgraph only."""
        aig = self.aig
        if reachable is None:
            reachable = set(aig.tfi(aig.po_nodes()))
        counts = dict.fromkeys(self.topo, 0)
        for node in self.topo:
            if node not in reachable:
                continue
            for fanin in aig.gate_fanin_nodes(node):
                if fanin in counts:
                    counts[fanin] += 1
        for driver in aig.po_nodes():
            if driver in counts:
                counts[driver] += 1
        refs = [1] * aig.num_nodes
        for node, count in counts.items():
            if count > 1:
                refs[node] = count
        return refs

    # -- shared helpers -------------------------------------------------

    def poll_budget(self, counter: int) -> None:
        """Strided cooperative deadline poll for the selection loops."""
        if self.budget is not None and counter % 256 == 0:
            self.budget.checkpoint("map")

    def and_po_drivers(self) -> list[int]:
        """AND nodes driving a primary output, in PO order."""
        aig = self.aig
        return [node for node in aig.po_nodes() if aig.is_and(node)]

    def cover(self) -> list[int]:
        """AND nodes used by the current selection, in topological order."""
        best_gates = self.best_gates
        required = bytearray(self.aig.num_nodes)
        frontier = self.and_po_drivers()
        while frontier:
            node = frontier.pop()
            if required[node]:
                continue
            required[node] = 1
            for leaf in best_gates[node]:
                if not required[leaf]:
                    frontier.append(leaf)
        return [node for node in self.topo if required[node]]

    def mapping_depth(self) -> int:
        """Largest PO arrival under the current selection."""
        return max(map(self.arrival.__getitem__, self.and_po_drivers()), default=0)

    def required_times(self, cover: list[int], target_depth: int) -> list[float]:
        """Per-node required times over the current cover.

        PO drivers are required at ``target_depth``; a covered node
        pushes ``required - 1`` onto its cut leaves.  Nodes outside the
        cover are unconstrained (infinity) -- if a later pass pulls one
        into the cover as a leaf, the leaf-feasibility check against its
        *new* arrival keeps the depth bound intact.
        """
        best_gates = self.best_gates
        required = [_INFINITY] * self.aig.num_nodes
        for node in self.and_po_drivers():
            required[node] = float(target_depth)
        for node in reversed(cover):
            leaf_required = required[node] - 1
            for leaf in best_gates[node]:
                if leaf_required < required[leaf]:
                    required[leaf] = leaf_required
        return required

    # -- pass 1: depth --------------------------------------------------

    def depth_pass(self) -> None:
        """Depth-optimal cut per node, ties broken by leaf count."""
        arrival = self.arrival
        arrival_of = arrival.__getitem__
        for index, (node, cuts, gates) in enumerate(zip(self.topo, self.candidates, self.candidate_gates)):
            self.poll_budget(index)
            best_key: tuple[int, int] | None = None
            for cut, gate_leaves in zip(cuts, gates):
                leaves = cut.leaves
                key = (1 + max(map(arrival_of, leaves), default=0), len(leaves))
                if best_key is None or key < best_key:
                    best_key, best_cut, best_gate_leaves = key, cut, gate_leaves
            assert best_key is not None
            self.best[node] = best_cut
            self.best_gates[node] = best_gate_leaves
            arrival[node] = best_key[0]

    # -- pass 2: area flow ----------------------------------------------

    def area_flow_pass(self, required: list[float]) -> None:
        """Re-select cuts by area flow under the required-time constraints.

        Area flow distributes the estimated cost of a node's cone over
        its estimated references, giving a global (if approximate) view
        of sharing: ``af(n) = (1 + sum af(leaf)) / est_refs(n)``.  The
        node's previous best cut is always feasible (its leaves' required
        times were derived from it), so every node keeps a selection.
        """
        arrival = self.arrival
        arrival_of = arrival.__getitem__
        flow = [0.0] * self.aig.num_nodes
        flow_of = flow.__getitem__
        for index, (node, cuts, gates) in enumerate(zip(self.topo, self.candidates, self.candidate_gates)):
            self.poll_budget(index)
            node_required = required[node]
            best_cost: tuple[float, int, int] | None = None
            for cut, gate_leaves in zip(cuts, gates):
                leaves = cut.leaves
                cut_arrival = 1 + max(map(arrival_of, leaves), default=0)
                if cut_arrival > node_required:
                    continue
                cost = (1.0 + sum(map(flow_of, leaves)), cut_arrival, len(leaves))
                if best_cost is None or cost < best_cost:
                    best_cost, best_cut, best_gate_leaves = cost, cut, gate_leaves
            if best_cost is None:  # pragma: no cover - previous best is always feasible
                best_cut, best_gate_leaves = self.best[node], self.best_gates[node]
                leaves = best_cut.leaves
                best_cost = (1.0 + sum(map(flow_of, leaves)), 1 + max(map(arrival_of, leaves), default=0), len(leaves))
            self.best[node] = best_cut
            self.best_gates[node] = best_gate_leaves
            arrival[node] = best_cost[1]
            flow[node] = best_cost[0] / self.est_refs[node]

    # -- pass 3: exact area ---------------------------------------------

    def exact_area_pass(self, required: list[float]) -> None:
        """Greedy exact-area recovery with reference counting.

        The mapping is reference-counted (``refs[n]`` = number of LUT
        fanins / POs consuming ``n``).  For each covered node the
        current cut is dereferenced -- conceptually deleting its cone --
        and every feasible candidate is probed for the exact number of
        LUTs its selection would (re)introduce; the cheapest wins.
        """
        arrival = self.arrival
        arrival_of = arrival.__getitem__
        best_gates = self.best_gates
        refs = [0] * self.aig.num_nodes

        # Worklist form rather than recursion: the ref/deref cascade can
        # be as deep as the mapped network (carry chains), which would
        # overflow the interpreter stack.
        def ref_cut(node: int) -> int:
            area = 0
            stack = [node]
            while stack:
                current = stack.pop()
                area += 1
                for leaf in best_gates[current]:
                    if refs[leaf] == 0:
                        stack.append(leaf)
                    refs[leaf] += 1
            return area

        def deref_cut(node: int) -> int:
            area = 0
            stack = [node]
            while stack:
                current = stack.pop()
                area += 1
                for leaf in best_gates[current]:
                    refs[leaf] -= 1
                    if refs[leaf] == 0:
                        stack.append(leaf)
            return area

        def probe(node: int, gate_leaves: tuple[int, ...]) -> int:
            """Exact area of selecting a cut with these gate leaves at ``node``, without commitment."""
            previous = best_gates[node]
            best_gates[node] = gate_leaves
            area = ref_cut(node)
            deref_cut(node)
            best_gates[node] = previous
            return area

        for node in self.and_po_drivers():
            if refs[node] == 0:
                ref_cut(node)
            refs[node] += 1

        for index, (node, cuts, gates) in enumerate(zip(self.topo, self.candidates, self.candidate_gates)):
            self.poll_budget(index)
            best_cut = self.best[node]
            leaves = best_cut.leaves
            if refs[node] == 0:
                # Not in the cover: nothing to re-select, but the node's
                # arrival must track its leaves' (legally) re-timed
                # arrivals -- a later parent may still pull it into the
                # cover, and a stale arrival would break the depth bound.
                arrival[node] = 1 + max(map(arrival_of, leaves), default=0)
                continue
            node_required = required[node]
            deref_cut(node)
            best_gate_leaves = best_gates[node]
            best_cost = (probe(node, best_gate_leaves), 1 + max(map(arrival_of, leaves), default=0), len(leaves))
            for cut, gate_leaves in zip(cuts, gates):
                if cut is best_cut:
                    continue
                leaves = cut.leaves
                cut_arrival = 1 + max(map(arrival_of, leaves), default=0)
                if cut_arrival > node_required:
                    continue
                cost = (probe(node, gate_leaves), cut_arrival, len(leaves))
                if cost < best_cost:
                    best_cost, best_cut, best_gate_leaves = cost, cut, gate_leaves
            self.best[node] = best_cut
            best_gates[node] = best_gate_leaves
            ref_cut(node)
            arrival[node] = best_cost[1]

    # -- network construction -------------------------------------------

    def build(self, selection: "_Selection") -> tuple[KLutNetwork, dict[int, int]]:
        """Materialise a selection into a k-LUT network and its node map."""
        aig = self.aig
        klut = KLutNetwork(name=f"{aig.name}_lut{self.k}")
        node_map: dict[int, int] = {0: klut.constant_false}
        for pi, name in zip(aig.pis, aig.pi_names):
            node_map[pi] = klut.add_pi(name)
        for node in selection.cover:
            cut = selection.best[node]
            function = cut.table
            if function is None:  # pragma: no cover - fused tables are always on
                function = aig_cone_table(aig, node, cut.leaves)
            fanins = [node_map[leaf] for leaf in cut.leaves]
            node_map[node] = klut.add_lut(fanins, function)
        for po, name in zip(aig.pos, aig.po_names):
            po_node = aig.node_of(po)
            klut.add_po(node_map[po_node], negated=aig.is_complemented(po), name=name)
        return klut, node_map


def _gate_leaves(leaves: tuple[int, ...], num_pis: int) -> tuple[int, ...]:
    """The leaves above the PIs' indices, as the same tuple when that is all of them."""
    if leaves and leaves[0] > num_pis:
        return leaves
    return tuple(leaf for leaf in leaves if leaf > num_pis)


@dataclass
class _Selection:
    """One complete cut selection: the best-snapshot unit of comparison.

    ``cover`` lists the AND nodes the selection maps, in topological
    order; it is walked once and serves the next pass's required times
    and :meth:`_Mapper.build`.
    """

    luts: int
    edges: int
    depth: int
    best: dict[int, Cut]
    cover: list[int]


def _map_passes(mapper: _Mapper, area_rounds: int, relax_depth: int | None = None) -> tuple[_Selection, list[int]]:
    """Run the pass sequence on one mapper; returns the best selection.

    Area recovery is monotone in practice, but a heuristic pass is never
    allowed to ship a worse selection than an earlier one: the best
    (LUTs, edges) snapshot wins.  The second element reports the LUT
    count after each executed pass (depth, area-flow, exact-area).

    ``relax_depth`` loosens the required times to that depth when the
    depth pass lands below it: the choice-aware run only has to stay
    within the *plain* run's depth, and a choice-rich network often
    reaches a lower depth whose tight required times would starve area
    recovery of slack.
    """

    def snapshot() -> _Selection:
        cover = mapper.cover()
        best = mapper.best
        edges = sum(len(best[node].leaves) for node in cover)
        return _Selection(len(cover), edges, mapper.mapping_depth(), dict(best), cover)

    mapper.depth_pass()
    target_depth = mapper.mapping_depth()
    if relax_depth is not None and relax_depth > target_depth:
        target_depth = relax_depth
    best = current = snapshot()
    pass_luts = [best.luts]

    if area_rounds >= 1:
        mapper.area_flow_pass(mapper.required_times(current.cover, target_depth))
        current = snapshot()
        pass_luts.append(current.luts)
        if (current.luts, current.edges) < (best.luts, best.edges):
            best = current
    if area_rounds >= 2:
        mapper.exact_area_pass(mapper.required_times(current.cover, target_depth))
        current = snapshot()
        pass_luts.append(current.luts)
        if (current.luts, current.edges) < (best.luts, best.edges):
            best = current
    return best, pass_luts


def technology_map(
    aig: Aig,
    k: int = 6,
    cut_limit: int = 8,
    area_rounds: int = 2,
    cache: CutFunctionCache | None = None,
    budget: "Budget | None" = None,
) -> MappingResult:
    """Map an AIG into a k-LUT network with the multi-pass mapper.

    ``area_rounds`` controls the recovery effort: 0 stops after the
    depth pass (the behaviour of the old single-pass mapper), 1 adds the
    area-flow pass, 2 (default) adds the exact-area pass.  Area recovery
    never increases the mapped depth: every pass constrains cut
    selection by required times derived from the depth-pass mapping.
    A shared :class:`~repro.cuts.cache.CutFunctionCache` can be passed
    to reuse fused cut functions across multiple mapping runs.
    ``cut_limit`` counts the trivial cut, so it must be at least 2:
    with one kept cut a node has no cut but itself.

    A network that records choice classes is mapped choice-aware: the
    run selects among all recorded implementations in all passes and is
    guarded by a plain fallback run, so its result never has more LUTs
    or a larger depth than plain mapping (the emitted k-LUT network is
    always choice-free).

    ``budget`` (:class:`repro.resilience.Budget`) makes the run
    deadline-aware: cut enumeration and every selection pass poll the
    deadline cooperatively (strided) and raise
    :class:`~repro.resilience.BudgetExceeded` on expiry.  The input
    network is never mutated, so an aborted map leaves no trace.
    """
    if k < 2:
        raise ValueError("LUT size k must be at least 2")
    if cut_limit < 2:
        raise ValueError("cut_limit must be at least 2: the trivial cut alone maps no node")
    if area_rounds < 0:
        raise ValueError("area_rounds must be non-negative")
    shared_cache = cache if cache is not None else CutFunctionCache()
    # Snapshot the (possibly shared) cache counters so the statistics
    # report this run's lookups, not the cache's lifetime totals.
    hits_before, misses_before = shared_cache.hits, shared_cache.misses

    stats = MappingStats(k=k, cut_limit=cut_limit)
    stats.passes.extend(["depth", "area-flow", "exact-area"][: area_rounds + 1])
    if not aig.has_choices:
        mapper = _Mapper(aig, k, cut_limit, shared_cache, use_choices=False, budget=budget)
        stats.cuts_enumerated = sum(len(cuts) for cuts in mapper.all_cuts.values())
        selection, pass_luts = _map_passes(mapper, area_rounds)
    else:
        stats.choice_classes = aig.num_choice_classes
        stats.choice_alternatives = aig.num_choice_alternatives
        stats.passes.insert(0, "choice")
        # The plain run first: its selection is both the never-worse
        # fallback and the depth budget of the choice-aware run (the
        # choice run's required times are relaxed to the plain depth --
        # a choice-rich depth pass often lands *below* it, and the
        # tighter required times would starve area recovery of slack).
        plain_mapper = _Mapper(aig, k, cut_limit, shared_cache, use_choices=False, budget=budget)
        plain_selection, plain_pass_luts = _map_passes(plain_mapper, area_rounds)
        mapper = _Mapper(aig, k, cut_limit, shared_cache, use_choices=True, budget=budget)
        stats.cuts_enumerated = sum(len(cuts) for cuts in mapper.all_cuts.values())
        selection, pass_luts = _map_passes(mapper, area_rounds, relax_depth=plain_selection.depth)
        # Ship the choice selection only when it regresses neither LUTs
        # nor depth; edge count breaks exact-LUT ties.
        improved = selection.luts < plain_selection.luts or (
            selection.luts == plain_selection.luts
            and (selection.depth, selection.edges) <= (plain_selection.depth, plain_selection.edges)
        )
        if selection.depth <= plain_selection.depth and selection.luts <= plain_selection.luts and improved:
            stats.used_choices = True
        else:
            mapper, selection, pass_luts = plain_mapper, plain_selection, plain_pass_luts
    stats.depth_pass_luts = pass_luts[0]
    if len(pass_luts) > 1:
        stats.area_flow_luts = pass_luts[1]
    if len(pass_luts) > 2:
        stats.exact_area_luts = pass_luts[2]

    network, node_map = mapper.build(selection)
    stats.num_luts = selection.luts
    stats.depth = network.depth()
    stats.num_edges = selection.edges
    stats.cache_hits = shared_cache.hits - hits_before
    stats.cache_misses = shared_cache.misses - misses_before
    lookups = stats.cache_hits + stats.cache_misses
    stats.cache_hit_rate = stats.cache_hits / lookups if lookups else 0.0
    return MappingResult(network, node_map, stats)


def map_aig_to_klut(aig: Aig, k: int = 6) -> tuple[KLutNetwork, dict[int, int]]:
    """Map an AIG into a k-LUT network (full multi-pass flow).

    Returns the LUT network together with a map from AIG node index to
    LUT node index for every node that received a LUT (plus PIs and the
    constant node).  Primary-output complementation is preserved through
    the k-LUT network's ``negated`` PO flag.  See :func:`technology_map`
    for the statistics-carrying entry point.
    """
    result = technology_map(aig, k=k)
    return result.network, result.node_map
