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
    """One mapping run: cut selection state shared by the passes."""

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
        self.best: dict[int, Cut] = {}
        self.arrival: dict[int, int] = {0: 0}
        for pi in aig.pis:
            self.arrival[pi] = 0
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

    def _reachable_refs(self, reachable: set[int] | None = None) -> dict[int, int]:
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
        for po in aig.pos:
            driver = aig.node_of(po)
            if driver in counts:
                counts[driver] += 1
        return {node: max(1, count) for node, count in counts.items()}

    # -- shared helpers -------------------------------------------------

    def poll_budget(self, counter: int) -> None:
        """Strided cooperative deadline poll for the selection loops."""
        if self.budget is not None and counter % 256 == 0:
            self.budget.checkpoint("map")

    def candidates(self, node: int) -> list[Cut]:
        """Non-trivial cuts of ``node`` (the trivial cut maps a node onto itself)."""
        cuts = [cut for cut in self.all_cuts[node] if cut.leaves != (node,)]
        return cuts if cuts else list(self.all_cuts[node])

    def cut_arrival(self, cut: Cut) -> int:
        """Arrival time of a cut: one level above its slowest leaf."""
        return 1 + max((self.arrival.get(leaf, 0) for leaf in cut.leaves), default=0)

    def cover(self) -> list[int]:
        """AND nodes used by the current selection, in topological order."""
        required: set[int] = set()
        frontier = [self.aig.node_of(po) for po in self.aig.pos if self.aig.is_and(self.aig.node_of(po))]
        while frontier:
            node = frontier.pop()
            if node in required:
                continue
            required.add(node)
            for leaf in self.best[node].leaves:
                if self.aig.is_and(leaf) and leaf not in required:
                    frontier.append(leaf)
        return [node for node in self.topo if node in required]

    def mapping_depth(self) -> int:
        """Largest PO arrival under the current selection."""
        depth = 0
        for po in self.aig.pos:
            node = self.aig.node_of(po)
            if self.aig.is_and(node):
                depth = max(depth, self.arrival[node])
        return depth

    def required_times(self, cover: list[int], target_depth: int) -> dict[int, float]:
        """Per-node required times over the current cover.

        PO drivers are required at ``target_depth``; a covered node
        pushes ``required - 1`` onto its cut leaves.  Nodes outside the
        cover are unconstrained (infinity) -- if a later pass pulls one
        into the cover as a leaf, the leaf-feasibility check against its
        *new* arrival keeps the depth bound intact.
        """
        required: dict[int, float] = {}
        for po in self.aig.pos:
            node = self.aig.node_of(po)
            if self.aig.is_and(node):
                required[node] = min(required.get(node, _INFINITY), float(target_depth))
        for node in reversed(cover):
            node_required = required.get(node, _INFINITY)
            for leaf in self.best[node].leaves:
                if not self.aig.is_and(leaf):
                    continue
                leaf_required = node_required - 1
                if leaf_required < required.get(leaf, _INFINITY):
                    required[leaf] = leaf_required
        return required

    # -- pass 1: depth --------------------------------------------------

    def depth_pass(self) -> None:
        """Depth-optimal cut per node, ties broken by leaf count."""
        for index, node in enumerate(self.topo):
            self.poll_budget(index)
            best = min(self.candidates(node), key=lambda cut: (self.cut_arrival(cut), cut.size))
            self.best[node] = best
            self.arrival[node] = self.cut_arrival(best)

    # -- pass 2: area flow ----------------------------------------------

    def area_flow_pass(self, required: dict[int, float]) -> None:
        """Re-select cuts by area flow under the required-time constraints.

        Area flow distributes the estimated cost of a node's cone over
        its estimated references, giving a global (if approximate) view
        of sharing: ``af(n) = (1 + sum af(leaf)) / est_refs(n)``.  The
        node's previous best cut is always feasible (its leaves' required
        times were derived from it), so every node keeps a selection.
        """
        flow: dict[int, float] = {0: 0.0}
        for pi in self.aig.pis:
            flow[pi] = 0.0
        for index, node in enumerate(self.topo):
            self.poll_budget(index)
            node_required = required.get(node, _INFINITY)
            best_cut: Cut | None = None
            best_cost: tuple[float, int, int] | None = None
            for cut in self.candidates(node):
                arrival = self.cut_arrival(cut)
                if arrival > node_required:
                    continue
                cut_flow = 1.0 + sum(flow.get(leaf, 0.0) for leaf in cut.leaves)
                cost = (cut_flow, arrival, cut.size)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_cut = cut
            if best_cut is None:  # pragma: no cover - previous best is always feasible
                best_cut = self.best[node]
            self.best[node] = best_cut
            self.arrival[node] = self.cut_arrival(best_cut)
            flow[node] = (1.0 + sum(flow.get(leaf, 0.0) for leaf in best_cut.leaves)) / self.est_refs[node]

    # -- pass 3: exact area ---------------------------------------------

    def exact_area_pass(self, required: dict[int, float]) -> None:
        """Greedy exact-area recovery with reference counting.

        The mapping is reference-counted (``refs[n]`` = number of LUT
        fanins / POs consuming ``n``).  For each covered node the
        current cut is dereferenced -- conceptually deleting its cone --
        and every feasible candidate is probed for the exact number of
        LUTs its selection would (re)introduce; the cheapest wins.
        """
        refs: dict[int, int] = {}

        # Worklist form rather than recursion: the ref/deref cascade can
        # be as deep as the mapped network (carry chains), which would
        # overflow the interpreter stack.
        def ref_cut(node: int) -> int:
            area = 0
            stack = [node]
            while stack:
                current = stack.pop()
                area += 1
                for leaf in self.best[current].leaves:
                    if not self.aig.is_and(leaf):
                        continue
                    if refs.get(leaf, 0) == 0:
                        stack.append(leaf)
                    refs[leaf] = refs.get(leaf, 0) + 1
            return area

        def deref_cut(node: int) -> int:
            area = 0
            stack = [node]
            while stack:
                current = stack.pop()
                area += 1
                for leaf in self.best[current].leaves:
                    if not self.aig.is_and(leaf):
                        continue
                    refs[leaf] -= 1
                    if refs[leaf] == 0:
                        stack.append(leaf)
            return area

        def probe(node: int, cut: Cut) -> int:
            """Exact area of selecting ``cut`` at ``node``, without commitment."""
            previous = self.best[node]
            self.best[node] = cut
            area = ref_cut(node)
            deref_cut(node)
            self.best[node] = previous
            return area

        for po in self.aig.pos:
            node = self.aig.node_of(po)
            if not self.aig.is_and(node):
                continue
            if refs.get(node, 0) == 0:
                ref_cut(node)
            refs[node] = refs.get(node, 0) + 1

        for index, node in enumerate(self.topo):
            self.poll_budget(index)
            if refs.get(node, 0) == 0:
                # Not in the cover: nothing to re-select, but the node's
                # arrival must track its leaves' (legally) re-timed
                # arrivals -- a later parent may still pull it into the
                # cover, and a stale arrival would break the depth bound.
                self.arrival[node] = self.cut_arrival(self.best[node])
                continue
            node_required = required.get(node, _INFINITY)
            deref_cut(node)
            best_cut = self.best[node]
            best_cost = (probe(node, best_cut), self.cut_arrival(best_cut), best_cut.size)
            for cut in self.candidates(node):
                if cut is best_cut:
                    continue
                arrival = self.cut_arrival(cut)
                if arrival > node_required:
                    continue
                cost = (probe(node, cut), arrival, cut.size)
                if cost < best_cost:
                    best_cost = cost
                    best_cut = cut
            self.best[node] = best_cut
            ref_cut(node)
            self.arrival[node] = self.cut_arrival(best_cut)

    # -- network construction -------------------------------------------

    def build(self) -> tuple[KLutNetwork, dict[int, int], list[int]]:
        """Materialise the selection into a k-LUT network."""
        aig = self.aig
        cover = self.cover()
        klut = KLutNetwork(name=f"{aig.name}_lut{self.k}")
        node_map: dict[int, int] = {0: klut.constant_false}
        for pi, name in zip(aig.pis, aig.pi_names):
            node_map[pi] = klut.add_pi(name)
        for node in cover:
            cut = self.best[node]
            function = cut.table
            if function is None:  # pragma: no cover - fused tables are always on
                function = aig_cone_table(aig, node, cut.leaves)
            fanins = [node_map[leaf] for leaf in cut.leaves]
            node_map[node] = klut.add_lut(fanins, function)
        for po, name in zip(aig.pos, aig.po_names):
            po_node = aig.node_of(po)
            klut.add_po(node_map[po_node], negated=aig.is_complemented(po), name=name)
        return klut, node_map, cover


@dataclass
class _Selection:
    """One complete cut selection: the best-snapshot unit of comparison."""

    luts: int
    edges: int
    depth: int
    best: dict[int, Cut]
    arrival: dict[int, int]


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
        edges = sum(mapper.best[node].size for node in cover)
        return _Selection(len(cover), edges, mapper.mapping_depth(), dict(mapper.best), dict(mapper.arrival))

    mapper.depth_pass()
    target_depth = mapper.mapping_depth()
    if relax_depth is not None and relax_depth > target_depth:
        target_depth = relax_depth
    best = snapshot()
    pass_luts = [best.luts]

    if area_rounds >= 1:
        required = mapper.required_times(mapper.cover(), target_depth)
        mapper.area_flow_pass(required)
        candidate = snapshot()
        pass_luts.append(candidate.luts)
        if (candidate.luts, candidate.edges) < (best.luts, best.edges):
            best = candidate
    if area_rounds >= 2:
        required = mapper.required_times(mapper.cover(), target_depth)
        mapper.exact_area_pass(required)
        candidate = snapshot()
        pass_luts.append(candidate.luts)
        if (candidate.luts, candidate.edges) < (best.luts, best.edges):
            best = candidate
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

    mapper.best, mapper.arrival = selection.best, selection.arrival
    network, node_map, cover = mapper.build()
    stats.num_luts = len(cover)
    stats.depth = network.depth()
    stats.num_edges = sum(mapper.best[node].size for node in cover)
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
