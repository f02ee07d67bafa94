"""DAG-aware cut rewriting (the ``rw`` pass).

The pass walks the network once in topological order.  For every AND
gate it asks the shared priority-cut engine (:mod:`repro.cuts`) for the
k-feasible cuts (k = 4) *with their functions fused in* -- tables are
built bottom-up from the fanin cut tables through the
structural-signature cache, never by walking cones.  Each cut function
is looked up in the precomputed NPN structure library and the candidate
replacement is priced *against the real network*: the gain is the size
of the root's MFFC (the gates a substitution frees) minus the number of
gates the structure would actually add given sharing with existing
logic (:meth:`~repro.networks.aig.Aig.find_and` dry-run, no mutation).
The best candidate with positive gain (non-negative with ``zero_gain``)
is instantiated through the strashing constructor and committed with
the incremental :meth:`~repro.networks.aig.Aig.substitute`.

All cut bookkeeping that used to live privately in this module -- the
incremental cut database, dead-cone tracking, revival of gates
resurrected by structural hashing, staleness handling -- is the
engine's: the pass attaches a :class:`~repro.cuts.engine.CutEngine` to
the working network, substitution events invalidate exactly the rewired
gates' cut sets, gates created by a rewrite register their cuts at
creation time, and freed cones are killed/revived through the engine.
Fused tables stay sound across mutations because every committed
substitution is function-preserving (see :mod:`repro.cuts.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cuts import CutEngine
from ..networks.aig import Aig
from ..networks.transforms import cleanup_dangling
from .library import AigStructure, RewriteLibrary, default_library
from .mffc import collect_mffc

__all__ = ["RewriteReport", "rewrite"]

#: Alternatives recorded per node in choice-recording mode: the best
#: library structures of that many distinct cuts.  One is the sweet
#: spot on the bundled suite -- more alternatives inflate the class
#: cut sets until downstream priority-cut truncation starts dropping
#: the *subject* cuts, which costs depth (and whole-network snapshot
#: appending was worse still).
_RECORD_PER_NODE = 1


@dataclass
class RewriteReport:
    """Counters collected by one rewrite pass."""

    gates_before: int = 0
    gates_after: int = 0
    nodes_visited: int = 0
    cuts_evaluated: int = 0
    rewrites_applied: int = 0
    zero_gain_applied: int = 0
    estimated_gain: int = 0
    dead_revived: int = 0
    choices_recorded: int = 0
    cut_cache_hit_rate: float = 0.0

    def as_details(self) -> dict[str, float]:
        """Flat numeric view for per-pass statistics."""
        return {
            "nodes_visited": float(self.nodes_visited),
            "cuts_evaluated": float(self.cuts_evaluated),
            "rewrites_applied": float(self.rewrites_applied),
            "zero_gain_applied": float(self.zero_gain_applied),
            "estimated_gain": float(self.estimated_gain),
            "dead_revived": float(self.dead_revived),
            "choices_recorded": float(self.choices_recorded),
            "cut_cache_hit_rate": self.cut_cache_hit_rate,
        }


def _dry_run(
    aig: Aig,
    structure: AigStructure,
    leaf_literals: list[int],
    root: int,
    treat_as_new: set[int],
    engine: CutEngine,
) -> tuple[int, bool]:
    """Gates the structure would add, without mutating the network.

    Existing gates found by the strash lookup are free, *except* those in
    ``treat_as_new`` (the root's MFFC) or marked dead by the engine:
    reusing one keeps it alive, which costs exactly the gate the
    MFFC/dead accounting assumed freed, so it is priced as a new gate.
    Returns ``(count, valid)``; ``valid`` is False when the replacement
    cone would contain the root itself (substituting would create a
    cycle).
    """
    created = 0
    literals: list[tuple[int, int] | None] = [(0, 0)] + [
        (literal >> 1, literal & 1) for literal in leaf_literals
    ]
    for fanin0, fanin1 in structure.gates:
        entry0 = literals[fanin0 >> 1]
        entry1 = literals[fanin1 >> 1]
        if entry0 is None or entry1 is None:
            created += 1
            literals.append(None)
            continue
        literal0 = 2 * entry0[0] + (entry0[1] ^ (fanin0 & 1))
        literal1 = 2 * entry1[0] + (entry1[1] ^ (fanin1 & 1))
        found = aig.find_and(literal0, literal1)
        if found is None:
            created += 1
            literals.append(None)
            continue
        node = found >> 1
        if node == root:
            return created, False
        if aig.is_and(node) and (node in treat_as_new or engine.is_dead(node)):
            created += 1
        literals.append((node, found & 1))
    output = literals[structure.output >> 1]
    if output is not None and output[0] == root:
        return created, False
    return created, True


def _instantiate(
    aig: Aig,
    structure: AigStructure,
    leaf_literals: list[int],
    engine: CutEngine | None,
) -> int:
    """Materialise the structure; register cut sets for created gates.

    ``engine = None`` skips the cut bookkeeping (the refactoring pass
    does not track cuts).
    """
    literals = [0] + list(leaf_literals)
    for fanin0, fanin1 in structure.gates:
        literal0 = literals[fanin0 >> 1] ^ (fanin0 & 1)
        literal1 = literals[fanin1 >> 1] ^ (fanin1 & 1)
        literal = aig.add_and(literal0, literal1)
        if engine is not None:
            engine.note_created(literal >> 1)
        literals.append(literal)
    return literals[structure.output >> 1] ^ (structure.output & 1)


def rewrite(
    aig: Aig,
    cut_size: int = 4,
    zero_gain: bool = False,
    library: RewriteLibrary | None = None,
    record_choices: bool = False,
) -> tuple[Aig, RewriteReport]:
    """One DAG-aware rewriting pass over a copy of the network.

    Returns the rewritten (and dangling-cleaned) network plus a report.
    The result is functionally equivalent to the input by construction:
    every substitution replaces a node by a structure whose function over
    the cut leaves was computed exactly.

    With ``record_choices`` the pass is *additive*: instead of
    substituting, the winning library structure is instantiated next to
    the subject logic and recorded as a structural choice of the visited
    node (:meth:`~repro.networks.aig.Aig.substitute` never runs, so the
    base network is untouched).  Candidates are recorded when their gain
    is non-negative -- an equal-size alternative with a different shape
    is exactly what gives the choice-aware mapper freedom.  No cleanup
    runs in this mode (it would renumber the subject graph); structures
    whose link was refused stay dangling and unlinked until the next
    cleanup-carrying pass prunes them.
    """
    if cut_size < 2:
        raise ValueError("cut size must be at least 2")
    lib = library if library is not None else default_library()
    if cut_size > lib.num_vars:
        raise ValueError(f"cut size {cut_size} exceeds the library arity {lib.num_vars}")
    work = aig.clone()
    report = RewriteReport(gates_before=work.num_ands)
    engine = CutEngine(work, k=cut_size, attach=True)

    try:
        for node in work.topological_order():
            if engine.is_dead(node):
                continue
            report.nodes_visited += 1
            cuts = engine.compute(node)

            best_gain: int | None = None
            best: tuple[AigStructure, list[int], set[int]] | None = None
            candidates: list[tuple[int, AigStructure, list[int]]] = []
            for cut in cuts:
                if cut.leaves == (node,) or cut.table is None:
                    continue
                report.cuts_evaluated += 1
                mffc = collect_mffc(work, node, cut.leaves)
                assert mffc is not None
                structure = lib.structure(cut.table)
                leaf_literals = [Aig.literal(leaf) for leaf in cut.leaves]
                created, valid = _dry_run(work, structure, leaf_literals, node, mffc, engine)
                if not valid:
                    continue
                gain = len(mffc) - created
                if record_choices and gain >= 0:
                    candidates.append((gain, structure, leaf_literals))
                if best_gain is None or gain > best_gain:
                    best_gain = gain
                    best = (structure, leaf_literals, mffc)

            if record_choices:
                # Additive mode: keep the subject logic and record the
                # best library structures (one per cut, highest gain
                # first) as choices of the visited node.  Links breaking
                # the collapsed-acyclicity invariant are dropped; their
                # gates stay dangling and unlinked (the mapper ignores
                # them, the next cleanup-carrying pass prunes them).
                candidates.sort(key=lambda entry: -entry[0])
                for _gain, structure, leaf_literals in candidates[:_RECORD_PER_NODE]:
                    new_literal = _instantiate(work, structure, leaf_literals, engine)
                    if new_literal >> 1 == node:
                        continue  # the structure strashed back onto the node
                    if work.add_choice(node, new_literal):
                        report.choices_recorded += 1
                continue

            threshold = 0 if zero_gain else 1
            if best is None or best_gain is None or best_gain < threshold:
                continue
            structure, leaf_literals, mffc = best
            new_literal = _instantiate(work, structure, leaf_literals, engine)
            new_node = new_literal >> 1
            if new_node == node:
                continue  # the structure strashed back onto the node itself
            work.substitute(node, new_literal)
            engine.kill(mffc)
            report.dead_revived += engine.revive_from(new_node)
            report.rewrites_applied += 1
            report.estimated_gain += best_gain
            if best_gain == 0:
                report.zero_gain_applied += 1
    finally:
        engine.detach()

    report.cut_cache_hit_rate = engine.cache.hit_rate
    if record_choices:
        # Additive mode never mutates the subject logic, and a cleanup
        # would rebuild (and renumber) the network -- the choice-aware
        # mapper's plain fallback relies on the subject graph staying
        # bit-identical to the input's.
        report.gates_after = work.num_ands
        return work, report
    cleaned, _literal_map = cleanup_dangling(work)
    report.gates_after = cleaned.num_ands
    return cleaned, report
