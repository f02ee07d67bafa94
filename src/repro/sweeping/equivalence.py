"""Candidate equivalence classes (the "equivalence class manager" of Fig. 2).

Nodes whose simulation signatures coincide *up to complementation* are
candidate-equivalent; the manager groups them, tracks each node's polarity
relative to the class representative, and refines the grouping whenever
new simulation information (counter-example patterns or exhaustive window
truth tables) arrives.  Nodes whose signature is constant join the special
constant class whose representative is the constant node 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..networks.aig import Aig
from ..simulation.bitwise import simulate_aig_nodes
from ..simulation.incremental import IncrementalAigSimulator
from ..simulation.patterns import PatternSet
from ..simulation.signatures import SimulationResult
from ..truthtable import TruthTable

__all__ = ["EquivalenceClasses", "EquivalenceClass", "refine_with_counterexample"]


def refine_with_counterexample(
    aig: Aig,
    classes: "EquivalenceClasses",
    simulator: IncrementalAigSimulator,
    pattern: tuple[int, ...],
) -> None:
    """Refine the candidate classes with one SAT counter-example.

    The pattern is simulated cone-locally over the nodes still sitting in
    equivalence classes (O(cone), see
    :func:`repro.simulation.bitwise.simulate_aig_nodes`) and the classes
    are split on the new bit; the full-network signature update is merely
    buffered in ``simulator`` and flushed word-parallel in blocks.  Shared
    by both sweeping engines.
    """
    ce_patterns = PatternSet.from_patterns([pattern])
    ce_signatures = simulate_aig_nodes(aig, ce_patterns, classes.class_nodes())
    classes.refine_with_signatures(ce_signatures, 1)
    simulator.add_pattern(pattern)


@dataclass
class EquivalenceClass:
    """One candidate class: a representative and members with polarities.

    ``polarity[node]`` is ``True`` when the node is candidate-equivalent to
    the *complement* of the representative.
    """

    representative: int
    members: list[int] = field(default_factory=list)
    polarity: dict[int, bool] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of members (including the representative)."""
        return len(self.members)

    def is_singleton(self) -> bool:
        """True when no merge candidate remains in this class."""
        return len(self.members) <= 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)


class EquivalenceClasses:
    """Manager of all candidate equivalence classes of one AIG."""

    #: Class identifier reserved for the constant class.
    CONSTANT_CLASS = 0

    def __init__(self, aig: Aig) -> None:
        self.aig = aig
        self._classes: dict[int, EquivalenceClass] = {}
        self._class_of: dict[int, int] = {}
        self._next_class_id = 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_simulation(
        cls,
        aig: Aig,
        result: SimulationResult,
        include_constant_class: bool = True,
        nodes: Iterable[int] | None = None,
    ) -> "EquivalenceClasses":
        """Group AND nodes by canonical (polarity-free) signature.

        The constant class collects nodes whose signature is all-zero or
        all-one; it is keyed to the constant node 0 so that a proven member
        is substituted by a constant literal.
        """
        manager = cls(aig)
        candidates = list(nodes) if nodes is not None else list(aig.gates())
        groups: dict[int, list[int]] = {}
        constant_members: list[tuple[int, bool]] = []
        for node in candidates:
            if not result.has_node(node):
                continue
            constant = result.is_constant(node)
            if include_constant_class and constant is not None:
                constant_members.append((node, constant))
                continue
            key, _inverted = result.canonical(node)
            groups.setdefault(key, []).append(node)

        if include_constant_class and constant_members:
            constant_class = EquivalenceClass(representative=0, members=[0], polarity={0: False})
            for node, value in constant_members:
                constant_class.members.append(node)
                # Polarity is relative to constant *false* (node 0).
                constant_class.polarity[node] = bool(value)
                manager._class_of[node] = cls.CONSTANT_CLASS
            manager._classes[cls.CONSTANT_CLASS] = constant_class
            manager._class_of[0] = cls.CONSTANT_CLASS

        for key, members in groups.items():
            if len(members) < 2:
                continue
            members_sorted = sorted(members)
            representative = members_sorted[0]
            repr_signature = result.signature(representative)
            polarity = {}
            for node in members_sorted:
                polarity[node] = result.signature(node) != repr_signature
            manager._add_class(representative, members_sorted, polarity)
        return manager

    def _add_class(self, representative: int, members: list[int], polarity: dict[int, bool]) -> int:
        class_id = self._next_class_id
        self._next_class_id += 1
        self._classes[class_id] = EquivalenceClass(representative, list(members), dict(polarity))
        for node in members:
            self._class_of[node] = class_id
        return class_id

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_classes(self) -> int:
        """Number of non-singleton classes."""
        return sum(1 for c in self._classes.values() if not c.is_singleton())

    def classes(self) -> list[EquivalenceClass]:
        """All non-singleton classes."""
        return [c for c in self._classes.values() if not c.is_singleton()]

    def constant_class(self) -> EquivalenceClass | None:
        """The constant class, if any node is a constant candidate."""
        cls_ = self._classes.get(self.CONSTANT_CLASS)
        return cls_ if cls_ is not None and not cls_.is_singleton() else None

    def class_id_of(self, node: int) -> int | None:
        """Identifier of the class containing ``node`` (``None`` if singleton)."""
        return self._class_of.get(node)

    def class_of(self, node: int) -> EquivalenceClass | None:
        """The class containing ``node``, or ``None``."""
        class_id = self._class_of.get(node)
        return self._classes.get(class_id) if class_id is not None else None

    def members_of(self, node: int) -> list[int]:
        """Members of the class of ``node`` (empty when the node is unclassified)."""
        cls_ = self.class_of(node)
        return list(cls_.members) if cls_ is not None else []

    def same_class(self, a: int, b: int) -> bool:
        """True when two nodes are currently candidate-equivalent."""
        class_a = self._class_of.get(a)
        return class_a is not None and class_a == self._class_of.get(b)

    def relative_polarity(self, a: int, b: int) -> bool:
        """True if ``a`` is candidate-equivalent to the *complement* of ``b``."""
        cls_ = self.class_of(a)
        if cls_ is None or not self.same_class(a, b):
            raise ValueError(f"nodes {a} and {b} are not in the same class")
        return cls_.polarity[a] != cls_.polarity[b]

    def candidate_pairs(self) -> int:
        """Total number of candidate pairs across all classes."""
        return sum(c.size * (c.size - 1) // 2 for c in self.classes())

    def class_nodes(self) -> list[int]:
        """All nodes currently in a non-singleton class (excluding the constant node)."""
        nodes = []
        for cls_ in self.classes():
            nodes.extend(node for node in cls_.members if node != 0)
        return nodes

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def remove(self, node: int) -> None:
        """Remove a node from its class (after a merge or a disproof)."""
        class_id = self._class_of.pop(node, None)
        if class_id is None:
            return
        cls_ = self._classes[class_id]
        if node in cls_.members:
            cls_.members.remove(node)
        cls_.polarity.pop(node, None)
        if node == cls_.representative and cls_.members:
            cls_.representative = cls_.members[0]

    def refine_with_signatures(self, signatures: Mapping[int, int], num_patterns: int) -> int:
        """Split classes according to new signatures; returns the number of splits.

        Only nodes present in ``signatures`` are re-examined (the paper's CE
        simulation restricted to equivalence-class nodes); class members
        without a new signature keep their current grouping.
        """
        mask = (1 << num_patterns) - 1 if num_patterns else 0
        splits = 0
        for class_id in list(self._classes):
            cls_ = self._classes[class_id]
            if cls_.is_singleton():
                continue
            buckets: dict[tuple[int, ...], list[int]] = {}
            for node in cls_.members:
                if node == 0:
                    key = (0,)
                elif node in signatures:
                    signature = signatures[node] & mask
                    if cls_.polarity.get(node, False):
                        signature ^= mask
                    key = (signature,)
                else:
                    key = ("keep",)  # type: ignore[assignment]
                buckets.setdefault(key, []).append(node)
            if len(buckets) <= 1:
                continue
            splits += len(buckets) - 1
            self._split_class(class_id, list(buckets.values()))
        return splits

    def refine_with_truth_tables(self, tables: Mapping[int, TruthTable]) -> int:
        """Split classes using exhaustive window truth tables (Section IV-A).

        ``tables`` gives, for some class members, their function over a
        common window; members whose (polarity-adjusted) tables differ
        cannot be equivalent and are separated without any SAT call.
        Classes with no member in ``tables`` are left untouched.
        """
        touched = {self._class_of.get(node) for node in tables}
        splits = 0
        for class_id in [class_id for class_id in self._classes if class_id in touched]:
            cls_ = self._classes[class_id]
            if cls_.is_singleton():
                continue
            buckets: dict[object, list[int]] = {}
            for node in cls_.members:
                if node in tables:
                    table = tables[node]
                    if cls_.polarity.get(node, False):
                        table = ~table
                    key: object = (table.num_vars, table.bits)
                else:
                    key = ("keep", node == 0)
                buckets.setdefault(key, []).append(node)
            if len(buckets) <= 1:
                continue
            splits += len(buckets) - 1
            self._split_class(class_id, list(buckets.values()))
        return splits

    def _split_class(self, class_id: int, groups: list[list[int]]) -> None:
        """Replace one class by several, keeping polarities consistent."""
        original = self._classes.pop(class_id)
        for node in original.members:
            self._class_of.pop(node, None)
        for group in groups:
            if class_id == self.CONSTANT_CLASS and 0 in group:
                constant_class = EquivalenceClass(0, list(group), {n: original.polarity.get(n, False) for n in group})
                self._classes[self.CONSTANT_CLASS] = constant_class
                for node in group:
                    self._class_of[node] = self.CONSTANT_CLASS
                continue
            members = [n for n in group if n != 0]
            if len(members) < 2:
                continue
            members_sorted = sorted(members)
            representative = members_sorted[0]
            base = original.polarity.get(representative, False)
            polarity = {n: original.polarity.get(n, False) != base for n in members_sorted}
            self._add_class(representative, members_sorted, polarity)

    def __repr__(self) -> str:
        return (
            f"EquivalenceClasses(classes={self.num_classes}, "
            f"candidates={len(self.class_nodes())}, pairs={self.candidate_pairs()})"
        )
