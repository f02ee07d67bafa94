"""Incremental simulation.

Mockturtle-style simulators avoid recomputing whole signatures when new
patterns (typically SAT counter-examples) arrive: only the newly appended
block of values is computed, and only nodes whose support changed need a
visit.  The :class:`IncrementalAigSimulator` mirrors this behaviour for
AIGs and is the simulator of the sweepers' constant pass
(:func:`repro.sweeping.constant_prop.propagate_constant_candidates`),
which reads a signature after every counter-example it appends.

Incremental-engine design
-------------------------

Signatures live in a flat list indexed by node (no per-node dictionary
hashing), and appended patterns are *buffered*: :meth:`add_pattern`
records the pattern in O(num_pis) and the buffered block is flushed
word-parallel -- one bitwise network pass for the whole block -- only
when a signature is actually read.  The candidate loop keeps no
signatures at all: it refines its classes from one bit per literal of
each counter-example
(:func:`repro.sweeping.equivalence.refine_with_counterexample`).
"""

from __future__ import annotations

from typing import Sequence

from ..networks.aig import Aig
from .patterns import PatternSet
from .bitwise import simulate_aig_words

__all__ = ["IncrementalAigSimulator"]


class IncrementalAigSimulator:
    """Keeps AIG signatures up to date as patterns are appended.

    The full pattern set is simulated once up front; afterwards
    :meth:`add_pattern` appends a single pattern (e.g. a SAT
    counter-example) into a buffer, and the buffered block is simulated
    word-parallel on the first signature read.
    """

    def __init__(self, aig: Aig, patterns: PatternSet | None = None) -> None:
        self.aig = aig
        self.patterns = patterns.copy() if patterns is not None else PatternSet(aig.num_pis)
        if self.patterns.num_inputs != aig.num_pis:
            raise ValueError("pattern set input count does not match the AIG")
        self._words: list[int] = simulate_aig_words(aig, self.patterns)
        self._pending: list[tuple[int, ...]] = []

    @property
    def num_patterns(self) -> int:
        """Number of patterns simulated so far (buffered patterns included)."""
        return self.patterns.num_patterns + len(self._pending)

    def signature(self, node: int) -> int:
        """Current signature of ``node``."""
        self._flush()
        return self._words[node]

    def add_pattern(self, values: Sequence[int | bool]) -> None:
        """Append one pattern; simulation is deferred to the next read."""
        if len(values) != self.aig.num_pis:
            raise ValueError(f"expected {self.aig.num_pis} values, got {len(values)}")
        self._pending.append(tuple(int(bool(v)) for v in values))

    def _flush(self) -> None:
        """Simulate all buffered patterns with one word-parallel block pass."""
        if not self._pending:
            return
        block = PatternSet.from_patterns(self._pending)
        self._pending = []
        shift = self.patterns.num_patterns
        self.patterns.extend(block)
        block_words = simulate_aig_words(self.aig, block)
        words = self._words
        if len(block_words) > len(words):
            words.extend([0] * (len(block_words) - len(words)))
        for node, word in enumerate(block_words):
            if word:
                words[node] |= word << shift
