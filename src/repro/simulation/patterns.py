"""Simulation patterns.

A *simulation pattern* assigns one Boolean value to every primary input of
a network (Section II-A of the paper).  A :class:`PatternSet` stores many
patterns bit-packed: one arbitrary-precision integer per input, bit ``j``
being the input's value under pattern ``j``.  This is the word-parallel
layout used by bitwise simulators; the STP simulator consumes the same
object and converts columns to logic vectors on the fly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["PatternSet"]


@dataclass
class PatternSet:
    """A set of simulation patterns over ``num_inputs`` primary inputs.

    Attributes
    ----------
    num_inputs:
        Number of primary inputs.
    num_patterns:
        Number of patterns currently stored.
    words:
        One integer per input; bit ``j`` of ``words[i]`` is the value of
        input ``i`` in pattern ``j``.
    """

    num_inputs: int
    num_patterns: int = 0
    words: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_inputs < 0:
            raise ValueError("num_inputs must be non-negative")
        if not self.words:
            self.words = [0] * self.num_inputs
        if len(self.words) != self.num_inputs:
            raise ValueError(f"expected {self.num_inputs} words, got {len(self.words)}")
        mask = self.mask
        self.words = [w & mask for w in self.words]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def random(cls, num_inputs: int, num_patterns: int, seed: int = 1) -> "PatternSet":
        """Uniformly random patterns from a seeded generator (reproducible)."""
        rng = random.Random(seed)
        words = [rng.getrandbits(num_patterns) if num_patterns else 0 for _ in range(num_inputs)]
        return cls(num_inputs, num_patterns, words)

    @classmethod
    def exhaustive(cls, num_inputs: int) -> "PatternSet":
        """All ``2**num_inputs`` assignments (the exhaustive pattern set).

        Pattern ``j`` assigns input ``i`` the ``i``-th bit of ``j``, so the
        resulting signatures are truth tables in the standard convention.
        """
        if num_inputs > 20:
            raise ValueError(f"exhaustive simulation of {num_inputs} inputs is impractical (> 2^20 patterns)")
        num_patterns = 1 << num_inputs
        words = []
        for index in range(num_inputs):
            word = 0
            for pattern in range(num_patterns):
                if (pattern >> index) & 1:
                    word |= 1 << pattern
            words.append(word)
        return cls(num_inputs, num_patterns, words)

    @classmethod
    def from_patterns(cls, patterns: Sequence[Sequence[int | bool]]) -> "PatternSet":
        """Build from an explicit list of patterns (each a list of input values)."""
        if not patterns:
            raise ValueError("at least one pattern is required")
        num_inputs = len(patterns[0])
        result = cls(num_inputs)
        for pattern in patterns:
            result.add_pattern(pattern)
        return result

    @classmethod
    def from_input_strings(cls, strings: Sequence[str]) -> "PatternSet":
        """Build from one bit-string per input, as printed in the paper's example.

        ``strings[i][j]`` is the value of input ``i`` under pattern ``j``;
        the Fig. 1 pattern block is five 10-character strings.
        """
        if not strings:
            raise ValueError("at least one input string is required")
        lengths = {len(s) for s in strings}
        if len(lengths) != 1:
            raise ValueError(f"all input strings must have equal length, got lengths {sorted(lengths)}")
        num_patterns = lengths.pop()
        words = []
        for text in strings:
            if any(c not in "01" for c in text):
                raise ValueError(f"invalid pattern string {text!r}")
            word = 0
            for position, char in enumerate(text):
                if char == "1":
                    word |= 1 << position
            words.append(word)
        return cls(len(strings), num_patterns, words)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def mask(self) -> int:
        """Bit mask covering all stored patterns."""
        return (1 << self.num_patterns) - 1 if self.num_patterns else 0

    def input_word(self, index: int) -> int:
        """Packed values of input ``index`` across all patterns."""
        return self.words[index]

    def pattern(self, index: int) -> tuple[int, ...]:
        """The ``index``-th pattern as a tuple of bits (input 0 first)."""
        if not 0 <= index < self.num_patterns:
            raise IndexError(f"pattern index {index} out of range")
        return tuple((self.words[i] >> index) & 1 for i in range(self.num_inputs))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_pattern(self, values: Sequence[int | bool]) -> None:
        """Append one pattern (a value per input)."""
        if len(values) != self.num_inputs:
            raise ValueError(f"expected {self.num_inputs} values, got {len(values)}")
        position = self.num_patterns
        for index, value in enumerate(values):
            if value:
                self.words[index] |= 1 << position
        self.num_patterns += 1

    def extend(self, other: "PatternSet") -> None:
        """Append every pattern of another set over the same inputs."""
        if other.num_inputs != self.num_inputs:
            raise ValueError("cannot extend with a pattern set over a different input count")
        shift = self.num_patterns
        for index in range(self.num_inputs):
            self.words[index] |= other.words[index] << shift
        self.num_patterns += other.num_patterns

    def copy(self) -> "PatternSet":
        """Independent copy of this pattern set."""
        return PatternSet(self.num_inputs, self.num_patterns, list(self.words))

    def __len__(self) -> int:
        return self.num_patterns

    def __repr__(self) -> str:
        return f"PatternSet(inputs={self.num_inputs}, patterns={self.num_patterns})"
