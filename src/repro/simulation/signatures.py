"""Simulation signatures.

The *simulation signature* of a node is the ordered set of values it takes
under every pattern (Section II-A).  Signatures are packed integers (bit
``j`` = value under pattern ``j``), the same layout as
:class:`~repro.simulation.patterns.PatternSet` words, so bitwise equality
compares whole signatures at once.

:class:`SimulationResult` is the node-indexed word list a whole-network
simulator computes -- ``signatures[node]`` is the signature of ``node``
-- together with the pattern count, and offers the queries the sweeper
needs: per-node access, constant detection and polarity-canonical
signatures (equivalence up to complementation).  A simulator that
computes only some nodes (the STP simulator's mode ``s``) returns a plain
``dict[int, int]`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SimulationResult",
    "signature_to_bits",
    "signature_to_string",
    "canonical_signature",
]


def signature_to_bits(signature: int, num_patterns: int) -> list[int]:
    """Unpack a signature into a list of bits (pattern 0 first)."""
    return [(signature >> i) & 1 for i in range(num_patterns)]


def signature_to_string(signature: int, num_patterns: int) -> str:
    """Bit-string rendering, pattern 0 leftmost."""
    return "".join(str(b) for b in signature_to_bits(signature, num_patterns))


def canonical_signature(signature: int, num_patterns: int) -> tuple[int, bool]:
    """Polarity-canonical signature: complement so that bit 0 is zero.

    Returns ``(canonical, inverted)``; two nodes are equivalence-class
    candidates *up to complementation* exactly when their canonical
    signatures are equal.
    """
    mask = (1 << num_patterns) - 1
    if signature & 1:
        return (~signature) & mask, True
    return signature & mask, False


@dataclass
class SimulationResult:
    """Signatures of every node produced by one simulation run.

    Attributes
    ----------
    num_patterns:
        Number of patterns that were simulated.
    signatures:
        One packed signature per node, indexed by node number.
    """

    num_patterns: int
    signatures: list[int]

    @property
    def mask(self) -> int:
        """Bit mask covering all simulated patterns."""
        return (1 << self.num_patterns) - 1 if self.num_patterns else 0

    def signature(self, node: int) -> int:
        """Signature of one node."""
        return self.signatures[node]

    def value(self, node: int, pattern: int) -> bool:
        """Value of ``node`` under pattern ``pattern``."""
        return bool((self.signatures[node] >> pattern) & 1)

    def bits(self, node: int) -> list[int]:
        """Signature of ``node`` as a list of bits."""
        return signature_to_bits(self.signatures[node], self.num_patterns)

    def bit_string(self, node: int) -> str:
        """Signature of ``node`` as a bit string (pattern 0 leftmost)."""
        return signature_to_string(self.signatures[node], self.num_patterns)

    def is_constant(self, node: int) -> bool | None:
        """Constant value suggested by the signature, or ``None`` if mixed."""
        signature = self.signatures[node]
        if signature == 0:
            return False
        if signature == self.mask:
            return True
        return None

    def canonical(self, node: int) -> tuple[int, bool]:
        """Polarity-canonical signature of ``node``."""
        return canonical_signature(self.signatures[node], self.num_patterns)

    def __len__(self) -> int:
        return len(self.signatures)

    def __repr__(self) -> str:
        return f"SimulationResult(patterns={self.num_patterns}, nodes={len(self.signatures)})"
