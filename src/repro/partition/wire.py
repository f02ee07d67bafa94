"""Compact binary wire format for region sub-networks.

The PR 9 data path serialized every region as AIGER *text* -- readable,
but a million-gate run pays a text render, a text parse, and a Python
string per region on both sides of the process boundary.  This module
replaces that with flat little-endian ``uint32`` arrays:

====================  =====================================================
header                ``magic "RPW1"``, ``num_pis``, ``num_ands``,
                      ``num_pos`` (4 x uint32)
gate section          ``num_ands`` fanin-literal pairs, in node order
PO section            ``num_pos`` output literals
====================  =====================================================

Literals use the sub-network's own numbering (node 0 = constant false,
nodes ``1..P`` = PIs, ``P+1..P+A`` = gates; literal = ``2*node +
complement``) -- exactly the layout :func:`~repro.partition.regions.
extract_region` produces, so the encode loop is a straight copy of the
fanin fields and the decode loop replays them through ``add_and``.
Because an extracted region is already strashed and topologically
ordered, the replay reproduces the *identical* node numbering: a
decode of an encode is structurally bit-for-bit the original, which the
wire fuzz suite asserts.

Each encoded region travels to its worker as its own job payload.
"""

from __future__ import annotations

import struct
import sys
from array import array

from ..networks.aig import Aig

__all__ = [
    "WIRE_MAGIC",
    "encode_region",
    "decode_region",
    "wire_counts",
]

#: First four bytes of every encoded region.
WIRE_MAGIC = b"RPW1"

_HEADER = struct.Struct("<4sIII")


def _to_le(values: array) -> bytes:
    """Little-endian bytes of a ``uint32`` array, regardless of host order."""
    if sys.byteorder == "big":  # pragma: no cover - no big-endian CI host
        values = array("I", values)
        values.byteswap()
    return values.tobytes()


def _from_le(data: bytes) -> array:
    """Inverse of :func:`_to_le`."""
    values = array("I")
    values.frombytes(data)
    if sys.byteorder == "big":  # pragma: no cover - no big-endian CI host
        values.byteswap()
    return values


def encode_region(sub: Aig) -> bytes:
    """Serialize one extracted region sub-network to wire bytes.

    The sub-network must be in construction form (gates numbered
    ``num_pis+1 ..`` in topological order), which both
    :func:`~repro.partition.regions.extract_region` and the worker's
    optimized results (rebuilt through ``add_and``) guarantee.
    """
    num_pis = sub.num_pis
    num_ands = sub.num_ands
    body = array("I")
    first_gate = num_pis + 1
    for node in range(first_gate, first_gate + num_ands):
        fanin0, fanin1 = sub.fanins(node)
        body.append(fanin0)
        body.append(fanin1)
    for literal in sub.pos:
        body.append(literal)
    header = _HEADER.pack(WIRE_MAGIC, num_pis, num_ands, sub.num_pos)
    return header + _to_le(body)


def wire_counts(data: bytes) -> tuple[int, int, int]:
    """``(num_pis, num_ands, num_pos)`` of an encoded region (header only)."""
    if len(data) < _HEADER.size:
        raise ValueError("wire payload shorter than its header")
    magic, num_pis, num_ands, num_pos = _HEADER.unpack_from(data)
    if magic != WIRE_MAGIC:
        raise ValueError(f"bad wire magic {magic!r} (expected {WIRE_MAGIC!r})")
    return num_pis, num_ands, num_pos


def decode_region(data: bytes, name: str = "region") -> Aig:
    """Rebuild a region sub-network from wire bytes (no text parse).

    Gates replay through the strashing ``add_and`` constructor; on a
    well-formed payload (unique, non-trivial gates in topological
    order -- what :func:`encode_region` emits) the replay reproduces the
    encoded node numbering exactly.  A corrupted payload that folds or
    simplifies gates raises ``ValueError`` instead of silently shifting
    literals.
    """
    num_pis, num_ands, num_pos = wire_counts(data)
    expected = _HEADER.size + 4 * (2 * num_ands + num_pos)
    if len(data) != expected:
        raise ValueError(
            f"wire payload is {len(data)} bytes, header promises {expected}"
        )
    words = _from_le(data[_HEADER.size :])
    sub = Aig(name)
    for index in range(num_pis):
        sub.add_pi(f"i{index}")
    limit = 2 * (1 + num_pis)
    for gate in range(num_ands):
        fanin0 = words[2 * gate]
        fanin1 = words[2 * gate + 1]
        if fanin0 >= limit or fanin1 >= limit:
            raise ValueError(
                f"gate {gate} references a literal beyond the nodes built so far"
            )
        literal = sub.add_and(fanin0, fanin1)
        if literal != limit:
            raise ValueError(
                f"gate {gate} did not replay to a fresh gate (corrupt wire payload)"
            )
        limit += 2
    base = 2 * num_ands
    for index in range(num_pos):
        literal = words[base + index]
        if literal >= limit:
            raise ValueError(f"PO {index} references literal {literal} beyond the network")
        sub.add_po(literal, f"o{index}")
    return sub
