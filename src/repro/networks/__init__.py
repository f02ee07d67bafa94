"""Logic-network data structures: AIGs, k-LUT networks, cuts and mappings.

The package provides the two network representations the paper operates on:

* :class:`~repro.networks.aig.Aig` -- And-Inverter Graphs with structural
  hashing and complemented edges, the representation SAT-sweeping runs on;
* :class:`~repro.networks.klut.KLutNetwork` -- k-input LUT networks, the
  representation the STP simulator targets;

both implementing the :class:`~repro.networks.protocol.LogicNetwork` /
:class:`~repro.networks.protocol.MutableNetwork` protocols
(``networks/protocol.py``): one explicit read surface (fanins, fanouts,
topological order, levels) and one incremental mutation surface
(``substitute`` / ``replace_fanin`` with O(fanout) bookkeeping, a
mutation-listener bus, an epoch-cached topological order), with the
shared bookkeeping implemented once in
:class:`~repro.networks.incremental.IncrementalNetworkMixin`.
Network-generic engines -- the pass pipeline, the MFFC walk, the
simulation-cut partitioning -- are written against the protocol and run
on either container.

The package also holds generic traversal helpers, AIG-to-k-LUT mapping
and structural transforms (cleanup, re-hashing).  Cut computation
(including the paper's simulation-cut algorithm of Section III-B) lives
in the shared :mod:`repro.cuts` engine.
"""

from .aig import Aig, AigNode, LIT_FALSE, LIT_TRUE
from .incremental import IncrementalNetworkMixin, scoped_mutation_observer
from .klut import KLutNetwork, LutNode
from .protocol import LogicNetwork, MutableNetwork, MutationListener, network_kind
from .traversal import (
    topological_sort,
    levelize,
    transitive_fanin,
    transitive_fanout,
    fanout_counts,
)
from .mapping import (
    MappingResult,
    MappingStats,
    map_aig_to_klut,
    technology_map,
)
from .structural_hash import structural_digest, structural_hash
from .transforms import (
    cleanup_dangling,
    cleanup_dangling_klut,
    rebuild_strashed,
    network_statistics,
    NetworkStatistics,
)

__all__ = [
    "Aig",
    "AigNode",
    "LIT_FALSE",
    "LIT_TRUE",
    "KLutNetwork",
    "LutNode",
    "LogicNetwork",
    "MutableNetwork",
    "MutationListener",
    "IncrementalNetworkMixin",
    "scoped_mutation_observer",
    "network_kind",
    "topological_sort",
    "levelize",
    "transitive_fanin",
    "transitive_fanout",
    "fanout_counts",
    "map_aig_to_klut",
    "technology_map",
    "MappingResult",
    "MappingStats",
    "structural_hash",
    "structural_digest",
    "cleanup_dangling",
    "cleanup_dangling_klut",
    "rebuild_strashed",
    "network_statistics",
    "NetworkStatistics",
]
