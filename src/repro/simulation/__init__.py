"""Circuit simulation: patterns, signatures, bitwise baselines, the STP simulator.

The package contains both sides of the paper's Table I comparison -- the
word-parallel / per-pattern baselines (:mod:`repro.simulation.bitwise`)
and the STP-based simulator of Algorithm 1
(:mod:`repro.simulation.stp_simulator`) -- plus the incremental simulator
used by the sweepers' constant pass and the SAT-guided pattern generator
of Section IV-A.  Whole-network simulators return a
:class:`SimulationResult`, the node-indexed word list they compute.
"""

from .patterns import PatternSet
from .signatures import (
    SimulationResult,
    signature_to_bits,
    signature_to_string,
    canonical_signature,
)
from .bitwise import (
    simulate_aig,
    simulate_aig_words,
    simulate_aig_nodes,
    simulate_klut_per_pattern,
    aig_po_signatures,
    klut_po_signatures,
    po_signatures,
)
from .incremental import IncrementalAigSimulator
from .stp_simulator import (
    StpSimulator,
    cut_truth_table_stp,
    cut_truth_table_algebraic,
    compute_pi_supports,
    compute_local_truth_tables,
    expand_truth_table,
    cut_limit_for_patterns,
)
from .sat_guided import SatGuidedPatterns, sat_guided_patterns

__all__ = [
    "PatternSet",
    "SimulationResult",
    "signature_to_bits",
    "signature_to_string",
    "canonical_signature",
    "simulate_aig",
    "simulate_aig_words",
    "simulate_aig_nodes",
    "simulate_klut_per_pattern",
    "aig_po_signatures",
    "klut_po_signatures",
    "po_signatures",
    "IncrementalAigSimulator",
    "StpSimulator",
    "cut_truth_table_stp",
    "cut_truth_table_algebraic",
    "compute_pi_supports",
    "compute_local_truth_tables",
    "expand_truth_table",
    "cut_limit_for_patterns",
    "SatGuidedPatterns",
    "sat_guided_patterns",
]
