"""DAG-aware rewriting: NPN classes, structure library, passes, pipelines.

The subsystem restructures AIGs *before* (or between) SAT sweeps, the
way real flows interleave ABC's ``resyn2``-style rewriting with
fraiging: smaller networks mean fewer SAT queries and faster sweeps.

Layering:

* :mod:`~repro.rewriting.npn` -- exact NPN canonicalization of <=4-input
  functions (768 transforms, memoised);
* :mod:`~repro.rewriting.library` -- one precomputed AIG structure per
  NPN class (bounded exhaustive enumeration plus decomposition
  synthesis);
* :mod:`~repro.rewriting.mffc` -- maximum fanout-free cones, the gain
  budget of every replacement;
* :mod:`~repro.rewriting.rewrite` / :mod:`~repro.rewriting.balance` /
  :mod:`~repro.rewriting.refactor` -- the three AIG restructuring passes;
* :mod:`~repro.rewriting.klut_resyn` -- mapped-network (k-LUT) MFFC
  resynthesis, committed through the incremental
  :meth:`~repro.networks.klut.KLutNetwork.substitute`;
* :mod:`~repro.rewriting.choices` -- structural choice computation (the
  ``dch``-style ``choice`` pass): rewriting/refactoring run additively
  and the sweeper records proven equivalences as choice classes for
  choice-aware mapping;
* :mod:`~repro.rewriting.passes` -- the network-generic
  :class:`PassManager` running ABC-style scripts (``"rw; fraig"``,
  ``"resyn2"``, ``"map; lutmffc; cleanup"``, ...) with per-pass
  statistics, parse-time network-kind checking and optional
  verification.
"""

from .npn import NpnTransform, npn_canonicalize, apply_npn_transform, npn_classes
from .library import AigStructure, RewriteLibrary, default_library, synthesize_structure
from .mffc import collect_mffc
from .rewrite import RewriteReport, rewrite
from .balance import BalanceReport, balance
from .refactor import RefactorReport, refactor
from .choices import ChoiceReport, compute_choices
from .klut_resyn import LutResynReport, lut_resynthesize
from .passes import (
    PassManager,
    PassStatistics,
    FlowStatistics,
    optimize,
    parse_script,
    validate_script,
    PASS_NAMES,
    PASS_KINDS,
    NAMED_SCRIPTS,
)

__all__ = [
    "NpnTransform",
    "npn_canonicalize",
    "apply_npn_transform",
    "npn_classes",
    "AigStructure",
    "RewriteLibrary",
    "default_library",
    "synthesize_structure",
    "collect_mffc",
    "RewriteReport",
    "rewrite",
    "BalanceReport",
    "balance",
    "RefactorReport",
    "refactor",
    "ChoiceReport",
    "compute_choices",
    "LutResynReport",
    "lut_resynthesize",
    "PassManager",
    "PassStatistics",
    "FlowStatistics",
    "optimize",
    "parse_script",
    "validate_script",
    "PASS_NAMES",
    "PASS_KINDS",
    "NAMED_SCRIPTS",
]
