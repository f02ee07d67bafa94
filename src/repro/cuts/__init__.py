"""Shared priority-cut engine: one cut machinery for the whole tree.

This package is the single home of cut computation.  Mapping, DAG-aware
rewriting and the simulation layer all consume the same pieces:

* :class:`Cut` / :func:`merge_cut_sets` -- the cut datatype and the one
  merge/dominance implementation, which selects the priority cuts
  smallest-first and only then fuses a truth table for each cut it
  keeps (``repro/cuts/cut.py``);
* :class:`CutEngine` -- static enumeration and
  incremental maintenance against :meth:`~repro.networks.aig.Aig.substitute`
  events, with dead-cone/revival bookkeeping (``repro/cuts/engine.py``);
* :class:`CutFunctionCache` -- fused cut functions memoised under
  structural signatures; it is consulted once per kept cut, never for
  a dropped candidate
  (``repro/cuts/cache.py``);
* :func:`aig_cone_table` / :func:`klut_cone_table` -- the validating
  reference cone walkers (``repro/cuts/cone.py``);
* :class:`SimulationCut` and friends -- the paper's simulation-cut
  algorithm (``repro/cuts/simcuts.py``).
"""

from .cache import CutFunctionCache
from .cone import aig_cone_table, klut_cone_table
from .cut import Cut, merge_cut_sets, trivial_cut
from .engine import CutEngine
from .simcuts import SimulationCut, cut_truth_table, simulation_cuts, simulation_cuts_generic

__all__ = [
    "Cut",
    "CutEngine",
    "CutFunctionCache",
    "SimulationCut",
    "aig_cone_table",
    "cut_truth_table",
    "klut_cone_table",
    "merge_cut_sets",
    "simulation_cuts",
    "simulation_cuts_generic",
    "trivial_cut",
]
