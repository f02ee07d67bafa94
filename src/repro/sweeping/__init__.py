"""SAT-sweeping: equivalence classes, one sweep engine, two sweepers.

The package mirrors the ecosystem of Fig. 2 in the paper: an equivalence
class manager, a SAT-sweeping manager, the STP-based circuit simulator
(imported from :mod:`repro.simulation`), the SAT solver front-end
(:mod:`repro.sat.circuit`) and a transitive-fanin manager, plus the
combinational equivalence checker used to verify every sweep.

The SAT-sweeping manager is one candidate loop,
:class:`~repro.sweeping.engine.SweepEngine`.  The FRAIG baseline
(:class:`FraigSweeper`, with ``record_choices`` for the choice-recording
sweep) and the paper's Algorithm 2 (:class:`StpSweeper`) are two
configurations of it: they differ only in candidate order, initial
patterns, driver list, exhaustive keys and choice recording.
"""

from .equivalence import EquivalenceClass, EquivalenceClasses
from .constant_prop import ConstantPropagationReport, propagate_constant_candidates
from .tfi import TfiManager
from .stats import SweepStatistics
from .fraig import FraigSweeper, fraig_sweep
from .stp_sweeper import StpSweeper, stp_sweep
from .cec import CecResult, check_combinational_equivalence

__all__ = [
    "EquivalenceClass",
    "EquivalenceClasses",
    "ConstantPropagationReport",
    "propagate_constant_candidates",
    "TfiManager",
    "SweepStatistics",
    "FraigSweeper",
    "fraig_sweep",
    "StpSweeper",
    "stp_sweep",
    "CecResult",
    "check_combinational_equivalence",
]
