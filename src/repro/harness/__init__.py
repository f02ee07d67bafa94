"""Experiment harnesses that regenerate the paper's tables.

``repro-table1`` / :mod:`repro.harness.table1` regenerates the simulator
comparison (Table I) and ``repro-table2`` / :mod:`repro.harness.table2`
the SAT-sweeper comparison (Table II).  Both are also exercised, at small
pattern counts, by the pytest-benchmark targets under ``benchmarks/``.
The command-line entry points live in :mod:`repro.harness.cli`, which the
package does not import, so ``python -m repro.harness.cli`` runs it once.
"""

from .reporting import format_table, geometric_mean, improvement
from .table1 import Table1Row, format_table1, run_table1
from .table2 import Table2Row, format_table2, run_single_comparison, run_table2

__all__ = [
    "format_table",
    "geometric_mean",
    "improvement",
    "Table1Row",
    "format_table1",
    "run_table1",
    "Table2Row",
    "format_table2",
    "run_single_comparison",
    "run_table2",
]
