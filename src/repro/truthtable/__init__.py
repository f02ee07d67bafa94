"""Word-packed truth tables and helpers bridging them to STP matrices."""

from .truth_table import TruthTable
from .operations import (
    tt_and,
    tt_or,
    tt_xor,
    tt_not,
    tt_nand,
    tt_nor,
    tt_majority,
    tt_mux,
    truth_table_to_structural_matrix,
    truth_table_to_stp_form,
    stp_form_to_truth_table,
)

__all__ = [
    "TruthTable",
    "tt_and",
    "tt_or",
    "tt_xor",
    "tt_not",
    "tt_nand",
    "tt_nor",
    "tt_majority",
    "tt_mux",
    "truth_table_to_structural_matrix",
    "truth_table_to_stp_form",
    "stp_form_to_truth_table",
]
