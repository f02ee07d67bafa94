"""Free functions on truth tables: standard gates and STP bridging."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..stp.canonical import STPForm, canonical_form_from_truth_table
from ..stp.matrices import structural_matrix_from_truth_table
from .truth_table import TruthTable

__all__ = [
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


def tt_and(num_vars: int = 2) -> TruthTable:
    """AND of ``num_vars`` inputs."""
    return TruthTable.from_function(lambda *args: all(args), num_vars)


def tt_or(num_vars: int = 2) -> TruthTable:
    """OR of ``num_vars`` inputs."""
    return TruthTable.from_function(lambda *args: any(args), num_vars)


def tt_xor(num_vars: int = 2) -> TruthTable:
    """XOR (parity) of ``num_vars`` inputs."""
    return TruthTable.from_function(lambda *args: sum(args) % 2 == 1, num_vars)


def tt_not() -> TruthTable:
    """Single-input inverter."""
    return TruthTable.from_function(lambda a: not a, 1)


def tt_nand(num_vars: int = 2) -> TruthTable:
    """NAND of ``num_vars`` inputs."""
    return ~tt_and(num_vars)


def tt_nor(num_vars: int = 2) -> TruthTable:
    """NOR of ``num_vars`` inputs."""
    return ~tt_or(num_vars)


def tt_majority(num_vars: int = 3) -> TruthTable:
    """Majority of an odd number of inputs."""
    if num_vars % 2 == 0:
        raise ValueError("majority requires an odd number of inputs")
    return TruthTable.from_function(lambda *args: sum(args) > num_vars // 2, num_vars)


def tt_mux() -> TruthTable:
    """2:1 multiplexer ``mux(s, a, b) = a if s else b`` (input order s, a, b)."""
    return TruthTable.from_function(lambda s, a, b: a if s else b, 3)


def truth_table_to_structural_matrix(table: TruthTable) -> np.ndarray:
    """Convert a truth table into the 2 x 2^k structural matrix of the LUT.

    Column 0 of the structural matrix is the all-True input assignment, so
    the truth-table bits (indexed by increasing assignment) are reversed.
    """
    return structural_matrix_from_truth_table(list(reversed(table.to_bit_list())))


def truth_table_to_stp_form(table: TruthTable, variables: Sequence[str] | None = None) -> STPForm:
    """Convert a truth table into an STP canonical form over named variables.

    The STP canonical form treats ``variables[0]`` as the most significant
    bit of the assignment index, whereas truth tables index input 0 as the
    least significant bit; the conversion reconciles the two conventions.
    """
    names = list(variables) if variables is not None else [f"x{i}" for i in range(table.num_vars)]
    if len(names) != table.num_vars:
        raise ValueError(f"expected {table.num_vars} variable names, got {len(names)}")
    # Reindex: STP assignment index i has names[0] as the MSB; the truth
    # table index has input 0 (names[0]) as the LSB.
    outputs = []
    n = table.num_vars
    for stp_index in range(1 << n):
        tt_index = 0
        for position in range(n):
            if (stp_index >> (n - 1 - position)) & 1:
                tt_index |= 1 << position
        outputs.append(int(table.value_at(tt_index)))
    return canonical_form_from_truth_table(outputs, names)


def stp_form_to_truth_table(form: STPForm) -> TruthTable:
    """Inverse of :func:`truth_table_to_stp_form`.

    The canonical form indexes assignments with ``variables[0]`` as the most
    significant bit, whereas truth tables use input 0 as the least
    significant bit; the conversion reindexes accordingly.
    """
    from ..stp.canonical import truth_table_of_form

    outputs = truth_table_of_form(form)
    n = len(form.variables)
    bits = 0
    for stp_index, value in enumerate(outputs):
        if not value:
            continue
        tt_index = 0
        for position in range(n):
            if (stp_index >> (n - 1 - position)) & 1:
                tt_index |= 1 << position
        bits |= 1 << tt_index
    return TruthTable(n, bits)

