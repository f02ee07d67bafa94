"""Benchmark circuit generators.

The paper evaluates on the EPFL combinational suite (Table I) and on
HWMCC'15 / IWLS'05 designs (Table II).  Those suites are distributed as
files we do not ship; this package instead *constructs* circuits of the
same families from scratch: genuine gate-level arithmetic (adders,
shifters, multipliers, dividers, square roots, ...), control blocks
(arbiters, decoders, priority logic, ...), seeded structured random logic
for the remaining profiles, and a redundancy injector that turns any base
circuit into a SAT-sweeping workload with hidden equivalences, the way the
sequential HWMCC designs behave after unrolling.  DESIGN.md documents the
substitution and why the paper's comparisons survive it.
"""

from .arithmetic import (
    ripple_carry_adder,
    carry_select_adder,
    subtractor,
    comparator,
    barrel_shifter,
    array_multiplier,
    square as square_circuit,
    restoring_divider,
    integer_square_root,
    max_unit,
    majority_voter,
    decoder,
    priority_encoder,
    int_to_float,
    log2_unit,
    sine_unit,
    hypotenuse_unit,
)
from .control import (
    round_robin_arbiter,
    simple_controller,
    parity_checker,
    crc_unit,
    gray_counter_next,
    alu_decoder,
)
from .random_logic import random_aig, layered_random_aig
from .epfl import EPFL_BENCHMARKS, epfl_benchmark, epfl_suite
from .sweep_workloads import (
    SWEEP_WORKLOADS,
    inject_redundancy,
    sweep_workload,
)

__all__ = [
    "ripple_carry_adder",
    "carry_select_adder",
    "subtractor",
    "comparator",
    "barrel_shifter",
    "array_multiplier",
    "square_circuit",
    "restoring_divider",
    "integer_square_root",
    "max_unit",
    "majority_voter",
    "decoder",
    "priority_encoder",
    "int_to_float",
    "log2_unit",
    "sine_unit",
    "hypotenuse_unit",
    "round_robin_arbiter",
    "simple_controller",
    "parity_checker",
    "crc_unit",
    "gray_counter_next",
    "alu_decoder",
    "random_aig",
    "layered_random_aig",
    "EPFL_BENCHMARKS",
    "epfl_benchmark",
    "epfl_suite",
    "SWEEP_WORKLOADS",
    "inject_redundancy",
    "sweep_workload",
]
