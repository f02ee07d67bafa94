"""repro: Semi-Tensor Product based circuit simulation and SAT-sweeping.

A from-scratch Python reproduction of "A Semi-Tensor Product based Circuit
Simulation for SAT-sweeping" (DATE 2024): the STP matrix algebra, k-LUT
and AIG network data structures, the STP-based simulator of Algorithm 1,
a CDCL SAT solver with a circuit front-end, the FRAIG baseline sweeper and
the STP-enhanced sweeper of Algorithm 2, benchmark-circuit generators, and
harnesses that regenerate the paper's Table I and Table II.

Quickstart::

    from repro.circuits import epfl_benchmark
    from repro.networks import map_aig_to_klut
    from repro.simulation import PatternSet, StpSimulator
    from repro.sweeping import stp_sweep

    aig = epfl_benchmark("adder")
    klut, _ = map_aig_to_klut(aig, k=6)
    result = StpSimulator(klut).simulate_all(PatternSet.random(aig.num_pis, 256))
    swept, stats = stp_sweep(aig)
"""

from . import circuits, harness, io, networks, sat, simulation, stp, sweeping, truthtable

__version__ = "1.0.0"

__all__ = [
    "circuits",
    "harness",
    "io",
    "networks",
    "sat",
    "simulation",
    "stp",
    "sweeping",
    "truthtable",
    "__version__",
]
