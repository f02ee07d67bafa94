"""SAT-sweeping workloads with injected redundancy (the Table II benchmarks).

Table II evaluates the sweepers on HWMCC'15 and IWLS'05 designs -- large
AIGs whose interesting property, from a SAT-sweeping point of view, is the
presence of *hidden* functional equivalences: structurally different cones
computing the same function, and cones that are secretly constant.  Those
files are not shipped here; instead :func:`inject_redundancy` manufactures
the same situation from any base circuit:

* a fraction of the internal nodes are duplicated through a functionally
  equal but structurally different re-implementation (Shannon expansion or
  a sum-of-minterms over a small cut), so structural hashing cannot merge
  them back;
* part of the fanout of the original node is redirected to the duplicate;
* optionally, hidden constant-false cones are built from a signal and a
  re-implementation of its complement, and OR-ed into existing edges
  (which leaves the function unchanged).

The result is a network that is functionally identical to the base circuit
but larger; a correct SAT sweeper recovers (most of) the original size,
and the comparison between the baseline and the STP sweeper on identical
inputs mirrors the paper's Table II.  Each named workload below pairs a
base circuit with an injection profile, one per Table II row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..networks.aig import Aig, LIT_FALSE
from ..networks.traversal import topological_sort
from ..cuts import aig_cone_table
from ..truthtable import TruthTable
from . import arithmetic, control, random_logic

__all__ = ["SWEEP_WORKLOADS", "inject_redundancy", "sweep_workload"]


# ---------------------------------------------------------------------------
# Redundancy injection
# ---------------------------------------------------------------------------


def _small_cut(aig: Aig, node: int, max_leaves: int) -> list[int]:
    """A small cut below ``node``: expand fanins breadth-first up to the limit."""
    leaves = list(aig.fanin_nodes(node))
    leaves = list(dict.fromkeys(leaves))
    changed = True
    while changed and len(leaves) < max_leaves:
        changed = False
        for index, leaf in enumerate(leaves):
            if not aig.is_and(leaf):
                continue
            expansion = [f for f in aig.fanin_nodes(leaf) if f not in leaves]
            if len(leaves) - 1 + len(expansion) + sum(1 for f in aig.fanin_nodes(leaf) if f in leaves) > max_leaves:
                continue
            leaves.pop(index)
            leaves.extend(f for f in aig.fanin_nodes(leaf) if f not in leaves)
            changed = True
            break
    return leaves


def _rebuild_from_truth_table(aig: Aig, table: TruthTable, leaves: list[int], style: str) -> int:
    """Re-implement ``table`` over ``leaves`` with a different structure.

    ``style`` selects the decomposition: ``"sop"`` builds a sum of minterms,
    ``"shannon"`` a Shannon expansion on the first support variable.  Both
    produce gates that the structural hash of the original construction
    does not share, so the duplicate survives strashing.
    """
    leaf_literals = [Aig.literal(leaf) for leaf in leaves]
    if table.is_constant():
        return LIT_FALSE if table.bits == 0 else Aig.negate(LIT_FALSE)
    if style == "shannon":
        support = table.support()
        variable = support[0]
        negative = table.cofactor(variable, False)
        positive = table.cofactor(variable, True)
        negative_literal = _rebuild_from_truth_table(aig, negative, leaves, "sop")
        positive_literal = _rebuild_from_truth_table(aig, positive, leaves, "sop")
        return aig.add_mux(leaf_literals[variable], positive_literal, negative_literal)
    # Sum of minterms.
    terms = []
    for assignment in range(table.num_bits):
        if not table.value_at(assignment):
            continue
        factors = [
            leaf_literals[i] if (assignment >> i) & 1 else Aig.negate(leaf_literals[i])
            for i in range(table.num_vars)
        ]
        terms.append(aig.add_and_multi(factors))
    return aig.add_or_multi(terms)


def _pi_support_sizes(aig: Aig) -> list[int]:
    """Number of PIs in each node's transitive fanin, indexed by node.

    One bottom-up pass of PI bitmasks, each gate after its fanins.  Node
    indices stop being topological once :meth:`Aig.replace_fanin` has
    rewired a gate to a later duplicate.  The order comes from
    :func:`topological_sort`, not :meth:`Aig.topological_order`, which
    would cache an order in the network that a later sweep of it reads.
    """
    entries = aig.node_entries
    masks = [0] * len(entries)
    for position, pi in enumerate(aig.pis):
        masks[pi] = 1 << position
    for node in topological_sort(list(aig.gates()), aig.gate_fanin_nodes):
        fanin0, fanin1 = entries[node]
        if fanin0 >= 0:
            masks[node] = masks[fanin0 >> 1] | masks[fanin1 >> 1]
    return [mask.bit_count() for mask in masks]


@dataclass
class InjectionReport:
    """What the redundancy injector did to one network."""

    duplicated_nodes: int = 0
    redirected_references: int = 0
    constant_cones: int = 0
    near_miss_nodes: int = 0
    gates_before: int = 0
    gates_after: int = 0


def inject_redundancy(
    aig: Aig,
    duplication_fraction: float = 0.15,
    constant_cones: int = 2,
    near_miss_count: int = 0,
    cut_size: int = 4,
    max_support: int = 12,
    seed: int = 1,
    name: str | None = None,
) -> tuple[Aig, InjectionReport]:
    """Return a network with hidden redundancy (and optional near-miss decoys).

    ``duplication_fraction`` of the AND nodes are duplicated with a
    different structure and take over part of the original node's fanout;
    ``constant_cones`` hidden constant-false cones are OR-ed into random
    edges.  Both of these keep the function identical to the base circuit.

    ``near_miss_count`` additionally creates *near-miss* decoy outputs: a
    copy of an existing node XOR-ed with the conjunction of its (small) PI
    support.  A near miss agrees with the original node on all but one
    input assignment, so random simulation almost never separates the pair
    and the candidate equivalence survives until either an (expensive)
    satisfiable SAT call or an exhaustive window simulation disproves it --
    the exact situation the paper's STP sweeper is designed to handle.
    Near misses change the PO list (each one drives a new output), not the
    function of the existing outputs.
    """
    rng = random.Random(seed)
    work = aig.clone()
    if name is not None:
        work.name = name
    report = InjectionReport(gates_before=work.num_ands)

    gates = [node for node in work.gates() if work.is_and(node)]
    num_duplicates = int(len(gates) * duplication_fraction)
    chosen = rng.sample(gates, min(num_duplicates, len(gates))) if gates else []
    entries = work.node_entries

    for node in chosen:
        leaves = _small_cut(work, node, cut_size)
        if not leaves or len(leaves) > cut_size:
            continue
        table = aig_cone_table(work, node, leaves, allow_unused_leaves=True)
        style = "shannon" if rng.random() < 0.5 else "sop"
        duplicate = _rebuild_from_truth_table(work, table, leaves, style)
        if Aig.node_of(duplicate) == node or Aig.node_of(duplicate) == 0:
            continue
        report.duplicated_nodes += 1
        # Redirect roughly half of the references of the original node,
        # visiting the referencing gates in index order.
        duplicate_cone = set(work.tfi([Aig.node_of(duplicate)]))
        for gate in sorted(set(work.fanouts(node))):
            if gate == Aig.node_of(duplicate) or gate in duplicate_cone:
                continue
            fanin0, fanin1 = entries[gate]
            if node in (fanin0 >> 1, fanin1 >> 1) and rng.random() < 0.5:
                if work.replace_fanin(gate, node, duplicate):
                    report.redirected_references += 1
        for index, po in enumerate(work.pos):
            if Aig.node_of(po) == node and rng.random() < 0.5:
                work.set_po(index, duplicate ^ (po & 1))
                report.redirected_references += 1

    # Hidden constant-false cones OR-ed into random edges.
    for _ in range(constant_cones):
        if not gates:
            break
        node = rng.choice(gates)
        leaves = _small_cut(work, node, cut_size)
        if not leaves or len(leaves) > cut_size:
            continue
        table = aig_cone_table(work, node, leaves, allow_unused_leaves=True)
        if table.is_constant():
            continue
        # Build a structurally different complement and AND it with the node:
        # the result is constant false but not structurally obvious.
        complement = _rebuild_from_truth_table(work, ~table, leaves, "sop")
        hidden_zero = work.add_and(Aig.literal(node), complement)
        if hidden_zero == LIT_FALSE:
            continue
        report.constant_cones += 1
        # OR the hidden zero into one existing edge (function unchanged).
        target_gates = [g for g in work.gates() if g != Aig.node_of(hidden_zero)]
        if not target_gates:
            continue
        gate = rng.choice(target_gates)
        fanin0, _fanin1 = work.fanins(gate)
        if gate in work.tfi([Aig.node_of(hidden_zero)]):
            continue
        replacement = work.add_or(fanin0, hidden_zero)
        if Aig.node_of(replacement) != 0 and gate not in work.tfi([Aig.node_of(replacement)]):
            if work.replace_fanin(gate, Aig.node_of(fanin0), replacement ^ (fanin0 & 1)):
                report.redirected_references += 1

    # Near-miss decoys: almost-equivalent nodes exposed as extra outputs.
    if near_miss_count:
        support_size = _pi_support_sizes(work)
        # A wide-enough support keeps the probability that random patterns
        # hit the single differing assignment negligible.
        candidates = [node for node in work.gates() if 8 <= support_size[node] <= max_support]
        if len(candidates) < near_miss_count:
            candidates.extend(node for node in work.gates() if 5 <= support_size[node] < 8)
        rng.shuffle(candidates)
        for node in candidates[:near_miss_count]:
            # The conjunction's shape follows the breadth-first support order.
            support = [n for n in work.tfi([node]) if work.is_pi(n)]
            conjunction = work.add_and_multi([Aig.literal(pi) for pi in support])
            near_miss = work.add_xor(Aig.literal(node), conjunction)
            if Aig.node_of(near_miss) in (0, node):
                continue
            work.add_po(near_miss, f"nm{report.near_miss_nodes}")
            report.near_miss_nodes += 1

    report.gates_after = work.num_ands
    return work, report


# ---------------------------------------------------------------------------
# Named workloads (one per Table II row)
# ---------------------------------------------------------------------------


def _base_6s100() -> Aig:
    return random_logic.layered_random_aig(num_pis=40, num_layers=10, layer_width=80, num_pos=30, seed=11, name="6s100")


def _base_6s20() -> Aig:
    return random_logic.layered_random_aig(num_pis=16, num_layers=30, layer_width=24, num_pos=12, seed=12, name="6s20")


def _base_6s203b41() -> Aig:
    return random_logic.layered_random_aig(num_pis=36, num_layers=8, layer_width=72, num_pos=28, seed=13, name="6s203b41")


def _base_6s281b35() -> Aig:
    return random_logic.layered_random_aig(num_pis=48, num_layers=12, layer_width=80, num_pos=36, seed=14, name="6s281b35")


def _base_6s342rb122() -> Aig:
    return random_logic.layered_random_aig(num_pis=32, num_layers=7, layer_width=64, num_pos=24, seed=15, name="6s342rb122")


def _base_6s350rb46() -> Aig:
    return random_logic.layered_random_aig(num_pis=44, num_layers=12, layer_width=88, num_pos=34, seed=16, name="6s350rb46")


def _base_6s382r() -> Aig:
    return random_logic.layered_random_aig(num_pis=36, num_layers=24, layer_width=56, num_pos=26, seed=17, name="6s382r")


def _base_6s392r() -> Aig:
    return random_logic.layered_random_aig(num_pis=36, num_layers=12, layer_width=72, num_pos=26, seed=18, name="6s392r")


def _base_beemfwt4b1() -> Aig:
    return arithmetic.ripple_carry_adder(width=24, name="beemfwt4b1")


def _base_beemfwt5b3() -> Aig:
    return arithmetic.array_multiplier(width=7, name="beemfwt5b3")


def _base_oski15a07b0s() -> Aig:
    return control.crc_unit(width=20, crc_width=16, name="oski15a07b0s")


def _base_oski2b1i() -> Aig:
    return arithmetic.restoring_divider(width=6, name="oski2b1i")


def _base_b18() -> Aig:
    return control.round_robin_arbiter(num_clients=10, name="b18")


def _base_b19() -> Aig:
    return random_logic.random_aig(num_pis=24, num_gates=900, num_pos=16, seed=19, name="b19")


def _base_leon2() -> Aig:
    return control.alu_decoder(opcode_width=4, width=12, name="leon2")


@dataclass(frozen=True)
class WorkloadSpec:
    """Base circuit plus injection profile of one Table II workload."""

    factory: Callable[[], Aig]
    duplication_fraction: float
    constant_cones: int
    near_miss_count: int
    seed: int


#: The fifteen Table II workloads (HWMCC'15 / IWLS'05 profiles).
SWEEP_WORKLOADS: dict[str, WorkloadSpec] = {
    "6s100": WorkloadSpec(_base_6s100, 0.10, 2, 50, 211),
    "6s20": WorkloadSpec(_base_6s20, 0.20, 2, 40, 212),
    "6s203b41": WorkloadSpec(_base_6s203b41, 0.08, 1, 35, 213),
    "6s281b35": WorkloadSpec(_base_6s281b35, 0.12, 3, 55, 214),
    "6s342rb122": WorkloadSpec(_base_6s342rb122, 0.08, 1, 30, 215),
    "6s350rb46": WorkloadSpec(_base_6s350rb46, 0.06, 1, 30, 216),
    "6s382r": WorkloadSpec(_base_6s382r, 0.15, 2, 45, 217),
    "6s392r": WorkloadSpec(_base_6s392r, 0.10, 2, 35, 218),
    "beemfwt4b1": WorkloadSpec(_base_beemfwt4b1, 0.25, 3, 40, 219),
    "beemfwt5b3": WorkloadSpec(_base_beemfwt5b3, 0.25, 3, 45, 220),
    "oski15a07b0s": WorkloadSpec(_base_oski15a07b0s, 0.25, 2, 45, 221),
    "oski2b1i": WorkloadSpec(_base_oski2b1i, 0.30, 3, 50, 222),
    "b18": WorkloadSpec(_base_b18, 0.15, 2, 30, 223),
    "b19": WorkloadSpec(_base_b19, 0.15, 2, 40, 224),
    "leon2": WorkloadSpec(_base_leon2, 0.12, 2, 35, 225),
}


def sweep_workload(name: str) -> Aig:
    """Construct one named SAT-sweeping workload (base circuit + redundancy)."""
    if name not in SWEEP_WORKLOADS:
        raise KeyError(f"unknown sweep workload {name!r}; known: {sorted(SWEEP_WORKLOADS)}")
    spec = SWEEP_WORKLOADS[name]
    base = spec.factory()
    workload, _report = inject_redundancy(
        base,
        duplication_fraction=spec.duplication_fraction,
        constant_cones=spec.constant_cones,
        near_miss_count=spec.near_miss_count,
        seed=spec.seed,
        name=name,
    )
    return workload

