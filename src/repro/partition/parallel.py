"""The partition-parallel driver: decompose, dispatch, verify, merge.

:func:`partition_optimize` is the engine behind the ``ppart`` meta-pass,
``repro optimize --jobs N`` and the service's ``jobs`` field:

1. **Decompose** the input into convex regions
   (:func:`~repro.partition.regions.partition_network`) and *stream*
   each extraction (:func:`~repro.partition.regions.
   stream_region_networks`): every sub-network lives only long enough
   to be encoded to its compact binary wire blob
   (:mod:`~repro.partition.wire`), so peak extraction state is
   O(largest region) and the retained footprint is flat bytes -- the
   million-gate memory posture.  The blob doubles as the verification
   reference (decoded lazily at merge time).
2. **Dispatch** the wire payloads to the executor (inline / threads /
   warmed spawned processes), one job per region, so a crashed or hung
   worker costs exactly its own region.  The flow
   :class:`~repro.resilience.Budget` is split across partitions: the
   shared conflict pool is divided evenly, every worker gets a
   deadline bounded by the flow's remaining wall clock over the number
   of execution waves, and the parent charges each worker's actual
   conflict spend back against the pool.
3. **Verify and merge in deterministic region-index order.**  The
   parent *never trusts a worker*: every returned cone is re-simulated
   against the original extraction, re-instantiated through the
   parent's strashing constructor, and committed under a
   :class:`~repro.resilience.NetworkCheckpoint` -- any failure
   (non-equivalence, a raising listener, an injected fault) rolls back
   exactly that region and the flow continues.  Because commit order is
   region order and every worker job is deterministic, ``jobs=1`` and
   ``jobs=4`` produce structurally identical results.

Merge-back has two modes.  ``merge="substitute"`` rewires the region
outputs to the optimized cones through the O(fanout)
``substitute`` machinery (the parent's mutation-listener bus sees every
rewire, so ambient budget observers and fault injectors keep working)
and sweeps the dangling originals at the end.  ``merge="choice"``
records each optimized cone *additively* as a structural choice
(:meth:`~repro.networks.incremental.IncrementalNetworkMixin.add_choice`),
leaving the subject graph bit-identical for a following choice-aware
``map``.

Cycle safety: regions are convex (contiguous slices of one topological
order), so replacement cones -- functions of boundary inputs only --
cannot depend on region outputs.  The one residual hazard is strashing:
instantiating a *redundant* cone can hash onto a gate downstream of the
output being replaced (possible with adversarial worker results, which
the chaos suite injects deliberately).  Each substitution therefore
runs a cheap cone-membership check first and skips the output when the
replacement's fan-in cone reaches it; ``add_choice`` performs its own
acyclicity check and is safe by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..networks.aig import Aig
from ..networks.transforms import cleanup_dangling
from ..resilience import Budget, BudgetExceeded, NetworkCheckpoint, simulation_equivalent
from .pool import InlineExecutor, RegionExecutor, shared_process_executor
from .regions import Region, partition_network, stream_region_networks
from .wire import decode_region, encode_region

__all__ = ["RegionReport", "PartitionReport", "partition_optimize"]

#: Extra time granted on top of the worker deadline before a wave with
#: no completing region counts as hung.
_TIMEOUT_GRACE = 30.0


@dataclass
class RegionReport:
    """Outcome of one region: identity, worker result, merge verdict.

    ``status`` is one of ``merged`` (result committed), ``unchanged``
    (worker succeeded but offered no gain, or the region is a dead cone
    with no visible outputs and was never dispatched),
    ``rolled_back`` (worker result rejected at verification or the
    merge itself failed and was undone), ``worker_failed`` (crash,
    timeout, or an invalid result payload) and ``skipped`` (flow budget
    exhausted before this region's merge).  ``details`` carries the
    region's own flattened pass counters -- including the
    ``sat_``-prefixed per-partition CDCL statistics.
    """

    index: int
    gates: int
    inputs: int
    outputs: int
    status: str = "skipped"
    gates_before: int = 0
    gates_after: int = 0
    substitutions: int = 0
    outputs_skipped: int = 0
    failure: str | None = None
    wall_clock: float = 0.0
    details: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (``PassStatistics.partitions`` entries)."""
        return {
            "index": self.index,
            "gates": self.gates,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "status": self.status,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "substitutions": self.substitutions,
            "outputs_skipped": self.outputs_skipped,
            "failure": self.failure,
            "wall_clock": self.wall_clock,
            "details": dict(self.details),
        }


@dataclass
class PartitionReport:
    """Aggregate outcome of one :func:`partition_optimize` run."""

    jobs: int
    strategy: str
    max_gates: int
    merge: str
    regions: list[RegionReport] = field(default_factory=list)
    worker_restarts: int = 0
    choices_recorded: int = 0
    #: Total wire bytes shipped to workers (the compact binary payloads).
    wire_bytes: int = 0

    @property
    def regions_built(self) -> int:
        return len(self.regions)

    @property
    def regions_merged(self) -> int:
        return sum(1 for region in self.regions if region.status == "merged")

    @property
    def regions_rolled_back(self) -> int:
        """Regions whose worker result was discarded (rollback or worker failure)."""
        return sum(1 for region in self.regions if region.status in ("rolled_back", "worker_failed"))

    @property
    def regions_skipped(self) -> int:
        return sum(1 for region in self.regions if region.status == "skipped")

    def as_details(self) -> dict[str, float]:
        """Flat pass-details view: ``ppart_*`` counters plus summed SAT counters.

        The ``sat_``-prefixed sums keep the existing aggregation paths
        working unchanged (``--sat-profile``, the service's lifetime
        ``sat`` metrics); the per-partition breakdown lives in
        :meth:`partition_dicts`.
        """
        details: dict[str, float] = {
            "ppart_regions_built": float(self.regions_built),
            "ppart_regions_merged": float(self.regions_merged),
            "ppart_regions_rolled_back": float(self.regions_rolled_back),
            "ppart_regions_skipped": float(self.regions_skipped),
            "ppart_worker_restarts": float(self.worker_restarts),
            "ppart_jobs": float(self.jobs),
            "ppart_wire_bytes": float(self.wire_bytes),
        }
        if self.merge == "choice":
            details["ppart_choices_recorded"] = float(self.choices_recorded)
        for region in self.regions:
            for key, value in region.details.items():
                if key.startswith("sat_") or key == "merges":
                    details[key] = details.get(key, 0.0) + float(value)
        return details

    def partition_dicts(self) -> list[dict[str, object]]:
        """Per-region dicts for ``PassStatistics.partitions`` / ``--stats-json``."""
        return [region.as_dict() for region in self.regions]


def _resolve(literal: int, substituted: Mapping[int, int]) -> int:
    """Chase a literal through already-committed substitutions."""
    seen = 0
    while (literal >> 1) in substituted and seen < len(substituted) + 1:
        replacement = substituted[literal >> 1]
        literal = replacement ^ (literal & 1)
        seen += 1
    return literal


def _reaches(aig: Aig, target: int, root: int) -> bool:
    """True when ``target`` lies in the fan-in cone of ``root`` (inclusive)."""
    if root == target:
        return True
    entries = aig.node_entries
    stack = [root]
    seen = {root}
    while stack:
        fanin0, fanin1 = entries[stack.pop()]
        if fanin0 < 0:
            continue
        for fanin in (fanin0 >> 1, fanin1 >> 1):
            if fanin == target:
                return True
            if fanin not in seen:
                seen.add(fanin)
                stack.append(fanin)
    return False


def _instantiate(
    work: Aig, region: Region, optimized: Aig, substituted: Mapping[int, int]
) -> dict[int, int]:
    """Re-build the optimized cone inside ``work``; map outputs to literals.

    Boundary inputs are looked up through ``substituted`` so cones of
    later regions land on the replacements earlier regions committed.
    Strashing folds shared structure back onto existing parent gates.
    """
    literal_map: dict[int, int] = {0: 0}
    for sub_pi, parent_node in zip(optimized.pis, region.inputs):
        literal_map[sub_pi] = _resolve(Aig.literal(parent_node), substituted)
    for node in optimized.topological_order():
        fanin0, fanin1 = optimized.fanins(node)
        literal_map[node] = work.add_and(
            literal_map[fanin0 >> 1] ^ (fanin0 & 1),
            literal_map[fanin1 >> 1] ^ (fanin1 & 1),
        )
    replacements: dict[int, int] = {}
    for parent_node, po_literal in zip(region.outputs, optimized.pos):
        replacements[parent_node] = literal_map[po_literal >> 1] ^ (po_literal & 1)
    return replacements


def partition_optimize(
    network: Aig,
    script: str | Sequence[str] = "rw; rf",
    *,
    jobs: int = 1,
    max_gates: int = 400,
    strategy: str = "window",
    merge: str = "substitute",
    seed: int = 1,
    num_patterns: int = 64,
    conflict_limit: int | None = 10_000,
    window_size: int | None = None,
    budget: Budget | None = None,
    executor: RegionExecutor | None = None,
    region_timeout: float | None = None,
    fault_plan: Mapping[int, str] | None = None,
    fault_sleep: float | None = None,
) -> tuple[Aig, PartitionReport]:
    """Optimize ``network`` region by region across a worker pool.

    Returns the optimized network (the input is never mutated) and the
    :class:`PartitionReport`.  ``executor=None`` selects the inline
    executor for ``jobs=1`` and the shared warmed process pool
    otherwise; tests inject thread executors or fault plans
    (region index -> fault mode, forwarded to the workers) explicitly.

    ``window_size`` threads the persistent-solver window through to each
    region job's own pass manager (one ``CircuitSolver`` window per
    region job, retired on merge-back).  It never changes results: each
    region job is a deterministic function of its own payload.

    Budget exhaustion mid-merge degrades gracefully: the regions merged
    so far stay committed (each was independently verified, so the
    partial result is equivalent), the remaining regions are marked
    ``skipped``, and no error escapes -- the flow's own checkpoints
    notice the exhausted budget at the next pass boundary.
    """
    if merge not in ("substitute", "choice"):
        raise ValueError(f"merge must be 'substitute' or 'choice', got {merge!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if window_size is not None and window_size < 1:
        raise ValueError(f"window_size must be >= 1, got {window_size}")
    script_text = script if isinstance(script, str) else "; ".join(script)
    work = network.clone()
    regions = partition_network(work, max_gates=max_gates, strategy=strategy)
    report = PartitionReport(jobs=jobs, strategy=strategy, max_gates=max_gates, merge=merge)
    if not regions:
        return work, report

    if executor is None:
        executor = InlineExecutor() if jobs == 1 else shared_process_executor(jobs)
    restarts_before = executor.restarts

    # -- streaming extraction and budget split --------------------------
    # One pass over the region slices: each sub-network is alive only
    # long enough to be encoded to its compact wire blob, so peak
    # extraction state is O(largest region).  Dead cones (no visible
    # outputs) are never even encoded.  The blob is both the worker
    # payload and the verification reference, decoded lazily at merge.
    wires: list[bytes | None] = []
    for region, sub in stream_region_networks(work, regions):
        report.regions.append(
            RegionReport(
                index=region.index,
                gates=region.num_gates,
                inputs=len(region.inputs),
                outputs=len(region.outputs),
            )
        )
        wires.append(encode_region(sub) if region.outputs else None)
    report.wire_bytes = sum(len(blob) for blob in wires if blob is not None)
    # Regions with no visible outputs are dead cones -- nothing outside
    # them observes their gates, so there is nothing to merge back.
    # Skip the worker round-trip entirely and leave them untouched.
    active = [index for index, region in enumerate(regions) if region.outputs]
    for index, region_report in enumerate(report.regions):
        if index not in active:
            region_report.status = "unchanged"

    conflict_share: int | None = None
    worker_deadline: float | None = None
    waves = max(1, math.ceil(max(1, len(active)) / jobs))
    if budget is not None:
        budget.checkpoint("ppart")
        remaining_conflicts = budget.conflict_allowance(None, "ppart")
        if remaining_conflicts is not None:
            conflict_share = max(1, remaining_conflicts // max(1, len(active)))
        remaining_time = budget.time_remaining()
        if remaining_time is not None:
            worker_deadline = max(0.05, remaining_time / waves)
    if region_timeout is not None:
        worker_deadline = region_timeout if worker_deadline is None else min(worker_deadline, region_timeout)

    payloads: list[dict[str, Any]] = []
    for index in active:
        region = regions[index]
        blob = wires[index]
        assert blob is not None, "active regions always have a wire blob"
        payload: dict[str, Any] = {
            "region": region.index,
            "wire": blob,
            "script": script_text,
            "seed": seed,
            "num_patterns": num_patterns,
            "conflict_limit": conflict_limit,
        }
        if window_size is not None:
            payload["window"] = window_size
        if worker_deadline is not None:
            payload["deadline"] = worker_deadline
        if conflict_share is not None:
            payload["conflicts"] = conflict_share
        if fault_plan and region.index in fault_plan:
            payload["fault"] = fault_plan[region.index]
            if fault_sleep is not None:
                # Bound the injected hang so test worker threads do not
                # sleep on past the suite (threads cannot be killed).
                payload["fault_sleep"] = fault_sleep
        payloads.append(payload)

    # -- dispatch: one job per active region ----------------------------
    # The executor times out a worker only after this long with no
    # region completing, so a hang never holds back a healthy region.
    collect_timeout: float | None = None
    if worker_deadline is not None:
        collect_timeout = worker_deadline + _TIMEOUT_GRACE
    outcomes = executor.map_regions(payloads, timeout=collect_timeout) if payloads else []
    report.worker_restarts = executor.restarts - restarts_before

    # -- verify and merge, in region-index order ------------------------
    substituted: dict[int, int] = {}
    exhausted = False
    for index, outcome in zip(active, outcomes):
        region = regions[index]
        region_report = report.regions[index]
        status = str(outcome.get("status", "worker_crashed"))
        region_report.wall_clock = float(outcome.get("wall_clock", 0.0) or 0.0)
        details = outcome.get("details")
        if isinstance(details, Mapping):
            region_report.details = {str(key): float(value) for key, value in details.items()}
        if budget is not None and not exhausted:
            try:
                budget.checkpoint("ppart-merge")
            except BudgetExceeded:
                exhausted = True
        if exhausted:
            region_report.status = "skipped"
            region_report.failure = "flow budget exhausted before merge"
            continue
        if status != "ok":
            region_report.status = "worker_failed"
            region_report.failure = f"{status}: {outcome.get('message', '')}"
            continue
        if budget is not None:
            budget.spend_conflicts(int(outcome.get("conflicts_spent", 0) or 0))
        try:
            optimized = decode_region(bytes(outcome.get("wire", b"")), name=f"region{region.index}")
        except ValueError as error:
            region_report.status = "worker_failed"
            region_report.failure = f"unparseable worker result: {error}"
            continue
        blob = wires[index]
        assert blob is not None, "active regions always have a wire blob"
        # The verification reference is decoded lazily from the retained
        # wire blob -- only one original sub-network is alive at a time.
        original = decode_region(blob, name=f"region{region.index}")
        region_report.gates_before = original.num_ands
        region_report.gates_after = optimized.num_ands
        # The parent never trusts a worker: re-check the cone against
        # the original extraction before touching the network.
        if not simulation_equivalent(
            original, optimized, num_patterns=max(256, num_patterns), seed=seed
        ):
            region_report.status = "rolled_back"
            region_report.failure = "worker result is not equivalent to the extracted region"
            continue
        if merge == "substitute" and optimized.num_ands >= original.num_ands:
            region_report.status = "unchanged"
            continue
        checkpoint = NetworkCheckpoint(work)
        pending: dict[int, int] = {}
        try:
            replacements = _instantiate(work, region, optimized, substituted)
            for output in region.outputs:
                literal = _resolve(replacements[output], pending)
                if literal >> 1 == output:
                    continue
                if merge == "choice":
                    if work.add_choice(output, literal):
                        report.choices_recorded += 1
                        region_report.substitutions += 1
                    continue
                if _reaches(work, output, literal >> 1):
                    # A redundant replacement cone strash-folded onto a
                    # gate downstream of this output; substituting would
                    # create a cycle.  Keeping the original is correct.
                    region_report.outputs_skipped += 1
                    continue
                work.substitute(output, literal)
                pending[output] = literal
                region_report.substitutions += 1
            checkpoint.commit()
            substituted.update(pending)
            region_report.status = "merged"
        except BudgetExceeded as error:
            restored = checkpoint.restore()
            assert isinstance(restored, Aig)
            work = restored
            region_report.status = "skipped"
            region_report.failure = f"budget: {error}"
            exhausted = True
        except Exception as error:
            restored = checkpoint.restore()
            assert isinstance(restored, Aig)
            work = restored
            region_report.status = "rolled_back"
            region_report.failure = f"{type(error).__name__}: {error}"

    if merge == "substitute" and report.regions_merged:
        cleaned, _literal_map = cleanup_dangling(work)
        assert isinstance(cleaned, Aig)
        work = cleaned
    return work, report
