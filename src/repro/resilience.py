"""Resilience layer: budgets, transactional checkpoints and fault injection.

Optimization flows that serve jobs (the ROADMAP's ``repro serve`` and
partition-parallel directions) need three guarantees the transforms
alone do not give:

1. **Budgets** -- a :class:`Budget` carries a wall-clock deadline, a
   shared SAT-conflict pool and a mutation-count cap through the whole
   execution stack.  Long-running engines poll :meth:`Budget.checkpoint`
   cooperatively (:class:`~repro.rewriting.passes.PassManager`,
   :class:`~repro.sweeping.fraig.FraigSweeper`,
   :class:`~repro.cuts.engine.CutEngine` enumeration,
   :func:`~repro.networks.mapping.technology_map`, and the CDCL conflict
   loop itself); exhaustion raises a typed :class:`BudgetExceeded`
   instead of running away.
2. **Checkpoints** -- a :class:`NetworkCheckpoint` snapshots a network
   before a pass runs and restores it on failure, so a raising,
   over-budget or verification-failing pass never leaks a half-mutated
   network to the caller.
3. **Fault injection** -- a deterministic :class:`FaultInjector` drives
   the chaos fuzz suite: it raises at the Nth mutation event observed in
   the current execution context or corrupts a mutation-listener
   payload, exercising the rollback machinery on demand.

The ambient mutation observers (:mod:`repro.networks.incremental`) are
**context-scoped** (a :class:`contextvars.ContextVar` registry): a
budget's mutation counter or a fault injector activated inside one
service job observes that job's mutations only, never a concurrent
job's, while single-threaded flows behave exactly as before.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator

from .networks.incremental import (
    IncrementalNetworkMixin,
    add_ambient_mutation_observer,
    remove_ambient_mutation_observer,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .networks.aig import Aig
    from .networks.klut import KLutNetwork

__all__ = [
    "ResilienceError",
    "BudgetExceeded",
    "VerificationFailed",
    "InjectedFault",
    "Budget",
    "NetworkCheckpoint",
    "FaultInjector",
    "simulation_equivalent",
]


class ResilienceError(Exception):
    """Base class of the typed errors raised by the resilience layer."""


class BudgetExceeded(ResilienceError):
    """A cooperative budget checkpoint found a pool exhausted.

    ``resource`` names the exhausted pool (``"deadline"``,
    ``"conflicts"`` or ``"mutations"``); ``where`` is the checkpoint
    site that noticed (e.g. ``"cdcl"``, ``"fraig"``, ``"map"``).
    """

    def __init__(self, resource: str, where: str = "") -> None:
        self.resource = resource
        self.where = where
        site = f" at {where}" if where else ""
        super().__init__(f"{resource} budget exhausted{site}")


class VerificationFailed(ResilienceError):
    """A verification-gated commit found the pass result non-equivalent."""


class InjectedFault(RuntimeError):
    """The error a :class:`FaultInjector` raises at its trigger point.

    Deliberately *not* a :class:`ResilienceError`: it stands in for an
    arbitrary bug inside a pass, so the transactional machinery must
    absorb it through the generic ``Exception`` path, exactly as it
    would a real defect.
    """


class Budget:
    """Cooperative resource budget: deadline, conflict pool, mutation cap.

    All three pools are optional (``None`` = unlimited).  ``wall_clock``
    is converted to a deadline at construction time.  ``conflicts`` is a
    *shared* pool: every budget-aware SAT call draws from it via
    :meth:`conflict_allowance` / :meth:`spend_conflicts`, so the whole
    flow -- not each call -- is bounded.  ``mutations`` caps the number
    of network mutation events observed while
    :meth:`observe_mutations` is active.

    Sub-budgets (:meth:`with_deadline`, used for per-pass timeouts)
    share the parent's conflict and mutation pools but may tighten the
    deadline; exceeding the tightened deadline aborts only the current
    pass while the parent flow keeps its remaining time.

    ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        wall_clock: float | None = None,
        conflicts: int | None = None,
        mutations: int | None = None,
        clock: Callable[[], float] | None = None,
        _parent: "Budget | None" = None,
    ) -> None:
        if _parent is not None:
            self._clock = _parent._clock
            self._root = _parent._root
        else:
            self._clock = clock if clock is not None else time.monotonic
            self._root = self
        self.deadline: float | None = None
        if wall_clock is not None:
            self.deadline = self._clock() + wall_clock
        if _parent is not None and _parent.deadline is not None:
            self.deadline = (
                _parent.deadline if self.deadline is None else min(self.deadline, _parent.deadline)
            )
        if self._root is self:
            self._conflicts_remaining = conflicts
            self._mutations_remaining = mutations
            self.conflicts_spent = 0
            self.mutations_seen = 0
        self._observer_depth = 0

    # -- deadline ------------------------------------------------------

    @property
    def expired(self) -> bool:
        """True once the wall-clock deadline has passed."""
        return self.deadline is not None and self._clock() >= self.deadline

    def time_remaining(self) -> float | None:
        """Seconds until the deadline, or ``None`` when unbounded."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self._clock())

    def checkpoint(self, where: str = "") -> None:
        """Cooperative poll: raise :class:`BudgetExceeded` on an expired deadline."""
        if self.deadline is not None and self._clock() >= self.deadline:
            raise BudgetExceeded("deadline", where)

    def with_deadline(self, wall_clock: float | None) -> "Budget":
        """Sub-budget sharing this budget's pools with a tightened deadline.

        The sub-budget's deadline is ``min(parent deadline, now +
        wall_clock)``; conflict and mutation pools stay shared with the
        root, so per-pass timeouts never extend the flow's resources.
        """
        return Budget(wall_clock=wall_clock, _parent=self)

    # -- shared SAT-conflict pool --------------------------------------

    def conflict_allowance(self, request: int | None, where: str = "") -> int | None:
        """Per-call conflict limit drawn from the shared pool.

        Returns the tighter of ``request`` and the pool's remainder
        (``None`` = unlimited).  An already-empty pool raises
        :class:`BudgetExceeded` -- the caller must not start the call.
        """
        remaining = self._root._conflicts_remaining
        if remaining is None:
            return request
        if remaining <= 0:
            raise BudgetExceeded("conflicts", where)
        if request is None:
            return remaining
        return min(request, remaining)

    def spend_conflicts(self, conflicts: int) -> None:
        """Charge ``conflicts`` solver conflicts against the shared pool."""
        root = self._root
        root.conflicts_spent += conflicts
        if root._conflicts_remaining is not None:
            root._conflicts_remaining = max(0, root._conflicts_remaining - conflicts)

    # -- mutation cap --------------------------------------------------

    def note_mutation(self, where: str = "") -> None:
        """Count one mutation event; raise once the cap is crossed."""
        root = self._root
        root.mutations_seen += 1
        if root._mutations_remaining is not None:
            if root._mutations_remaining <= 0:
                raise BudgetExceeded("mutations", where)
            root._mutations_remaining -= 1

    @contextmanager
    def observe_mutations(self) -> Iterator["Budget"]:
        """Context manager counting every network mutation in this context.

        Registers an ambient mutation observer
        (:func:`~repro.networks.incremental.add_ambient_mutation_observer`)
        so mutations inside pass-internal working clones are seen too --
        but only those of the current thread/context, never a concurrent
        job's.  Nested activations register the observer once.
        """

        def _observer(
            network: IncrementalNetworkMixin,
            old_node: int,
            replacement: int,
            rewired_gates: tuple[int, ...],
        ) -> None:
            self.note_mutation("mutation-observer")

        if self._observer_depth == 0:
            add_ambient_mutation_observer(_observer)
            self._active_observer = _observer
        self._observer_depth += 1
        try:
            yield self
        finally:
            self._observer_depth -= 1
            if self._observer_depth == 0:
                remove_ambient_mutation_observer(self._active_observer)


def simulation_equivalent(
    reference: "Aig | KLutNetwork",
    candidate: "Aig | KLutNetwork",
    num_patterns: int = 256,
    seed: int = 1,
    exhaustive_limit: int = 10,
) -> bool:
    """Word-parallel simulation cross-check between two pipeline networks.

    Exhaustive for networks of up to ``exhaustive_limit`` primary inputs
    (a complete proof there), ``num_patterns`` random patterns
    otherwise.  Kind-generic: either side may be an AIG or a mapped
    k-LUT network.  This is the verification-gated-commit check -- cheap
    enough to run per pass, unlike a full CEC.
    """
    from .simulation.bitwise import po_signatures
    from .simulation.patterns import PatternSet

    if reference.num_pis != candidate.num_pis or reference.num_pos != candidate.num_pos:
        return False
    if reference.num_pis <= exhaustive_limit:
        patterns = PatternSet.exhaustive(reference.num_pis)
    else:
        patterns = PatternSet.random(reference.num_pis, num_patterns, seed)
    return po_signatures(reference, patterns) == po_signatures(candidate, patterns)


class NetworkCheckpoint:
    """Rollback point for one transactional pass over ``network``.

    Takes an eager backup ``clone()`` and journals every mutation and
    choice event fired *by the protected network itself* (per-network
    listeners -- pass-internal working copies are separate objects and
    do not touch the original).  On :meth:`restore`, the cheap path
    returns the original object untouched when the journal is empty and
    the structural fingerprint still matches -- the common case, since
    every pass clones its input internally -- preserving object
    identity, attached listeners and caches; otherwise the backup clone
    is returned.  :meth:`commit` and :meth:`restore` both detach the
    journal listeners.
    """

    def __init__(self, network: "Aig | KLutNetwork") -> None:
        self.network = network
        self.backup = network.clone()
        self.journal: list[tuple[int, int, tuple[int, ...]]] = []
        self._fingerprint = self._take_fingerprint(network)
        self._attached = False

        def _on_mutation(old_node: int, replacement: int, rewired: tuple[int, ...]) -> None:
            self.journal.append((old_node, replacement, rewired))

        def _on_choice(representative: int, members: tuple[int, ...]) -> None:
            self.journal.append((representative, -1, members))

        self._mutation_listener = _on_mutation
        self._choice_listener = _on_choice
        network.add_mutation_listener(_on_mutation)
        network.add_choice_listener(_on_choice)
        self._attached = True

    @staticmethod
    def _take_fingerprint(network: "Aig | KLutNetwork") -> tuple[int, int, int, tuple[object, ...]]:
        return (
            network.num_nodes,
            network.num_pis,
            network.num_gates,
            tuple(network.pos),
        )

    @property
    def pristine(self) -> bool:
        """True while the protected network shows no observed or structural change."""
        return not self.journal and self._take_fingerprint(self.network) == self._fingerprint

    def _detach(self) -> None:
        if self._attached:
            self.network.remove_mutation_listener(self._mutation_listener)
            self.network.remove_choice_listener(self._choice_listener)
            self._attached = False

    def commit(self) -> None:
        """Accept the pass result: drop the journal listeners and the backup."""
        self._detach()

    def restore(self) -> "Aig | KLutNetwork":
        """Roll back: return the last good network.

        Returns the original object when it is still pristine (no
        journaled events, fingerprint unchanged), else the backup clone.
        """
        self._detach()
        if self.pristine:
            return self.network
        return self.backup


class FaultInjector:
    """Deterministic fault injection against the ambient mutation bus.

    Exactly one mode is active per injector:

    * ``raise_at=n`` -- raise :class:`InjectedFault` on the *n*-th
      (1-based) mutation event observed in the current execution
      context, simulating a pass crashing mid-flight after ``n - 1``
      mutations.
    * ``corrupt_at=n`` -- on the *n*-th event, re-deliver a corrupted
      payload (a bogus ``(old_node, replacement, rewired_gates)``
      triple) to the mutating network's own listeners, simulating a
      listener-bus bug that desynchronises attached engines.

    SAT-budget exhaustion needs no injector: pass
    ``Budget(conflicts=<small>)`` to the flow.  ``events_seen`` counts
    all observed events; ``fired`` records whether the trigger was
    reached.  Use as a context manager (:meth:`inject`).
    """

    def __init__(self, raise_at: int | None = None, corrupt_at: int | None = None) -> None:
        if (raise_at is None) == (corrupt_at is None):
            raise ValueError("exactly one of raise_at / corrupt_at must be set")
        if (raise_at is not None and raise_at < 1) or (corrupt_at is not None and corrupt_at < 1):
            raise ValueError("trigger event index is 1-based and must be >= 1")
        self.raise_at = raise_at
        self.corrupt_at = corrupt_at
        self.events_seen = 0
        self.fired = False
        self._reentrant = False

    def _observer(
        self,
        network: IncrementalNetworkMixin,
        old_node: int,
        replacement: int,
        rewired_gates: tuple[int, ...],
    ) -> None:
        if self._reentrant:
            return
        self.events_seen += 1
        if self.raise_at is not None and self.events_seen == self.raise_at:
            self.fired = True
            raise InjectedFault(f"injected fault at mutation event {self.events_seen}")
        if self.corrupt_at is not None and self.events_seen == self.corrupt_at:
            self.fired = True
            bogus_gates = tuple(g + 1 for g in rewired_gates) or (old_node,)
            self._reentrant = True
            try:
                for listener in list(network._mutation_listeners):
                    listener(replacement >> 1 if replacement > 1 else old_node, 1, bogus_gates)
            finally:
                self._reentrant = False

    @contextmanager
    def inject(self) -> Iterator["FaultInjector"]:
        """Activate the injector for the duration of the context."""
        add_ambient_mutation_observer(self._observer)
        try:
            yield self
        finally:
            remove_ambient_mutation_observer(self._observer)
