"""Deterministic fault injection for the serving layer.

:class:`FaultyEngine` wraps any :class:`repro.api.Engine` and injects
failures into its ``batch_query`` path on a fixed, seeded schedule
(:class:`FaultPlan`): latency spikes every Nth batch, one transient
exception, one hard crash, or a persistent poisoning.  Deterministic by
construction — the same plan over the same traffic produces the same
failures — so chaos tests and ``bench_serving.py --chaos`` are exactly
reproducible.

The wrapper is a first-class registry engine::

    create_engine("faulty:td-appro?crash_batch=3&budget_fraction=0.4", graph)

builds the inner ``td-appro`` engine (all non-fault options are forwarded to
its factory) and wraps it.  Any deployment — a test, a bench, a staging
host — injects failures through the normal engine path, no special casing in
the serving layer.

Two error types model the two failure classes the micro-batching service
distinguishes (see ``QueryService._run_batch``):

* :class:`TransientInjectedFaultError` is a :class:`~repro.exceptions.ReproError`
  — the service treats it like a bad query, degrades the batch to per-query
  calls, and still answers everything (a *graceful* failure);
* :class:`InjectedFaultError` is **not** a ``ReproError`` — it models an
  engine crash, fails the whole batch, and is what the supervisor's
  consecutive-failure detection reacts to.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.exceptions import ReproError
from repro.obs import EVENT_FAULT, EventLog
from repro.serving.admission import _jitter_fraction

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.api.types import EngineCapabilities, QueryOptions, Route, RouteMatrix, RouteProfile
    from repro.functions.piecewise import PiecewiseLinearFunction
    from repro.graph.td_graph import TDGraph
    from repro.utils.memory import MemoryBreakdown

__all__ = [
    "FaultPlan",
    "FaultyEngine",
    "InjectedFaultError",
    "TransientInjectedFaultError",
]


class InjectedFaultError(RuntimeError):
    """A hard injected crash.

    Deliberately **not** a :class:`~repro.exceptions.ReproError`: the serving
    layer treats unknown exceptions from ``batch_query`` as engine crashes
    (the whole batch fails), which is exactly what this simulates.
    """

    def __init__(self, batch_number: int, kind: str = "crash"):
        super().__init__(
            f"injected {kind} on batch_query call #{batch_number} "
            "(deterministic fault plan)"
        )
        self.batch_number = batch_number
        self.kind = kind


class TransientInjectedFaultError(ReproError, InjectedFaultError):
    """A transient injected failure the service degrades around.

    Being a :class:`~repro.exceptions.ReproError`, the micro-batching service
    falls back to per-query calls for the affected batch and still delivers
    every answer — the graceful half of the fault model.
    """

    def __init__(self, batch_number: int):
        InjectedFaultError.__init__(self, batch_number, kind="transient fault")


@dataclass(frozen=True)
class FaultPlan:
    """When :class:`FaultyEngine` misbehaves (all triggers are 1-based).

    The default plan injects nothing — a ``FaultyEngine`` with a zero plan is
    behaviourally transparent (the contract suite runs it as a normal
    engine).
    """

    #: This ``batch_query`` call raises :class:`TransientInjectedFaultError`
    #: (0 = never).  The service degrades to per-query calls and recovers.
    fail_batch: int = 0
    #: This ``batch_query`` call raises :class:`InjectedFaultError` once
    #: (0 = never).  The whole batch fails; later calls succeed.
    crash_batch: int = 0
    #: Every ``batch_query`` call from this one on raises
    #: :class:`InjectedFaultError` (0 = never).  Models a poisoned engine a
    #: restart cannot fix — recovery needs a snapshot or a fallback.
    poison_from: int = 0
    #: Every Nth ``batch_query`` call sleeps before answering (0 = never).
    latency_every: int = 0
    #: Base injected latency; jittered deterministically in [0.5x, 1.0x).
    latency_ms: float = 0.0
    #: Seed for the latency jitter (and nothing else).
    seed: int = 0

    def __post_init__(self) -> None:
        for field_name in ("fail_batch", "crash_batch", "poison_from", "latency_every"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0 (0 disables it)")
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be >= 0")


class FaultyEngine:
    """An engine wrapper that fails on schedule (see :class:`FaultPlan`).

    Scalar ``query`` / ``profile`` / ``update_edges`` pass straight through —
    faults target ``batch_query`` only, so the exact reference the chaos
    suite compares recovered answers against (the engine's scalar ``query``)
    is always available.  Results are re-tagged with this engine's name so
    provenance shows the traffic went through the fault layer.

    Beyond the engine protocol only ``index`` and the invalidation-hook
    methods are delegated (the serving layer's snapshot and cache wiring);
    reach anything else through :attr:`inner`.
    """

    def __init__(
        self, inner: Any, plan: FaultPlan | None = None, *, name: str = "faulty"
    ) -> None:
        #: The wrapped engine; reach through for un-faulted access.
        self.inner = inner
        self.name = name
        self.graph: "TDGraph" = inner.graph
        self.plan = plan or FaultPlan()
        self._calls = 0
        self._calls_lock = threading.Lock()
        self._events: EventLog | None = None

    def attach_event_log(self, events: "EventLog | None") -> None:
        """Record every injected fault into ``events`` (``fault.injected``).

        An :class:`~repro.serving.EngineHost` attaches its bundle's event log
        when a faulty engine is deployed, so chaos runs leave the injected
        faults and the recoveries they triggered in the *same* timeline.
        """
        self._events = events

    def _record_fault(self, kind: str, call: int) -> None:
        events = self._events
        if events is not None:
            events.emit(EVENT_FAULT, self.name, fault=kind, batch=call)

    # -- protocol ------------------------------------------------------
    def capabilities(self) -> "EngineCapabilities":
        return self.inner.capabilities()

    def query(
        self,
        source: int,
        target: int,
        departure: float,
        *,
        options: "QueryOptions | None" = None,
    ) -> "Route":
        route = self.inner.query(source, target, departure, options=options)
        route.engine = self.name
        return route

    def profile(self, source: int, target: int) -> "RouteProfile":
        profile = self.inner.profile(source, target)
        profile.engine = self.name
        return profile

    def batch_query(
        self,
        sources: "np.ndarray",
        targets: "np.ndarray",
        departures: "np.ndarray",
        *,
        options: "QueryOptions | None" = None,
    ) -> "RouteMatrix":
        with self._calls_lock:
            self._calls += 1
            call = self._calls
        plan = self.plan
        if plan.latency_every and call % plan.latency_every == 0 and plan.latency_ms > 0:
            jitter = 0.5 + 0.5 * _jitter_fraction(plan.seed, call)
            self._record_fault("latency", call)
            time.sleep(plan.latency_ms * jitter / 1000.0)
        if plan.poison_from and call >= plan.poison_from:
            self._record_fault("poison", call)
            raise InjectedFaultError(call, kind="poisoned-engine crash")
        if plan.crash_batch and call == plan.crash_batch:
            self._record_fault("crash", call)
            raise InjectedFaultError(call)
        if plan.fail_batch and call == plan.fail_batch:
            self._record_fault("transient", call)
            raise TransientInjectedFaultError(call)
        matrix = self.inner.batch_query(sources, targets, departures, options=options)
        matrix.engine = self.name
        return matrix

    def update_edges(
        self, changes: Mapping[tuple[int, int], "PiecewiseLinearFunction"]
    ) -> Any:
        return self.inner.update_edges(changes)

    def memory_breakdown(self) -> "MemoryBreakdown":
        return self.inner.memory_breakdown()

    # -- serving wiring ------------------------------------------------
    @property
    def index(self) -> Any:
        """The wrapped engine's index (what snapshots and the traffic
        controller read); raises :class:`AttributeError` if it has none."""
        return self.inner.index

    def register_invalidation_hook(self, hook: Callable[[], None]) -> None:
        """Register ``hook`` on the wrapped engine if it supports hooks, so
        a service's cache wiring works through the fault layer."""
        register = getattr(self.inner, "register_invalidation_hook", None)
        if register is not None:
            register(hook)

    def unregister_invalidation_hook(self, hook: Callable[[], None]) -> None:
        unregister = getattr(self.inner, "unregister_invalidation_hook", None)
        if unregister is not None:
            unregister(hook)

    # -- introspection -------------------------------------------------
    @property
    def batch_calls(self) -> int:
        """How many ``batch_query`` calls the wrapper has seen."""
        with self._calls_lock:
            return self._calls

    def __repr__(self) -> str:
        return f"FaultyEngine(inner={self.inner!r}, plan={self.plan!r})"
