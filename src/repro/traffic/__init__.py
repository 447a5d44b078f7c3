"""Live-traffic control loop: streaming updates, patch-vs-swap policy.

The layer that turns a static index server into a live system.  Edge-weight
events stream into an :class:`UpdateStream`; a :class:`TrafficController`
coalesces them per edge, asks an :class:`UpdatePolicy` whether to patch the
live index in place, patch an in-memory clone and hot-swap it, or rebuild in
the background — and executes the choice through
:class:`~repro.serving.EngineHost` without ever blocking the query path.
Staleness (seconds from event to servable answer) is the loop's first-class
metric: ``repro_traffic_staleness_seconds``, per-action counters, and
``traffic.*`` events.  :class:`ScenarioDriver` generates seeded rush-hour
waves, rolling closures, and flash incidents for tests and
``benchmarks/bench_traffic.py``.

Quick start::

    controller = TrafficController(host, "prod")
    controller.start(interval_seconds=0.25)       # background control loop
    controller.emit_delay(3, 17, 600.0)           # incident: +10 min
    ...
    controller.emit_delay(3, 17, 0.0)             # incident clears
    controller.stats().staleness_p99_s
"""

from __future__ import annotations

from repro.traffic.controller import (
    STALENESS_BUCKETS_S,
    ControlReport,
    TrafficController,
    TrafficStats,
)
from repro.traffic.estimate import estimate_dirty_vertices
from repro.traffic.policy import (
    ACTION_CLONE_SWAP,
    ACTION_PATCH,
    ACTION_REBUILD,
    ACTIONS,
    AdaptivePolicy,
    CostModel,
    FixedPolicy,
    PolicyDecision,
    PolicyObservation,
    UpdatePolicy,
)
from repro.traffic.scenarios import ScenarioDriver, ScenarioEvent
from repro.traffic.stream import EdgeUpdate, UpdateStream

__all__ = [
    # control loop
    "TrafficController",
    "ControlReport",
    "TrafficStats",
    "STALENESS_BUCKETS_S",
    # stream
    "EdgeUpdate",
    "UpdateStream",
    # policy
    "ACTION_PATCH",
    "ACTION_CLONE_SWAP",
    "ACTION_REBUILD",
    "ACTIONS",
    "UpdatePolicy",
    "AdaptivePolicy",
    "FixedPolicy",
    "PolicyObservation",
    "PolicyDecision",
    "CostModel",
    # estimation
    "estimate_dirty_vertices",
    # scenarios
    "ScenarioDriver",
    "ScenarioEvent",
]
