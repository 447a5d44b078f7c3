"""Live-traffic control loop: streaming edge updates, one repair path.

The layer that turns a static index server into a live system.  Edge-weight
events stream into an :class:`UpdateStream`; a :class:`TrafficController`
coalesces them per edge and applies each batch through
:meth:`~repro.serving.EngineHost.apply_updates`, which clones the live
index, repairs the clone and swaps it in without ever blocking the query
path.  Staleness (seconds from event to servable answer) is the loop's
first-class metric: ``repro_traffic_staleness_seconds``, the
``repro_traffic_actions_total`` step counter, and ``traffic.*`` events.
:class:`ScenarioDriver` generates seeded rush-hour waves, rolling closures,
and flash incidents for tests and ``benchmarks/bench_traffic.py``.

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
    ACTION_CLONE_SWAP,
    STALENESS_BUCKETS_S,
    ControlReport,
    TrafficController,
    TrafficStats,
)
from repro.traffic.scenarios import ScenarioDriver, ScenarioEvent
from repro.traffic.stream import EdgeUpdate, UpdateStream

__all__ = [
    # control loop
    "TrafficController",
    "ControlReport",
    "TrafficStats",
    "ACTION_CLONE_SWAP",
    "STALENESS_BUCKETS_S",
    # stream
    "EdgeUpdate",
    "UpdateStream",
    # scenarios
    "ScenarioDriver",
    "ScenarioEvent",
]
