"""Traffic incident scenarios and the idle update probe.

Every workload reports ``staleness_p50_ms``.  On ``live-updates`` it comes
from incidents replayed while queries run.  ``route-http`` measures it after
its timed window with :data:`PROBE_INCIDENTS` incidents applied one step at
a time to its idle deployment — each set, then cleared — through the
server's ``TrafficController`` with its default policy.

The incident scenarios are fixed: ``ScenarioDriver`` seeds derive from
:data:`SCENARIO_SEED`, not from the run's ``--seed``.  One incident's repair
costs anywhere from tens of milliseconds to seconds depending on where in
the tree its edges sit, and a run has room for only a handful of them, so a
per-seed draw would make staleness measure the draw.  With the scenario
fixed, every run repeats the same update work; ``--seed`` varies the query
traffic around it.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from common import rng_for

#: Seconds of delay a flash incident adds to each of its edges.
INCIDENT_DELAY = 900.0
#: Incidents in the idle probe (each one set and one clear step).
PROBE_INCIDENTS = 2


#: Seed of every incident scenario (see the module docstring).
SCENARIO_SEED = 0


def driver_for(graph: Any, scenario: str) -> Any:
    """The ``ScenarioDriver`` of one named, fixed scenario over ``graph``."""
    from repro.traffic import ScenarioDriver

    seed = int(rng_for(SCENARIO_SEED, scenario).integers(2**31))
    return ScenarioDriver(graph, seed=seed)


def probe_incidents(graph: Any) -> list[list[Any]]:
    """The probe's steps: per incident, its set events then its clears."""
    driver = driver_for(graph, "probe")
    steps = []
    for _ in range(PROBE_INCIDENTS):
        events = driver.flash_incident(delay=INCIDENT_DELAY)
        steps.append(events)
        steps.append([dataclasses.replace(e, delay=0.0) for e in events])
    return steps


def traffic_counters(stats: dict[str, Any]) -> dict[str, float]:
    """The ``traffic.*`` counter metrics of a ``TrafficStats.to_dict()``."""
    actions = stats["actions"]
    ingested = stats["updates_ingested"]
    coalesced = stats["updates_coalesced"]
    return {
        "traffic.actions.patch": float(actions.get("patch", 0)),
        "traffic.actions.clone_swap": float(actions.get("clone_swap", 0)),
        "traffic.actions.rebuild": float(actions.get("rebuild", 0)),
        "traffic.coalesced_ratio": coalesced / ingested if ingested else 0.0,
    }
