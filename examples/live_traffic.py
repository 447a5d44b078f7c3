#!/usr/bin/env python
"""Live traffic: stream incidents through the control loop, watch staleness.

Edge-weight events stream into a :class:`TrafficController`; each control
step coalesces them per edge (latest wins) and applies the batch through
``EngineHost.apply_updates``, the one update path: clone the live index in
memory, repair the clone, swap it in.  Queries keep flowing against the old
engine until the atomic flip, and never see a half-updated index.

Staleness — seconds from the event to a servable answer that reflects it —
is the loop's first-class health metric, published per deployment as the
``repro_traffic_staleness_seconds`` histogram.

Run it with::

    python examples/live_traffic.py
"""

from __future__ import annotations

import threading
import time

from repro import create_engine
from repro.datasets import load_dataset
from repro.exceptions import AdmissionRejectedError
from repro.serving import EngineHost, SupervisionConfig, retry_submit
from repro.traffic import ScenarioDriver, TrafficController
from repro.utils.timing import SYSTEM_CLOCK

#: Exact build spec: no lossy simplification, so post-update answers match a
#: fresh rebuild bit for bit (up to float summation order).
SPEC = "td-h2h?max_points=none"


def main() -> None:
    graph = load_dataset("CAL", num_points=3)
    host = EngineHost(
        max_batch_size=128,
        max_pending=4096,
        admission_policy="shed",
        default_deadline_ms=2_000.0,
        supervision=SupervisionConfig(),
    )
    host.deploy("prod", SPEC, graph.copy())

    # A commuter keeps querying throughout — the control loop must never
    # block or break the serving path.  Any exception fails the run: this
    # script doubles as the CI gate for that property.  The commuter pauses
    # a millisecond between queries: answered from the result cache, an
    # unpaced loop would hold the interpreter lock and starve the control
    # loop, and the printed staleness would measure that, not the repair.
    source, target = 2, graph.num_vertices - 3
    departure = 8.5 * 3600.0
    served = 0
    stop = threading.Event()
    commuter_errors: list[BaseException] = []

    def commuter() -> None:
        nonlocal served
        try:
            while not stop.wait(0.001):
                retry_submit(
                    lambda: host.query("prod", source, target, departure),
                    retry_on=(AdmissionRejectedError,),
                )
                served += 1
        except BaseException as exc:
            commuter_errors.append(exc)

    hammer = threading.Thread(target=commuter)
    hammer.start()

    print(f"before any incident: {host.query('prod', source, target, departure) / 60:.1f} min")

    driver = ScenarioDriver(graph, seed=11)
    shadow = graph.copy()  # tracks every update; the oracle builds from it
    controller = TrafficController(host, "prod")
    with controller:
        controller.start(interval_seconds=0.05)  # control steps off the query path

        # Morning timeline: a flash incident at one site, then network-wide
        # rush-hour waves that finally clear.  Events stream in per
        # timestamp; the background loop coalesces and applies them.
        timeline = driver.flash_incident(edges=2, delay=900.0, clear_after=5.0)
        timeline += driver.rush_hour(waves=2, edges_per_wave=8, peak_delay=600.0)
        by_time: dict[float, list] = {}
        for event in timeline:
            by_time.setdefault(event.at, []).append(event)
        for at in sorted(by_time):
            # The timeline replays without pacing: stamp each chunk as it
            # arrives, so staleness runs from ingest, not from a future
            # event time.
            origin = SYSTEM_CLOCK.monotonic() - at
            for update in driver.updates(by_time[at], origin=origin):
                controller.ingest(update)
                shadow.set_weight(update.source, update.target, update.weight)
            # Wait for the loop to drain this chunk before the next lands,
            # so each timeline step is one control step.
            while controller.pending_edges or controller.stream.pending:
                time.sleep(0.01)

        controller.stop()
        stats = controller.stats()

    stop.set()
    hammer.join()
    if commuter_errors:
        raise commuter_errors[0]

    print(
        f"{stats.updates_ingested} events over {stats.steps} clone-repair-swap "
        f"steps ({stats.updates_coalesced} coalesced away)"
    )
    print(
        f"staleness (event → servable answer): p50 {stats.staleness_p50_s * 1000:.0f} ms, "
        f"p99 {stats.staleness_p99_s * 1000:.0f} ms, max {stats.staleness_max_s * 1000:.0f} ms"
    )
    print(f"the commuter was served {served} times and saw zero errors")

    # The strongest check available: a fresh engine over the shadow graph.
    oracle = create_engine(SPEC, shadow.copy())
    after = host.query("prod", source, target, departure)
    assert after == oracle.query(source, target, departure).cost
    print(f"after the morning: {after / 60:.1f} min (matches a fresh rebuild exactly)")

    host_stats = host.stats("prod")
    print(
        f"deployment stats: {host_stats.queries_answered} answered, "
        f"p95 {host_stats.p95_latency_ms:.2f} ms, {host_stats.shed} shed, "
        f"{host_stats.worker_restarts} worker restarts, "
        f"health {host.health('prod').state.value}"
    )
    host.close()


if __name__ == "__main__":
    main()
