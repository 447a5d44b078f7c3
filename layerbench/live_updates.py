"""``live-updates``: traffic incidents applied while route queries run.

*Reads*: one thread runs closed-loop ``EngineHost.query`` on fresh trips
(uniform origin and destination, continuous departure, drawn from
``--seed``), so every answer needs the engine.  *Writes*: the main thread
replays one ``ScenarioDriver`` flash incident — set, then cleared — through
a ``TrafficController`` with its default ``AdaptivePolicy``, in whole passes
until ``--seconds`` have passed.  The incident is the same in every run (see
:mod:`updates`), so every pass repeats the same update work.

The cadence is paced by completion: a step's events are ingested, stamped
with the ingest time, only once the previous step is servable.  Each step
thus always completes, and each event's staleness is the time its step took
to become servable beside the reader.  With the run on one CPU (see
``run.py``) a pass takes about 8 s (each 3-edge step ~4 s, against ~1.8 s
idle), so a run lasts at least one pass, and may outlast ``--seconds``.

One operation is one route query answered while the passes run.
``staleness_p50_ms`` is the controller's own ``TrafficStats`` staleness:
event ingest to the first servable answer reflecting it.  A traced run
switches segments only between passes: untraced until a quarter of
``--seconds`` has passed, traced until three quarters, then untraced, each
segment at least one pass long.

Gate: after the final clear, answers must agree with a fresh build over a
shadow graph that tracked the same events, at rel <= 1e-12; the share that
is bit-exact is reported (incremental repair may sit a few ulp off).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any

import numpy as np

from common import (
    DAY_SECONDS,
    DEPLOYMENT,
    SPEC,
    Window,
    digest,
    median,
    percentile,
    quantiles_ms,
    rng_for,
)
from ledger import layer_metrics, serving_counters, setup_metrics, stats_delta
from updates import INCIDENT_DELAY, driver_for, traffic_counters
from workload import Config, Result

ORACLE_QUERIES = 40
ORACLE_REL_TOL = 1e-12
#: A query unsettled after this long counts as failed.
QUERY_TIMEOUT_S = 30.0


def _deploy(cfg: Config) -> tuple[Any, Any]:
    from repro.datasets.catalog import load_dataset
    from repro.serving import EngineHost

    with cfg.span("setup.dataset"):
        graph = load_dataset(cfg.dataset, num_points=cfg.num_points)
    host = EngineHost()
    host.deploy(DEPLOYMENT, SPEC, graph.copy())
    return graph, host


class _Reader:
    """Closed-loop queries on fresh trips until told to stop."""

    def __init__(self, cfg: Config, host: Any, vertices: np.ndarray, window: Window):
        self._cfg = cfg
        self._host = host
        self._vertices = vertices
        self._window = window
        self._stop = threading.Event()
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.trips: list[tuple] = []
        self.started = 0.0
        self.thread = threading.Thread(target=self._run, name="live-reads", daemon=True)

    def _run(self) -> None:
        rng = rng_for(self._cfg.seed, "live-reads")
        while not self._stop.is_set():
            source, target = (int(v) for v in rng.choice(self._vertices, 2))
            departure = float(rng.uniform(0.0, DAY_SECONDS))
            if len(self.trips) < 3:
                self.trips.append((source, target, departure))
            traced = self._window.traced
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                self._host.submit(DEPLOYMENT, source, target, departure).result(
                    timeout=QUERY_TIMEOUT_S
                )
            except Exception as exc:  # counted; the loop keeps its load on
                self.failed += 1
                self.errors.append(repr(exc))
            else:
                self.latencies.append(time.perf_counter() - t0)
            self._window.count(traced)

    def start(self) -> None:
        self.started = time.perf_counter()
        self.thread.start()

    def wait_for(self, samples: int) -> None:
        """Keep reading past the replay until ``samples`` are timed."""
        deadline = time.perf_counter() + QUERY_TIMEOUT_S
        while len(self.latencies) + self.failed < samples and self.thread.is_alive():
            if time.perf_counter() > deadline:
                raise RuntimeError(f"fewer than {samples} queries settled")
            time.sleep(0.01)

    def stop(self) -> None:
        self._stop.set()
        self.thread.join(QUERY_TIMEOUT_S + 10.0)
        if self.thread.is_alive():
            raise RuntimeError("live-updates reader did not stop")


def _segments(cfg: Config) -> list[tuple[bool, float]]:
    """``(traced, until)``: each segment runs passes until ``until`` seconds."""
    if not cfg.trace:
        return [(False, cfg.seconds)]
    return [(False, 0.25 * cfg.seconds), (True, 0.75 * cfg.seconds), (False, cfg.seconds)]


def _replay(
    cfg: Config, host: Any, graph: Any, shadow: Any, window: Window
) -> tuple[Any, list, list, list]:
    """Replay the incident in passes; final stats, events, steps, deltas."""
    from repro.traffic import TrafficController

    driver = driver_for(graph, "live-incidents")
    incident = driver.flash_incident(delay=INCIDENT_DELAY)
    cleared = [dataclasses.replace(event, delay=0.0) for event in incident]
    steps, deltas = [], []
    with TrafficController(host, DEPLOYMENT) as controller:
        started = time.perf_counter()
        for traced, until in _segments(cfg):
            before = host.stats(DEPLOYMENT) if traced else None
            window.switch(traced)
            cfg.set_traced(traced)
            while True:
                for events in (incident, cleared):
                    for update in driver.updates(events):
                        controller.ingest(update)
                        shadow.set_weight(update.source, update.target, update.weight)
                    report = controller.step()
                    steps.append((report.action, report.coalesced_edges, report.seconds))
                if time.perf_counter() - started >= until:
                    break
            if traced:
                deltas.append(stats_delta(before, host.stats(DEPLOYMENT)))
        window.switch(False)
        cfg.set_traced(False)
        events = [(e.source, e.target, e.delay) for e in incident + cleared]
        return controller.stats(), events, steps, deltas


def run(cfg: Config) -> Result:
    from repro.api import create_engine

    setup_s, setup_spans, deployed = [], [], []
    for _ in range(cfg.setup_repeats):
        with cfg.setup_phase():
            started = time.perf_counter()
            deployed.append(_deploy(cfg))
            setup_s.append(time.perf_counter() - started)
        setup_spans.append(cfg.take_spans())
    for _graph, spare in deployed[:-1]:
        spare.close()
    graph, host = deployed[-1]
    deployed.clear()

    try:
        shadow = graph.copy()
        vertices = np.asarray(sorted(graph.vertices()), dtype=np.int64)
        window = Window()
        reader = _Reader(cfg, host, vertices, window)
        reader.start()
        try:
            traffic, events, steps, deltas = _replay(cfg, host, graph, shadow, window)
            reader.wait_for(cfg.min_samples)
        finally:
            reader.stop()
        wall = time.perf_counter() - reader.started
        window.close()

        oracle = create_engine(SPEC, shadow.copy())
        rng = rng_for(cfg.seed, "live-oracle")
        bitexact = mismatched = 0
        max_rel = 0.0
        for _ in range(ORACLE_QUERIES):
            source, target = (int(v) for v in rng.choice(vertices, 2))
            departure = float(rng.uniform(0.0, DAY_SECONDS))
            served = host.query(DEPLOYMENT, source, target, departure)
            expected = oracle.query(source, target, departure).cost
            if served == expected:
                bitexact += 1
                continue
            rel = abs(served - expected) / max(abs(expected), 1e-12)
            max_rel = max(max_rel, rel)
            mismatched += rel > ORACLE_REL_TOL
    finally:
        host.close()

    answered = len(reader.latencies)
    bitexact_ratio = bitexact / ORACLE_QUERIES
    metrics = {
        "throughput_per_s": (answered / wall, "1/s"),
        "latency_p50_ms": (median(reader.latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentile(reader.latencies, 90) * 1e3, "ms"),
        "staleness_p50_ms": (traffic.staleness_p50_s * 1e3, "ms"),
        "setup_s": (median(setup_s), "s"),
    }
    layers = None
    spans = cfg.take_spans()
    if cfg.trace:
        counters = serving_counters(deltas)
        counters.update(traffic_counters(traffic.to_dict()))
        counters["trace.overhead_ratio"] = window.overhead_ratio()
        counters["oracle.bitexact_ratio"] = bitexact_ratio
        layers = layer_metrics(
            spans,
            ops=window.ops[True],
            counters=counters,
            setup=setup_metrics(setup_spans),
        )
    return Result(
        correct=mismatched == 0,
        attempted=reader.attempted,
        failed=reader.failed,
        metrics=metrics,
        layers=layers,
        spans=[s for rep in setup_spans for s in rep] + spans,
        details={
            "latency_samples": answered,
            "latency_profile_ms": quantiles_ms(reader.latencies),
            "wall_s": wall,
            "setup_samples_s": setup_s,
            "passes": len(steps) // 2,
            "steps": steps,
            "actions": dict(traffic.actions),
            "updates_ingested": traffic.updates_ingested,
            "updates_coalesced": traffic.updates_coalesced,
            "staleness_p99_ms": traffic.staleness_p99_s * 1e3,
            "oracle_queries": ORACLE_QUERIES,
            "oracle_bitexact_ratio": bitexact_ratio,
            "oracle_max_rel_err": max_rel,
            "oracle_mismatches": int(mismatched),
            "errors": reader.errors[:5],
            "inputs": digest([events, reader.trips]),
        },
    )
