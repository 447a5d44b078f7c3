"""The live-traffic control loop: stream in, repaired index out.

:class:`TrafficController` turns the host's update primitive into a loop:
edge-weight events arrive on an :class:`~repro.traffic.UpdateStream`, and
each control step coalesces them per edge (latest weight wins), hands the
batch to :meth:`EngineHost.apply_updates` in one call, and records how
stale the served answers were — **never on the query path**.  The host
clones the live index in memory, repairs the clone and swaps it in, so
queries keep flowing against the old engine until the atomic flip.

Staleness — seconds from ``event_at`` to the moment a servable answer
reflects the event — is the loop's first-class health signal: every applied
event lands in the ``repro_traffic_staleness_seconds`` histogram, every
step in ``repro_traffic_actions_total``, and every step emits a
``traffic.action`` event.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Deque, Iterable, Mapping, Optional

from repro.exceptions import TrafficControlError, UnsupportedCapabilityError
from repro.functions.piecewise import PiecewiseLinearFunction
from repro.obs import (
    EVENT_TRAFFIC_ACTION,
    EVENT_TRAFFIC_INGEST,
    Observability,
    get_observability,
)
from repro.traffic.stream import EdgeUpdate, UpdateStream
from repro.utils.timing import Clock

__all__ = [
    "ACTION_CLONE_SWAP",
    "TrafficController",
    "ControlReport",
    "TrafficStats",
    "STALENESS_BUCKETS_S",
]

#: The one maintenance action a step executes: clone the live index, repair
#: the clone, swap it in.
ACTION_CLONE_SWAP = "clone_swap"

#: Seconds-scale histogram bounds for event-to-servable staleness (the
#: latency buckets are ms-scale; staleness spans control-loop intervals).
STALENESS_BUCKETS_S = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
)


@dataclass(frozen=True)
class ControlReport:
    """What one :meth:`TrafficController.step` did, and what it cost."""

    deployment: str
    #: The executed action: always :data:`ACTION_CLONE_SWAP`.
    action: str
    #: Raw events applied this step (pre-coalescing).
    raw_updates: int
    #: Distinct edges repaired after per-edge coalescing.
    coalesced_edges: int
    #: Wall seconds the clone, repair and swap took.
    seconds: float
    #: Median / max event-to-servable staleness across this step's events.
    staleness_p50_s: float
    staleness_max_s: float
    #: The repair's UpdateReport, as :meth:`EngineHost.apply_updates` returns it.
    update_report: Any = None


@dataclass(frozen=True)
class TrafficStats:
    """Point-in-time summary of a controller's behaviour."""

    deployment: str
    #: Lifetime raw events absorbed into batches.
    updates_ingested: int
    #: Lifetime events superseded by a newer event for the same edge.
    updates_coalesced: int
    #: Control steps that applied a batch (empty steps don't count).
    steps: int
    #: Executed actions by name (every step is a ``clone_swap``).
    actions: Mapping[str, int]
    #: Distinct edges waiting in the current batch.
    pending_edges: int
    #: Staleness percentiles over the recent sample window, seconds.
    staleness_p50_s: float
    staleness_p99_s: float
    staleness_max_s: float
    #: Action of the most recent non-empty step (empty string before one).
    last_action: str = ""

    def to_dict(self) -> dict[str, object]:
        """A JSON-serialisable snapshot (the gateway's ingest response)."""
        return {
            "deployment": self.deployment,
            "updates_ingested": self.updates_ingested,
            "updates_coalesced": self.updates_coalesced,
            "steps": self.steps,
            "actions": dict(self.actions),
            "pending_edges": self.pending_edges,
            "staleness_p50_s": self.staleness_p50_s,
            "staleness_p99_s": self.staleness_p99_s,
            "staleness_max_s": self.staleness_max_s,
            "last_action": self.last_action,
        }


def _percentile(samples: list[float], q: float) -> float:
    """Exact nearest-rank percentile of a non-empty sorted sample list."""
    if not samples:
        return 0.0
    rank = min(len(samples) - 1, max(0, int(round(q * (len(samples) - 1)))))
    return samples[rank]


class TrafficController:
    """Drives one deployment's index maintenance from a live update stream.

    Parameters
    ----------
    host:
        The :class:`~repro.serving.EngineHost` owning the deployment.
    deployment:
        Name of the deployment to maintain.
    stream:
        The ingestion buffer; a fresh :class:`~repro.traffic.UpdateStream`
        is created when omitted.
    obs / clock:
        Telemetry bundle and time source (inject fakes in tests).
    staleness_window:
        Recent staleness samples kept for exact percentile reporting.

    Raises
    ------
    UnsupportedCapabilityError
        When the deployment's engine holds no index to repair (e.g.
        ``td-dijkstra``).  A replica pool qualifies: it is repaired through
        a clone of its snapshot.
    """

    def __init__(
        self,
        host: Any,
        deployment: str,
        *,
        stream: Optional[UpdateStream] = None,
        obs: Optional[Observability] = None,
        clock: Optional[Clock] = None,
        staleness_window: int = 4096,
    ) -> None:
        self._host = host
        self._deployment = deployment
        self._obs = obs if obs is not None else getattr(
            host, "obs", None
        ) or get_observability()
        self._clock: Clock = clock if clock is not None else self._obs.clock
        self._stream = (
            stream if stream is not None else UpdateStream(clock=self._clock)
        )
        info = host.deployment(deployment)  # validates the name eagerly
        if not info.replicas and not info.engine.capabilities().update:
            raise UnsupportedCapabilityError(str(info.spec), "update")

        # Control-loop state, all mutated under the step lock.
        self._step_lock = threading.Lock()
        self._pending: dict[tuple[int, int], EdgeUpdate] = {}
        self._pending_event_times: list[float] = []
        self._baseline: dict[tuple[int, int], PiecewiseLinearFunction] = {}

        # Counters behind the stats lock (stats() may race the loop).
        self._stats_lock = threading.Lock()
        self._ingested = 0
        self._coalesced = 0
        self._steps = 0
        self._staleness: Deque[float] = deque(maxlen=staleness_window)
        self._staleness_max = 0.0

        # Background loop state.
        self._loop_thread: Optional[threading.Thread] = None
        self._loop_stop = threading.Event()
        self._closed = False

        if self._obs.enabled:
            registry = self._obs.registry
            self._m_staleness = registry.histogram(
                "repro_traffic_staleness_seconds",
                "Event-ingest to servable-answer staleness, seconds.",
                ("deployment",),
                buckets=STALENESS_BUCKETS_S,
            )
            self._m_actions = registry.counter(
                "repro_traffic_actions_total",
                "Maintenance actions executed by the traffic controller.",
                ("deployment", "action"),
            )
            self._m_updates = registry.counter(
                "repro_traffic_updates_total",
                "Raw edge-weight events absorbed into control batches.",
                ("deployment",),
            )
            self._m_coalesced = registry.counter(
                "repro_traffic_coalesced_total",
                "Events superseded by a newer event for the same edge.",
                ("deployment",),
            )
            self._m_backlog = registry.gauge(
                "repro_traffic_backlog_edges",
                "Distinct edges waiting in the controller's pending batch.",
                ("deployment",),
            )
        else:
            self._m_staleness = None
            self._m_actions = None
            self._m_updates = None
            self._m_coalesced = None
            self._m_backlog = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    @property
    def stream(self) -> UpdateStream:
        """The ingestion buffer producers push into."""
        return self._stream

    @property
    def deployment(self) -> str:
        return self._deployment

    def ingest(self, update: EdgeUpdate) -> None:
        """Push one prepared event (thread-safe; applied on the next step)."""
        self._stream.push(update)

    def ingest_many(self, updates: Iterable[EdgeUpdate]) -> int:
        """Push a batch of prepared events; returns how many."""
        return self._stream.extend(updates)

    def emit_delay(
        self,
        source: int,
        target: int,
        delay_seconds: float,
        *,
        event_at: Optional[float] = None,
    ) -> EdgeUpdate:
        """Push "edge gained ``delay_seconds`` of travel time" as an event.

        The delay is relative to the edge's **baseline** weight — captured
        the first time this controller touches the edge — so repeated emits
        do not compound and ``delay_seconds=0.0`` restores the baseline
        exactly (how incidents clear).  Shifting preserves FIFO, unlike
        scaling.  Requires graph access on the live engine (in-process
        deployments; replica pools must ship explicit weight functions).
        """
        graph = self._live_graph()
        if graph is None:
            raise TrafficControlError(
                f"deployment {self._deployment!r} exposes no graph; "
                "build the new weight function explicitly and use ingest()"
            )
        key = (int(source), int(target))
        with self._step_lock:
            baseline = self._baseline.get(key)
            if baseline is None:
                baseline = graph.weight(key[0], key[1])  # raises EdgeNotFoundError
                self._baseline[key] = baseline
        weight = baseline.shift(delay_seconds) if delay_seconds else baseline
        return self._stream.emit(key[0], key[1], weight, event_at=event_at)

    @property
    def pending_edges(self) -> int:
        """Distinct edges waiting (absorbed batch; excludes the stream)."""
        with self._step_lock:
            return len(self._pending)

    # ------------------------------------------------------------------
    # The control step
    # ------------------------------------------------------------------
    def step(self) -> Optional[ControlReport]:
        """Drain, coalesce, apply.  Returns None when there was nothing.

        Serialized against itself (background loop and manual calls may
        interleave); never called on the query path.  On failure the batch
        is retained for the next step and the error propagates.
        """
        with self._step_lock:
            if self._closed:
                raise TrafficControlError("this TrafficController has been closed")
            self._absorb_locked()
            if not self._pending:
                return None
            changes = {edge: update.weight for edge, update in self._pending.items()}
            started = self._clock.monotonic()
            update_report = self._host.apply_updates(self._deployment, changes)
            now = self._clock.monotonic()
            staleness = sorted(now - at for at in self._pending_event_times)
            report = ControlReport(
                deployment=self._deployment,
                action=ACTION_CLONE_SWAP,
                raw_updates=len(self._pending_event_times),
                coalesced_edges=len(self._pending),
                seconds=now - started,
                staleness_p50_s=_percentile(staleness, 0.50),
                staleness_max_s=staleness[-1] if staleness else 0.0,
                update_report=update_report,
            )
            self._pending.clear()
            self._pending_event_times = []
        self._record_step(report, staleness)
        return report

    def _absorb_locked(self) -> None:
        """Fold drained stream events into the per-edge pending batch."""
        drained = self._stream.drain()
        if not drained:
            return
        superseded = 0
        for update in drained:
            previous = self._pending.get(update.edge)
            if previous is not None and previous.event_at > update.event_at:
                # Out-of-order delivery: the buffered event is newer; the
                # drained one is the superseded one.
                superseded += 1
                self._pending_event_times.append(update.event_at)
                continue
            if previous is not None:
                superseded += 1
            self._pending[update.edge] = update
            self._pending_event_times.append(update.event_at)
        with self._stats_lock:
            self._ingested += len(drained)
            self._coalesced += superseded
        if self._m_updates is not None:
            self._m_updates.inc(float(len(drained)), deployment=self._deployment)
        if superseded and self._m_coalesced is not None:
            self._m_coalesced.inc(float(superseded), deployment=self._deployment)
        if self._m_backlog is not None:
            self._m_backlog.set(float(len(self._pending)), deployment=self._deployment)
        if self._obs.enabled:
            self._obs.events.emit(
                EVENT_TRAFFIC_INGEST,
                self._deployment,
                updates=len(drained),
                pending_edges=len(self._pending),
            )

    def _live_graph(self) -> Any:
        engine = self._host.deployment(self._deployment).engine
        return getattr(engine, "graph", None)

    def _record_step(self, report: ControlReport, staleness: list[float]) -> None:
        with self._stats_lock:
            self._steps += 1
            self._staleness.extend(staleness)
            if staleness:
                self._staleness_max = max(self._staleness_max, staleness[-1])
        if self._m_actions is not None:
            self._m_actions.inc(
                1.0, deployment=self._deployment, action=report.action
            )
        if self._m_staleness is not None:
            child = self._m_staleness.labels(deployment=self._deployment)
            child.observe_many(staleness)
        if self._m_backlog is not None:
            self._m_backlog.set(0.0, deployment=self._deployment)
        if self._obs.enabled:
            self._obs.events.emit(
                EVENT_TRAFFIC_ACTION,
                self._deployment,
                action=report.action,
                raw_updates=report.raw_updates,
                coalesced_edges=report.coalesced_edges,
                seconds=report.seconds,
                staleness_p50=report.staleness_p50_s,
            )

    # ------------------------------------------------------------------
    # Background loop
    # ------------------------------------------------------------------
    def start(self, interval_seconds: float = 0.25) -> None:
        """Run :meth:`step` on a daemon thread every ``interval_seconds``."""
        if interval_seconds <= 0.0:
            raise ValueError("interval_seconds must be positive")
        with self._step_lock:
            if self._closed:
                raise TrafficControlError("this TrafficController has been closed")
        if self._loop_thread is not None and self._loop_thread.is_alive():
            return
        self._loop_stop.clear()

        def _loop() -> None:
            while not self._loop_stop.wait(interval_seconds):
                try:
                    self.step()
                except TrafficControlError:
                    return  # closed under us
                except Exception:
                    # The batch is retained; the next tick retries.  A
                    # persistently failing action surfaces through the
                    # host's supervision and the caller's manual step().
                    continue

        self._loop_thread = threading.Thread(
            target=_loop, name=f"traffic-{self._deployment}", daemon=True
        )
        self._loop_thread.start()

    def stop(self) -> None:
        """Stop the background loop (pending events stay drainable)."""
        self._loop_stop.set()
        thread = self._loop_thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._loop_thread = None

    def close(self) -> None:
        """Stop the loop and close the stream."""
        self.stop()
        self._stream.close()
        with self._step_lock:
            self._closed = True

    def __enter__(self) -> "TrafficController":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> TrafficStats:
        with self._step_lock:
            pending = len(self._pending) or self._stream.pending
        with self._stats_lock:
            samples = sorted(self._staleness)
            return TrafficStats(
                deployment=self._deployment,
                updates_ingested=self._ingested,
                updates_coalesced=self._coalesced,
                steps=self._steps,
                actions=MappingProxyType({ACTION_CLONE_SWAP: self._steps}),
                pending_edges=pending,
                staleness_p50_s=_percentile(samples, 0.50),
                staleness_p99_s=_percentile(samples, 0.99),
                staleness_max_s=self._staleness_max,
                last_action=ACTION_CLONE_SWAP if self._steps else "",
            )

    def __repr__(self) -> str:
        return (
            f"TrafficController(deployment={self._deployment!r}, "
            f"pending={self.pending_edges})"
        )
