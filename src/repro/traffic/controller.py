"""The live-traffic control loop: stream in, policy decision, index out.

:class:`TrafficController` closes the loop the PR 5–9 primitives left open:
edge-weight events arrive on an :class:`~repro.traffic.UpdateStream`, each
control step coalesces them per edge (latest weight wins), asks the
:class:`~repro.traffic.UpdatePolicy` which maintenance action fits the
observed state, and executes it through the
:class:`~repro.serving.EngineHost` — **never on the query path**:

* ``patch`` → :meth:`EngineHost.apply_updates` (in-place incremental
  repair, serialized against swaps by the deployment's swap lock);
* ``clone_swap`` → :meth:`EngineHost.clone` (an in-memory copy) → patch
  the clone → :meth:`EngineHost.swap` (queries keep flowing against the old
  engine until the atomic flip; nothing is written to disk);
* ``rebuild`` → copy + patch the graph → :meth:`EngineHost.swap` with a
  build spec (the old engine serves throughout the build).

Staleness — seconds from ``event_at`` to the moment a servable answer
reflects the event — is the loop's first-class health signal: every applied
event lands in the ``repro_traffic_staleness_seconds`` histogram, every
action in ``repro_traffic_actions_total``, and every step emits a
``traffic.action`` event.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Deque, Iterable, Mapping, Optional

from repro.exceptions import TrafficControlError
from repro.functions.piecewise import PiecewiseLinearFunction
from repro.obs import (
    EVENT_TRAFFIC_ACTION,
    EVENT_TRAFFIC_INGEST,
    Observability,
    get_observability,
)
from repro.traffic.estimate import estimate_dirty_vertices
from repro.traffic.policy import (
    ACTION_CLONE_SWAP,
    ACTION_PATCH,
    ACTION_REBUILD,
    ACTIONS,
    AdaptivePolicy,
    CostModel,
    PolicyDecision,
    PolicyObservation,
    UpdatePolicy,
)
from repro.traffic.stream import EdgeUpdate, UpdateStream
from repro.utils.timing import Clock

__all__ = [
    "TrafficController",
    "ControlReport",
    "TrafficStats",
    "STALENESS_BUCKETS_S",
]

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
    #: The executed action — one of :data:`repro.traffic.ACTIONS`.
    action: str
    #: The policy's stated reason (plus any capability downgrade note).
    reason: str
    #: Raw events applied this step (pre-coalescing).
    raw_updates: int
    #: Distinct edges patched after per-edge coalescing.
    coalesced_edges: int
    #: Structural dirty-vertex upper bound the decision was based on.
    dirty_estimate: int
    #: Observed qps at decision time.
    qps: float
    #: Wall seconds the action took (what feeds the cost EWMA).
    seconds: float
    #: Median / max event-to-servable staleness across this step's events.
    staleness_p50_s: float
    staleness_max_s: float
    #: The engine's UpdateReport for ``patch`` / ``clone_swap`` steps.
    update_report: Any = None
    #: The host's SwapReport for ``clone_swap`` / ``rebuild`` steps.
    swap_report: Any = None


@dataclass(frozen=True)
class TrafficStats:
    """Point-in-time summary of a controller's behaviour."""

    deployment: str
    #: Lifetime raw events absorbed into batches.
    updates_ingested: int
    #: Lifetime events superseded by a newer event for the same edge.
    updates_coalesced: int
    #: Control steps that executed an action (empty steps don't count).
    steps: int
    #: Executed actions by name.
    actions: Mapping[str, int]
    #: Distinct edges waiting in the current batch.
    pending_edges: int
    #: Staleness percentiles over the recent sample window, seconds.
    staleness_p50_s: float
    staleness_p99_s: float
    staleness_max_s: float
    #: Measured per-action cost EWMAs, seconds.
    cost_ewma: Mapping[str, float]
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
            "cost_ewma": dict(self.cost_ewma),
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
    policy:
        The :class:`~repro.traffic.UpdatePolicy`; defaults to
        :class:`~repro.traffic.AdaptivePolicy` with its documented
        thresholds.
    stream:
        The ingestion buffer; a fresh :class:`~repro.traffic.UpdateStream`
        is created when omitted.
    rebuild_spec:
        Registry spec used for ``rebuild`` actions.  Defaults to the
        deployment's spec at construction time when that is buildable; for
        ``snapshot:``/``faulty:`` deployments pass one explicitly or the
        controller downgrades rebuild decisions to ``clone_swap``.
    obs / clock:
        Telemetry bundle and time source (inject fakes in tests).
    staleness_window:
        Recent staleness samples kept for exact percentile reporting.
    """

    def __init__(
        self,
        host: Any,
        deployment: str,
        *,
        policy: Optional[UpdatePolicy] = None,
        stream: Optional[UpdateStream] = None,
        rebuild_spec: Optional[str] = None,
        obs: Optional[Observability] = None,
        clock: Optional[Clock] = None,
        cost_model: Optional[CostModel] = None,
        staleness_window: int = 4096,
    ) -> None:
        self._host = host
        self._deployment = deployment
        self._obs = obs if obs is not None else getattr(
            host, "obs", None
        ) or get_observability()
        self._clock: Clock = clock if clock is not None else self._obs.clock
        self._policy: UpdatePolicy = (
            policy if policy is not None else AdaptivePolicy()
        )
        self._stream = (
            stream if stream is not None else UpdateStream(clock=self._clock)
        )
        self._costs = cost_model if cost_model is not None else CostModel()
        info = host.deployment(deployment)  # validates the name eagerly
        if rebuild_spec is not None:
            self._rebuild_spec: Optional[str] = rebuild_spec
        else:
            spec = str(info.spec)
            buildable = not spec.startswith(("snapshot:", "faulty:"))
            self._rebuild_spec = spec if buildable else None

        # Control-loop state, all mutated under the step lock.
        self._step_lock = threading.Lock()
        self._pending: dict[tuple[int, int], EdgeUpdate] = {}
        self._pending_event_times: list[float] = []
        self._baseline: dict[tuple[int, int], PiecewiseLinearFunction] = {}
        self._last_qps_probe: Optional[tuple[float, int]] = None

        # Counters behind the stats lock (stats() may race the loop).
        self._stats_lock = threading.Lock()
        self._ingested = 0
        self._coalesced = 0
        self._steps = 0
        self._actions: dict[str, int] = {action: 0 for action in ACTIONS}
        self._last_action = ""
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
        """Drain, decide, execute.  Returns None when there was nothing.

        Serialized against itself (background loop and manual calls may
        interleave); never called on the query path.  On action failure the
        batch is retained for the next step and the error propagates.
        """
        with self._step_lock:
            if self._closed:
                raise TrafficControlError("this TrafficController has been closed")
            self._absorb_locked()
            if not self._pending:
                return None
            observation = self._observe_locked()
            decision = self._policy.decide(observation)
            decision = self._downgrade_locked(decision)
            started = self._clock.monotonic()
            update_report, swap_report = self._execute_locked(decision.action)
            seconds = self._clock.monotonic() - started
            self._costs.observe(decision.action, seconds)

            now = self._clock.monotonic()
            staleness = sorted(now - at for at in self._pending_event_times)
            raw = len(self._pending_event_times)
            coalesced = len(self._pending)
            self._pending.clear()
            self._pending_event_times = []
            report = ControlReport(
                deployment=self._deployment,
                action=decision.action,
                reason=decision.reason,
                raw_updates=raw,
                coalesced_edges=coalesced,
                dirty_estimate=observation.dirty_estimate,
                qps=observation.qps,
                seconds=seconds,
                staleness_p50_s=_percentile(staleness, 0.50),
                staleness_max_s=staleness[-1] if staleness else 0.0,
                update_report=update_report,
                swap_report=swap_report,
            )
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

    def _observe_locked(self) -> PolicyObservation:
        engine = self._host.deployment(self._deployment).engine
        index = getattr(engine, "index", engine)
        tree = getattr(index, "tree", None)
        graph = self._live_graph()
        num_vertices = int(graph.num_vertices) if graph is not None else 0
        if tree is not None:
            dirty = estimate_dirty_vertices(tree, list(self._pending))
        else:
            # No tree to walk (e.g. a replica pool): assume the worst so
            # the policy never chooses an in-place patch it cannot verify.
            dirty = num_vertices if num_vertices else 1
        now = self._clock.monotonic()
        oldest = min(self._pending_event_times, default=now)
        return PolicyObservation(
            raw_updates=len(self._pending_event_times),
            coalesced_edges=len(self._pending),
            dirty_estimate=dirty,
            num_vertices=num_vertices,
            qps=self._observe_qps(now),
            backlog_age_seconds=max(0.0, now - oldest),
            expected_cost=self._costs.snapshot(),
        )

    def _observe_qps(self, now: float) -> float:
        """Answered-queries delta over wall time since the previous probe."""
        answered = int(self._host.stats(self._deployment).queries_answered)
        probe = self._last_qps_probe
        self._last_qps_probe = (now, answered)
        if probe is None:
            return 0.0
        since, previous = probe
        elapsed = now - since
        if elapsed <= 0.0:
            return 0.0
        return max(0, answered - previous) / elapsed

    def _downgrade_locked(self, decision: PolicyDecision) -> PolicyDecision:
        """Swap out actions the deployment cannot actually execute."""
        if decision.action == ACTION_PATCH:
            engine = self._host.deployment(self._deployment).engine
            if not engine.capabilities().update:
                return PolicyDecision(
                    ACTION_CLONE_SWAP,
                    decision.reason
                    + " [downgraded: engine lacks the update capability]",
                )
        if decision.action == ACTION_REBUILD:
            if self._rebuild_spec is None or self._live_graph() is None:
                return PolicyDecision(
                    ACTION_CLONE_SWAP,
                    decision.reason
                    + " [downgraded: no rebuild spec/graph for this deployment]",
                )
        return decision

    def _execute_locked(self, action: str) -> tuple[Any, Any]:
        changes = {
            edge: update.weight for edge, update in self._pending.items()
        }
        if action == ACTION_PATCH:
            return self._host.apply_updates(self._deployment, changes), None
        if action == ACTION_CLONE_SWAP:
            return self._execute_clone_swap(changes)
        if action == ACTION_REBUILD:
            return None, self._execute_rebuild(changes)
        raise TrafficControlError(f"policy chose unknown action {action!r}")

    def _execute_clone_swap(
        self, changes: Mapping[tuple[int, int], PiecewiseLinearFunction]
    ) -> tuple[Any, Any]:
        clone = self._host.clone(self._deployment)
        update_report = clone.update_edges(dict(changes))
        # Record the buildable spec alongside the ready clone: otherwise the
        # deployment's spec degrades to the engine's bare name and a later
        # rebuild silently loses build options (e.g. ``?max_points=none``).
        swap_report = self._host.swap(
            self._deployment, clone, spec=self._rebuild_spec
        )
        return update_report, swap_report

    def _execute_rebuild(
        self, changes: Mapping[tuple[int, int], PiecewiseLinearFunction]
    ) -> Any:
        graph = self._live_graph()
        if graph is None or self._rebuild_spec is None:  # downgrade guards this
            raise TrafficControlError(
                f"deployment {self._deployment!r} cannot rebuild: no graph/spec"
            )
        patched = graph.copy()
        for (source, target), weight in changes.items():
            patched.set_weight(source, target, weight)
        return self._host.swap(self._deployment, self._rebuild_spec, patched)

    def _live_graph(self) -> Any:
        engine = self._host.deployment(self._deployment).engine
        return getattr(engine, "graph", None)

    def _record_step(self, report: ControlReport, staleness: list[float]) -> None:
        with self._stats_lock:
            self._steps += 1
            self._actions[report.action] = self._actions.get(report.action, 0) + 1
            self._last_action = report.action
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
                reason=report.reason,
                raw_updates=report.raw_updates,
                coalesced_edges=report.coalesced_edges,
                dirty_estimate=report.dirty_estimate,
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
                actions=MappingProxyType(dict(self._actions)),
                pending_edges=pending,
                staleness_p50_s=_percentile(samples, 0.50),
                staleness_p99_s=_percentile(samples, 0.99),
                staleness_max_s=self._staleness_max,
                cost_ewma=self._costs.snapshot(),
                last_action=self._last_action,
            )

    def __repr__(self) -> str:
        return (
            f"TrafficController(deployment={self._deployment!r}, "
            f"policy={self._policy!r}, pending={self.pending_edges})"
        )
