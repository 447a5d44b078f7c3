"""Serving control plane: named engine deployments with zero-downtime swaps.

:class:`~repro.serving.QueryService` is one worker over one engine; a live
road network needs more — indexes are repaired or replaced as traffic
functions change while queries keep arriving.  :class:`EngineHost` is the
deployment layer above the workers:

* :meth:`~EngineHost.deploy` provisions a named deployment from a registry
  spec string (``"td-appro?budget_fraction=0.3"``), a snapshot
  (``"snapshot:/var/indexes/cal"`` — no graph needed, the snapshot embeds
  one) or a ready :class:`~repro.api.Engine`, and fronts it with the
  micro-batching machinery;
* :meth:`~EngineHost.swap` replaces a deployment's engine with **zero
  downtime**: the replacement builds (or loads) while the old engine keeps
  answering, the active service pointer flips atomically, the retired
  service drains its in-flight batches, and the replacement starts with a
  fresh result cache;
* :meth:`~EngineHost.apply_updates` is the one way edge-weight changes
  reach a deployment: it clones the live index in memory, repairs the
  clone, and swaps it in — the index under readers is never mutated;
* :meth:`~EngineHost.aquery` / :meth:`~EngineHost.asubmit` bridge the
  service's thread-world futures into ``asyncio``, and
  :meth:`~EngineHost.stats` aggregates :class:`~repro.serving.ServiceStats`
  per deployment **across** swap generations.

How the swap stays downtime-free
--------------------------------
Submitters never hold a service reference across calls: each
:meth:`~EngineHost.submit` re-resolves the deployment's live service.  The
flip is a single pointer assignment under the host lock; a submitter that
grabbed the outgoing service just before the flip either gets its query into
the final drain (answered by the old engine — it was submitted before the
swap completed) or receives the dedicated
:class:`~repro.exceptions.ServiceClosedError` and transparently retries
against the replacement.  No error escapes to the caller, no future is
dropped, and every answer delivered after :meth:`~EngineHost.swap` returns
is bit-identical to the replacement engine's own scalar ``query``.

Example
-------
>>> host = EngineHost()
>>> host.deploy("prod", "td-appro?budget_fraction=0.3", graph)
>>> cost = host.query("prod", 3, 17, 8 * 3600.0)
>>> host.apply_updates("prod", {(3, 4): new_weight})   # clone, repair, swap
>>> host.stats()["prod"].queries_answered
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Optional, Union, overload

from repro.exceptions import (
    DuplicateDeploymentError,
    HostError,
    ServiceClosedError,
    UnknownDeploymentError,
    UnsupportedCapabilityError,
    WorkerCrashedError,
)
from repro.obs import (
    EVENT_DEPLOY,
    EVENT_HEALTH,
    EVENT_RECOVERY,
    EVENT_SWAP,
    EVENT_UNDEPLOY,
    EVENT_UPDATE,
    Observability,
    get_observability,
)
from repro.serving.admission import retry_submit
from repro.serving.service import QueryService, ServiceFuture
from repro.serving.stats import ServiceStats
from repro.serving.supervision import (
    HealthReport,
    HealthState,
    RecoveryReport,
    Supervisor,
    SupervisionConfig,
)
from repro.utils.timing import Clock

__all__ = ["EngineHost", "DeploymentInfo", "SwapReport"]

#: What deploy/swap accept: a registry spec string or a ready engine object.
EngineOrSpec = Union[str, Any]


@dataclass(frozen=True)
class DeploymentInfo:
    """Read-only description of one deployment at the time it was asked for."""

    #: Deployment name (the routing key of ``submit``/``query``/``swap``).
    name: str
    #: Spec the live engine was provisioned from (an engine's ``name`` when
    #: it was handed in as an object).
    spec: str
    #: The live engine itself (handle for profile queries, snapshots, ...).
    engine: Any
    #: How many hot swaps this deployment has been through.
    swap_count: int
    #: Spec of the configured fallback engine, if any.
    fallback_spec: Optional[str] = None
    #: Health at the time of the description.
    health: HealthState = HealthState.HEALTHY
    #: Replica worker processes serving this deployment (0 means the engine
    #: runs in-process, the pre-replica default).
    replicas: int = 0


@dataclass(frozen=True)
class SwapReport:
    """What one :meth:`EngineHost.swap` did, and what it cost.

    ``build_seconds`` dominates and is paid while the old engine still
    serves; ``switch_seconds`` is the atomic pointer flip (the only moment
    the deployment is "between" engines — submitters racing it retry, they
    never fail); ``drain_seconds`` is the retired service flushing its last
    in-flight batch.
    """

    deployment: str
    old_spec: str
    new_spec: str
    build_seconds: float
    switch_seconds: float
    drain_seconds: float
    #: Queries that were still pending in the retired service at flip time
    #: and were answered by the old engine during the drain.
    drained_queries: int

    @property
    def total_seconds(self) -> float:
        """End-to-end wall time of the swap call."""
        return self.build_seconds + self.switch_seconds + self.drain_seconds


class _Deployment:
    """Mutable state of one named deployment (internal)."""

    __slots__ = (
        "name",
        "spec",
        "engine",
        "service",
        "service_options",
        "swap_lock",
        "swap_count",
        "retired_stats",
        "health",
        "health_cause",
        "clean_checks",
        "restarts_since_healthy",
        "worker_restarts",
        "degraded_answers",
        "retries",
        "fallback_spec",
        "fallback_service",
        "last_snapshot",
        "replica_pool",
        "owned_snapshot_dir",
    )

    def __init__(
        self,
        name: str,
        spec: str,
        engine: Any,
        service: QueryService,
        service_options: dict[str, Any],
    ) -> None:
        self.name = name
        self.spec = spec
        self.engine = engine
        self.service = service
        self.service_options = service_options
        #: Serializes swaps (and recoveries) per deployment; submits never
        #: take it.
        self.swap_lock = threading.Lock()
        self.swap_count = 0
        #: Final stats of every retired service generation (for stats()).
        self.retired_stats: list[ServiceStats] = []
        # Supervision state (mutated under the host lock).
        self.health = HealthState.HEALTHY
        self.health_cause: str | None = None
        #: Clean supervision passes since the last incident (DEGRADED only).
        self.clean_checks = 0
        #: Recovery restarts since the deployment was last HEALTHY; past
        #: ``max_restarts`` the engine is presumed poisoned and recovery
        #: escalates.
        self.restarts_since_healthy = 0
        self.worker_restarts = 0
        self.degraded_answers = 0
        self.retries = 0
        self.fallback_spec: str | None = None
        self.fallback_service: QueryService | None = None
        #: Where host.snapshot() last saved this deployment's index; the
        #: rehydration source when the live engine is poisoned.
        self.last_snapshot: Path | None = None
        #: The multi-process worker pool when the deployment was provisioned
        #: with ``replicas=N`` (the pool doubles as ``engine``); None for
        #: ordinary in-process deployments.
        self.replica_pool: Any = None
        #: Snapshot directory the host materialised for the pool (owned:
        #: deleted on undeploy/swap/close).  None when the deployment was
        #: provisioned from a caller-supplied ``snapshot:<dir>`` spec.
        self.owned_snapshot_dir: Path | None = None


def _bridge_future(
    future: ServiceFuture, loop: asyncio.AbstractEventLoop
) -> "asyncio.Future[float]":
    """Mirror a thread-world :class:`ServiceFuture` into an asyncio future.

    A loop timer expires a deadlined future on time even while its batch is
    inside the engine, as ``result()`` does on the sync path (first-wins).
    """
    target: "asyncio.Future[float]" = loop.create_future()
    timer: asyncio.TimerHandle | None = None
    if future._deadline is not None:
        timer = loop.call_later(
            future._deadline - future._clock.monotonic(), future._expire
        )

    def _transfer(settled: ServiceFuture) -> None:
        def _deliver() -> None:
            if timer is not None:
                timer.cancel()
            if target.cancelled():
                return
            error = settled.exception()
            if error is not None:
                target.set_exception(error)
            else:
                target.set_result(settled.result())

        # The batch settles on a service thread; hand the value over on the
        # loop thread.  A closed loop swallows the delivery (the awaiter is
        # gone with it).
        loop.call_soon_threadsafe(_deliver)

    future.add_done_callback(_transfer)
    return target


class EngineHost:
    """Owns named deployments and routes traffic to them without downtime.

    Parameters are the default :class:`~repro.serving.QueryService` knobs
    applied to every deployment; :meth:`deploy` accepts per-deployment
    overrides, and a swap reuses the deployment's knobs so operational
    tuning survives engine replacements.  ``obs`` is the
    :class:`~repro.obs.Observability` bundle shared by the host and every
    deployment (default: the process-wide bundle) — each deployment's
    service publishes metrics under its deployment name, swaps and
    recoveries land in the bundle's event log, and :meth:`metrics_text`
    serves the whole registry in Prometheus exposition format.

    Thread-safe throughout: any number of submitter threads (or one asyncio
    loop via the ``a*`` facade) may race deploys, swaps and undeploys.
    """

    def __init__(
        self,
        *,
        max_batch_size: int = 256,
        cache_size: int = 65_536,
        bucket_seconds: float = 0.0,
        max_pending: int | None = None,
        admission_policy: str = "block",
        admission_timeout_ms: float | None = None,
        default_deadline_ms: float | None = None,
        supervision: SupervisionConfig | None = None,
        obs: Observability | None = None,
        clock: Clock | None = None,
    ) -> None:
        self._obs = obs if obs is not None else get_observability()
        self._clock: Clock = clock if clock is not None else self._obs.clock
        self._defaults: dict[str, Any] = {
            "max_batch_size": max_batch_size,
            "cache_size": cache_size,
            "bucket_seconds": bucket_seconds,
            "max_pending": max_pending,
            "admission_policy": admission_policy,
            "admission_timeout_ms": admission_timeout_ms,
            "default_deadline_ms": default_deadline_ms,
            "obs": self._obs,
            "clock": self._clock,
        }
        if self._obs.enabled:
            registry = self._obs.registry
            self._m_swaps = registry.counter(
                "repro_host_swaps_total",
                "Completed zero-downtime engine swaps.",
                ("deployment",),
            )
            self._m_recoveries = registry.counter(
                "repro_host_recoveries_total",
                "Supervision recoveries, by escalation action.",
                ("deployment", "action"),
            )
            self._m_retries = registry.counter(
                "repro_host_retries_total",
                "Submits retried across a swap or worker restart.",
                ("deployment",),
            )
            self._m_degraded = registry.counter(
                "repro_host_degraded_answers_total",
                "Answers served by a fallback engine while the primary was "
                "unhealthy.",
                ("deployment",),
            )
            self._m_health = registry.gauge(
                "repro_host_health_state",
                "Deployment health: 0=healthy, 1=degraded, 2=unhealthy.",
                ("deployment",),
            )
            self._m_updates = registry.counter(
                "repro_host_updates_total",
                "Edge-weight changes applied through clone, repair and swap.",
                ("deployment",),
            )
        else:
            self._m_swaps = None
            self._m_recoveries = None
            self._m_retries = None
            self._m_degraded = None
            self._m_health = None
            self._m_updates = None
        self._lock = threading.Lock()
        self._deployments: dict[str, _Deployment] = {}
        self._closed = False
        #: Detection thresholds for check(); defaults apply even without the
        #: background loop, so manual check() calls behave identically.
        self._supervision = supervision or SupervisionConfig()
        self._supervisor: Supervisor | None = None
        if supervision is not None:
            self._supervisor = Supervisor(self, supervision)
            self._supervisor.start()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (the supervisor loop checks it)."""
        return self._closed

    # ------------------------------------------------------------------
    # Observability surface
    # ------------------------------------------------------------------
    @property
    def obs(self) -> Observability:
        """The observability bundle every deployment publishes into."""
        return self._obs

    def metrics_text(self) -> str:
        """Every registry metric in Prometheus text exposition format.

        Exactly what a ``/metrics`` route would serve::

            >>> print(host.metrics_text())
            # HELP repro_service_queries_total Queries accepted by submit()...
            # TYPE repro_service_queries_total counter
            repro_service_queries_total{service="prod"} 1024
            ...
        """
        return self._obs.metrics_text()

    def metrics_json(self) -> dict[str, object]:
        """The same registry contents as a JSON-serialisable snapshot."""
        return self._obs.metrics_json()

    _HEALTH_LEVEL = {
        HealthState.HEALTHY: 0.0,
        HealthState.DEGRADED: 1.0,
        HealthState.UNHEALTHY: 2.0,
    }

    def _emit(self, kind: str, subject: str, **fields: Any) -> None:
        if self._obs.enabled:
            self._obs.events.emit(kind, subject, **fields)

    def _note_health(
        self, name: str, state: HealthState, cause: str | None = None
    ) -> None:
        """Record one health *transition* (gauge + structured event)."""
        if self._m_health is not None:
            self._m_health.set(self._HEALTH_LEVEL[state], deployment=name)
        self._emit(EVENT_HEALTH, name, state=state.name.lower(), cause=cause)

    def _wire_engine(self, engine: Any) -> None:
        """Point fault-injection wrappers at the host's event sink."""
        attach = getattr(engine, "attach_event_log", None)
        if attach is not None and self._obs.enabled:
            attach(self._obs.events)

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------
    def deploy(
        self,
        name: str,
        engine: EngineOrSpec,
        graph: Any = None,
        *,
        fallback: Optional[EngineOrSpec] = None,
        replicas: Optional[int] = None,
        mmap_mode: str = "r",
        **service_options: Any,
    ) -> DeploymentInfo:
        """Provision a deployment ``name`` serving ``engine``.

        ``engine`` is a registry spec string (built via
        :func:`repro.api.create_engine` — ``"snapshot:<dir>"`` rehydrates a
        saved index and needs no ``graph``) or a ready engine object.
        ``service_options`` override the host's default ``QueryService``
        knobs for this deployment only.  Building happens before any lock is
        taken, so deploying a slow engine never stalls live deployments.

        ``fallback`` (a spec string or ready engine, e.g. the index-free
        ``"td-dijkstra"``) provisions a standby the host routes to while the
        primary is ``UNHEALTHY`` — answers served this way are counted as
        ``degraded_answers`` in the deployment's stats.

        ``replicas=N`` serves the deployment from ``N`` worker *processes*
        instead of the in-process engine: each replica rehydrates the
        deployment's snapshot with ``mmap_mode`` (default ``"r"``), so all
        replicas share one physical copy of the index arrays through the
        page cache, and micro-batches are spread over the pool by least
        load.  A ``"snapshot:<dir>"`` spec is handed to the workers as-is
        (nothing is built in this process); any other spec or engine object
        is built once, spilled to a host-owned snapshot directory, and
        mapped from there.  Replica liveness is folded into :meth:`check` /
        :meth:`health`; a dead replica is respawned from the snapshot.
        """
        self._check_open()
        with self._lock:
            if name in self._deployments:
                raise DuplicateDeploymentError(name)
        pool: Any = None
        owned_dir: Path | None = None
        snapshot_dir: Path | None = None
        if replicas is not None:
            pool, spec, snapshot_dir, owned_dir = self._provision_replicas(
                name, engine, graph, replicas, mmap_mode
            )
            built = pool
        else:
            built, spec = self._resolve_engine(engine, graph)
            self._wire_engine(built)
        try:
            options = {**self._defaults, "name": name, **service_options}
            service = QueryService(built, **options)
            deployment = _Deployment(name, spec, built, service, options)
            deployment.replica_pool = pool
            deployment.owned_snapshot_dir = owned_dir
            if snapshot_dir is not None:
                # The pool's snapshot is also the rehydration source.
                deployment.last_snapshot = snapshot_dir
            if fallback is not None:
                fallback_built, fallback_spec = self._resolve_engine(
                    fallback, graph, fallback_graph=getattr(built, "graph", None)
                )
                self._wire_engine(fallback_built)
                deployment.fallback_spec = fallback_spec
                deployment.fallback_service = QueryService(
                    fallback_built, **{**options, "name": f"{options['name']}-fallback"}
                )
            with self._lock:
                if self._closed or name in self._deployments:
                    service.close()
                    if deployment.fallback_service is not None:
                        deployment.fallback_service.close()
                    if self._closed:
                        raise HostError("EngineHost is closed")
                    raise DuplicateDeploymentError(name)
                self._deployments[name] = deployment
        except BaseException:
            self._dispose_pool(pool, owned_dir)
            raise
        if self._m_health is not None:
            self._m_health.set(0.0, deployment=name)
        self._emit(
            EVENT_DEPLOY,
            name,
            spec=spec,
            fallback=deployment.fallback_spec,
            replicas=replicas or 0,
        )
        return self._info(deployment)

    def swap(
        self,
        name: str,
        engine: EngineOrSpec,
        graph: Any = None,
        *,
        spec: Optional[str] = None,
    ) -> SwapReport:
        """Replace deployment ``name``'s engine with zero downtime.

        The replacement is built (or loaded) while the old engine keeps
        serving — pass a spec string to rebuild (``graph`` defaults to the
        current engine's graph; ``"snapshot:<dir>"`` specs load their own),
        or a ready engine to make the flip the only work left.  When the
        replacement is a ready engine, ``spec`` records its originating
        build spec; without it the deployment's recorded spec degrades to
        the engine's bare name, silently dropping options such as
        ``?max_points=none`` from later rebuilds and snapshot manifests.  Traffic is
        then atomically re-pointed, the retired service drains its in-flight
        batches through the *old* engine (those queries were submitted
        before the swap completed), and the replacement starts with a fresh
        result cache, so no answer computed against the old network
        survives.  Swaps on the same deployment serialize; swaps on
        different deployments run concurrently.

        A deployment provisioned with ``replicas=N`` stays multi-process
        across the swap: the replacement is snapshotted and a fresh pool of
        the same size (and ``mmap_mode``) spawns over it while the old pool
        keeps answering; the old pool and its host-owned snapshot directory
        are torn down only after the drain.
        """
        deployment = self._get(name)
        with deployment.swap_lock:
            return self._swap_locked(deployment, engine, graph, spec)

    def _swap_locked(
        self,
        deployment: _Deployment,
        engine: EngineOrSpec,
        graph: Any,
        recorded_spec: Optional[str],
    ) -> SwapReport:
        """The body of :meth:`swap`; the caller holds the swap lock."""
        name = deployment.name
        old_engine = deployment.engine
        old_pool = deployment.replica_pool
        new_pool: Any = None
        new_owned: Path | None = None
        new_snapshot: Path | None = None
        build_started = self._clock.monotonic()
        if old_pool is not None:
            new_pool, spec, new_snapshot, new_owned = self._provision_replicas(
                name,
                engine,
                graph,
                old_pool.size,
                old_pool.mmap_mode,
                fallback_graph=getattr(old_engine, "graph", None),
            )
            built = new_pool
        else:
            built, spec = self._resolve_engine(
                engine, graph, fallback_graph=getattr(old_engine, "graph", None)
            )
            self._wire_engine(built)
        if recorded_spec is not None:
            spec = str(recorded_spec)
        try:
            new_service = QueryService(built, **deployment.service_options)
        except BaseException:
            self._dispose_pool(new_pool, new_owned)
            raise
        build_seconds = self._clock.monotonic() - build_started

        switch_started = self._clock.monotonic()
        was_healthy = True
        with self._lock:
            if self._closed or self._deployments.get(name) is not deployment:
                new_service.close()
                self._dispose_pool(new_pool, new_owned)
                if self._closed:
                    raise HostError("EngineHost is closed")
                raise UnknownDeploymentError(name, tuple(self._deployments))
            old_service = deployment.service
            old_spec = deployment.spec
            old_owned = deployment.owned_snapshot_dir
            deployment.service = new_service
            deployment.engine = built
            deployment.spec = spec
            deployment.replica_pool = new_pool
            deployment.owned_snapshot_dir = new_owned
            if new_snapshot is not None:
                deployment.last_snapshot = new_snapshot
            elif old_owned is not None and deployment.last_snapshot == old_owned:
                # The old host-owned snapshot dies with the drain below;
                # it must not linger as a rehydration source.
                deployment.last_snapshot = None
            deployment.swap_count += 1
            # A swap installs a known-good engine: the deployment starts
            # its health history over (an UNHEALTHY primary parked on a
            # fallback returns to primary serving here).
            was_healthy = deployment.health is HealthState.HEALTHY
            deployment.health = HealthState.HEALTHY
            deployment.health_cause = None
            deployment.clean_checks = 0
            deployment.restarts_since_healthy = 0
            # Retire the outgoing generation's counters in the same
            # critical section as the flip, so a concurrent stats()
            # never sees the deployment's totals dip (the pre-drain
            # snapshot is replaced with the final one below).
            deployment.retired_stats.append(old_service.stats())
            retired_index = len(deployment.retired_stats) - 1
        switch_seconds = self._clock.monotonic() - switch_started

        drain_started = self._clock.monotonic()
        drained = old_service.close()
        drain_seconds = self._clock.monotonic() - drain_started
        with self._lock:
            deployment.retired_stats[retired_index] = old_service.stats()
        # The drain is done: nothing routes to the old pool any more.
        self._dispose_pool(old_pool, old_owned)
        if self._m_swaps is not None:
            self._m_swaps.inc(1.0, deployment=name)
        if not was_healthy:
            self._note_health(name, HealthState.HEALTHY, "swap installed a fresh engine")
        elif self._m_health is not None:
            self._m_health.set(0.0, deployment=name)
        self._emit(
            EVENT_SWAP,
            name,
            old_spec=old_spec,
            new_spec=spec,
            drained_queries=drained,
            build_seconds=build_seconds,
        )
        return SwapReport(
            deployment=name,
            old_spec=old_spec,
            new_spec=spec,
            build_seconds=build_seconds,
            switch_seconds=switch_seconds,
            drain_seconds=drain_seconds,
            drained_queries=drained,
        )

    def apply_updates(
        self,
        name: str,
        changes: Mapping[tuple[int, int], Any],
    ) -> Any:
        """Apply edge-weight ``changes`` to deployment ``name``: clone, repair, swap.

        The one update path.  Under the deployment's swap lock it takes a
        private :meth:`clone` of the live index, repairs the clone with
        ``update_edges`` (:func:`repro.core.update.apply_edge_updates`), and
        flips it in exactly as :meth:`swap` would.  The engine serving
        readers is never mutated: every answer comes from either the old
        engine or the repaired one, and the retired engine still answers as
        it did before the call.  Holding the lock from clone to flip means
        no concurrent :meth:`swap` can land in between and be overwritten.

        The swap records the spec the clone was taken from, so build options
        such as ``?max_points=none`` survive; like :meth:`clone`, a
        ``faulty:`` deployment comes back unwrapped.  A replica pool repairs
        a clone of its own snapshot and respawns over the result.  Returns
        the repair's :class:`~repro.core.update.UpdateReport`.

        Raises
        ------
        UnsupportedCapabilityError
            When the deployment's engine holds no index to repair (e.g.
            ``td-dijkstra``).
        """
        deployment = self._get(name)
        with deployment.swap_lock:
            cloned, spec = self._clone(deployment)
            report = cloned.update_edges(dict(changes))
            self._swap_locked(deployment, cloned, None, spec)
        if self._m_updates is not None:
            self._m_updates.inc(float(len(changes)), deployment=name)
        self._emit(
            EVENT_UPDATE,
            name,
            changed_edges=len(changes),
            dirty_vertices=int(getattr(report, "num_dirty_vertices", 0)),
            seconds=float(getattr(report, "seconds", 0.0)),
        )
        return report

    def undeploy(self, name: str) -> ServiceStats:
        """Retire a deployment; returns its final aggregated stats."""
        with self._lock:
            deployment = self._deployments.pop(name, None)
            if deployment is None:
                raise UnknownDeploymentError(name, tuple(self._deployments))
        deployment.service.close()
        if deployment.fallback_service is not None:
            deployment.fallback_service.close()
        stats = self._merged_stats(deployment)
        self._dispose_pool(deployment.replica_pool, deployment.owned_snapshot_dir)
        self._emit(EVENT_UNDEPLOY, name, spec=deployment.spec)
        return stats

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def submit(
        self,
        deployment: str,
        source: int,
        target: int,
        departure: float,
        *,
        deadline_ms: float | None = None,
    ) -> ServiceFuture:
        """Enqueue one scalar query on ``deployment``; resolves to the cost.

        Swap-safe and recovery-safe: a submit racing a hot swap (or a
        supervisor restart) retries against the replacement service via
        :func:`~repro.serving.retry_submit` instead of surfacing the retired
        service's :class:`~repro.exceptions.ServiceClosedError`; each retry
        is counted into the deployment's stats.  On an ``UNHEALTHY``
        deployment traffic routes to the configured fallback engine (the
        answer counts as degraded), or fails fast with
        :class:`~repro.exceptions.WorkerCrashedError` when there is none.
        """
        return retry_submit(
            lambda: self._route_submit(deployment, source, target, departure, deadline_ms),
            on_retry=lambda attempt, exc: self._count_retry(deployment),
        )

    def _route_submit(
        self,
        deployment: str,
        source: int,
        target: int,
        departure: float,
        deadline_ms: float | None,
    ) -> ServiceFuture:
        """One routing attempt: health-aware service resolution + submit."""
        entry = self._get(deployment)
        if entry.health is HealthState.UNHEALTHY:
            fallback = entry.fallback_service
            if fallback is None:
                raise WorkerCrashedError(
                    deployment, entry.health_cause or "deployment is unhealthy"
                )
            future = fallback.submit(source, target, departure, deadline_ms=deadline_ms)
            with self._lock:
                entry.degraded_answers += 1
            if self._m_degraded is not None:
                self._m_degraded.inc(1.0, deployment=deployment)
            return future
        return entry.service.submit(source, target, departure, deadline_ms=deadline_ms)

    def _count_retry(self, deployment: str) -> None:
        with self._lock:
            entry = self._deployments.get(deployment)
            if entry is not None:
                entry.retries += 1
        if self._m_retries is not None:
            self._m_retries.inc(1.0, deployment=deployment)

    def query(
        self,
        deployment: str,
        source: int,
        target: int,
        departure: float,
        *,
        deadline_ms: float | None = None,
    ) -> float:
        """Blocking convenience wrapper: ``submit(...).result()``."""
        return self.submit(
            deployment, source, target, departure, deadline_ms=deadline_ms
        ).result()

    def flush(self, deployment: Optional[str] = None) -> int:
        """Flush pending micro-batches (one deployment, or all of them).

        ``UNHEALTHY`` deployments flush their fallback service (the one
        carrying their traffic); deployments without one are skipped — their
        primary is parked and holds nothing flushable.
        """
        names = (deployment,) if deployment is not None else self.deployments()
        flushed = 0
        for name in names:
            try:
                flushed += retry_submit(lambda: self._route_flush(name))
            except UnknownDeploymentError:
                if deployment is not None:
                    raise
                # undeployed between listing and flushing: fine
        return flushed

    def _route_flush(self, name: str) -> int:
        entry = self._get(name)
        if entry.health is HealthState.UNHEALTHY:
            fallback = entry.fallback_service
            return fallback.flush() if fallback is not None else 0
        return entry.service.flush()

    # ------------------------------------------------------------------
    # Async facade
    # ------------------------------------------------------------------
    def asubmit(
        self,
        deployment: str,
        source: int,
        target: int,
        departure: float,
        *,
        deadline_ms: float | None = None,
    ) -> "asyncio.Future[float]":
        """:meth:`submit`, bridged to the running event loop.

        Must be called from a coroutine (it binds to the running loop).  The
        enqueue itself runs inline — cheap unless this very submit fills the
        batch, in which case the flush computes on the loop thread; size
        ``max_batch_size`` accordingly or keep heavy swaps on :meth:`aswap`.
        ``deadline_ms`` is enforced even while the batch is in the engine.
        """
        loop = asyncio.get_running_loop()
        return _bridge_future(
            self.submit(deployment, source, target, departure, deadline_ms=deadline_ms),
            loop,
        )

    async def aquery(
        self,
        deployment: str,
        source: int,
        target: int,
        departure: float,
        *,
        deadline_ms: float | None = None,
    ) -> float:
        """Awaitable scalar query: ``await host.aquery("prod", s, t, d)``."""
        return await self.asubmit(
            deployment, source, target, departure, deadline_ms=deadline_ms
        )

    async def aswap(
        self,
        name: str,
        engine: EngineOrSpec,
        graph: Any = None,
        *,
        spec: Optional[str] = None,
    ) -> SwapReport:
        """:meth:`swap`, off the event loop (the build runs in a thread)."""
        return await asyncio.to_thread(
            lambda: self.swap(name, engine, graph, spec=spec)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def deployments(self) -> tuple[str, ...]:
        """Active deployment names, in deployment order."""
        with self._lock:
            return tuple(self._deployments)

    def deployment(self, name: str) -> DeploymentInfo:
        """Describe one deployment (spec, live engine, swap count)."""
        return self._info(self._get(name))

    @overload
    def stats(self, deployment: str) -> ServiceStats: ...

    @overload
    def stats(self, deployment: None = None) -> dict[str, ServiceStats]: ...

    def stats(
        self, deployment: Optional[str] = None
    ) -> Union[ServiceStats, dict[str, ServiceStats]]:
        """Aggregated per-deployment stats (across swap generations).

        Counters from retired service generations are folded into the live
        service's via :meth:`ServiceStats.merged`, so a deployment's
        throughput and hit-rate history survives its hot swaps.  Pass a name
        for one deployment's stats, nothing for a ``{name: stats}`` map.
        """
        if deployment is not None:
            return self._merged_stats(self._get(deployment))
        with self._lock:
            live = list(self._deployments.values())
        return {d.name: self._merged_stats(d) for d in live}

    def replica_stats(self, deployment: str) -> list[ServiceStats]:
        """Per-replica worker stats of a ``replicas=N`` deployment.

        One :class:`ServiceStats` per worker process (dead workers report
        :meth:`ServiceStats.empty`), mergeable with
        :meth:`ServiceStats.merged`.  These describe the *backend* workers;
        :meth:`stats` already counts every query at the front service, so
        the two views must not be added together.  Raises
        :class:`~repro.exceptions.HostError` on a deployment without
        replicas.
        """
        entry = self._get(deployment)
        pool = entry.replica_pool
        if pool is None:
            raise HostError(
                f"deployment {deployment!r} has no replica pool "
                "(deploy it with replicas=N)"
            )
        return list(pool.stats())

    def replicas(self, deployment: str) -> list[Any]:
        """Liveness/identity of each replica worker (``ReplicaInfo`` list).

        Empty for deployments without a replica pool.
        """
        entry = self._get(deployment)
        pool = entry.replica_pool
        if pool is None:
            return []
        return list(pool.replicas())

    def snapshot(self, deployment: str, path: Any) -> Path:
        """Snapshot a deployment's engine, recording its originating spec.

        The written manifest carries ``engine_spec``, so the directory is
        immediately servable elsewhere via
        ``host.deploy(name, f"snapshot:{path}")``.  A deployment that was
        itself provisioned from a snapshot records the engine's resolved
        name (``"td-appro"``), not the old ``snapshot:<path>`` spec —
        re-snapshotting must not chain stale paths or lose the name.  A
        ``faulty:`` deployment records its *inner* engine's name: the
        snapshot holds the real index, not the fault wrapper.

        The written path is also remembered as the deployment's rehydration
        source: if the live engine is later declared poisoned, recovery
        rebuilds from this snapshot (see :meth:`check`).
        """
        from repro.persistence import load_index, read_manifest, save_index

        entry = self._get(deployment)
        pool = entry.replica_pool
        if pool is not None:
            # The pool is not an index; its snapshot directory holds the
            # authoritative copy.  Round-trip it so the written snapshot is
            # a fresh, self-contained directory with current manifest.
            manifest = read_manifest(pool.snapshot_path)
            engine_spec = manifest.get("engine_spec") or None
            written = save_index(
                load_index(pool.snapshot_path), path, engine_spec=engine_spec
            )
        else:
            index, spec = self._resolved_index(entry)
            written = save_index(index, path, engine_spec=spec)
        with self._lock:
            entry.last_snapshot = written
        return written

    def clone(self, deployment: str) -> Any:
        """A private engine holding a copy of the deployment's index.

        The copy can be repaired with ``update_edges`` and installed with
        :meth:`swap` while the live engine keeps serving, untouched —
        :meth:`apply_updates` does exactly that.  An in-process deployment
        is cloned in memory (:meth:`~repro.core.index.TDTreeIndex.clone`)
        and named as :meth:`snapshot` would record it (a ``faulty:``
        deployment yields its inner index).  A replica pool holds no index
        in this process, so its clone is loaded from the pool's own
        snapshot.  Nothing is written to disk and the rehydration source is
        left as it is.

        Raises
        ------
        UnsupportedCapabilityError
            When the deployment's engine is not index-backed (nothing to
            repair).
        """
        return self._clone(self._get(deployment))[0]

    def _clone(self, entry: _Deployment) -> tuple[Any, str]:
        """:meth:`clone`, plus the build spec the copy carries."""
        from repro.api import TDTreeEngine, create_engine, parse_engine_spec
        from repro.core.index import TDTreeIndex

        pool = entry.replica_pool
        if pool is not None:
            loaded = create_engine(f"snapshot:{pool.snapshot_path}")
            return loaded, loaded.index.engine_spec or loaded.name
        index, spec = self._resolved_index(entry)
        if not isinstance(index, TDTreeIndex):
            raise UnsupportedCapabilityError(spec, "update")
        cloned = index.clone()
        cloned.engine_spec = spec
        return TDTreeEngine(cloned, name=parse_engine_spec(spec)[0]), spec

    @staticmethod
    def _resolved_index(entry: _Deployment) -> tuple[Any, str]:
        """The deployment's native index and the spec a snapshot records."""
        from repro.api import parse_engine_spec

        spec = entry.spec
        engine = entry.engine
        scheme = parse_engine_spec(spec)[0]
        if scheme == "faulty":
            inner = getattr(engine, "inner", None)
            if inner is not None:
                engine = inner
                spec = str(getattr(inner, "name", spec))
        elif scheme == "snapshot":
            spec = str(getattr(engine, "name", spec))
        return getattr(engine, "index", engine), spec

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    @overload
    def health(self, deployment: str) -> HealthReport: ...

    @overload
    def health(self, deployment: None = None) -> dict[str, HealthReport]: ...

    def health(
        self, deployment: Optional[str] = None
    ) -> Union[HealthReport, dict[str, HealthReport]]:
        """Current health per deployment (no probing side effects).

        Reflects the state as of the last :meth:`check` pass (manual or from
        the background :class:`~repro.serving.Supervisor`), enriched with a
        fresh :class:`~repro.serving.ServiceProbe` of the live service.
        """
        if deployment is not None:
            return self._health_report(self._get(deployment))
        with self._lock:
            live = list(self._deployments.values())
        return {d.name: self._health_report(d) for d in live}

    def _health_report(self, entry: _Deployment) -> HealthReport:
        with self._lock:
            state = entry.health
            cause = entry.health_cause
            restarts = entry.worker_restarts
            pool = entry.replica_pool
        probe = None
        if state is not HealthState.UNHEALTHY:
            probe = entry.service.probe()
        return HealthReport(
            deployment=entry.name,
            state=state,
            cause=cause,
            worker_restarts=restarts,
            probe=probe,
            replicas=pool.size if pool is not None else 0,
            replicas_alive=pool.alive_count if pool is not None else None,
        )

    def check(self, deployment: Optional[str] = None) -> dict[str, RecoveryReport]:
        """One synchronous supervision pass; returns recoveries performed.

        For each (or one) deployment: probe the live service, detect
        incidents against the host's :class:`~repro.serving.SupervisionConfig`
        thresholds, and recover — abort the worker (failing its in-flight
        futures with :class:`~repro.exceptions.WorkerCrashedError`), then
        restart it from the live engine, rehydrate the last
        :meth:`snapshot` if the engine itself is presumed poisoned, or park
        the deployment on its fallback.  Clean passes walk ``DEGRADED``
        deployments back to ``HEALTHY``.  The background supervisor calls
        exactly this; tests call it directly for deterministic recovery.
        """
        names = (deployment,) if deployment is not None else self.deployments()
        reports: dict[str, RecoveryReport] = {}
        for name in names:
            try:
                entry = self._get(name)
            except (UnknownDeploymentError, HostError):
                if deployment is not None:
                    raise
                continue
            report = self._check_one(entry)
            if report is not None:
                reports[name] = report
        return reports

    def _check_one(self, entry: _Deployment) -> Optional[RecoveryReport]:
        config = self._supervision
        with self._lock:
            state = entry.health
        if state is HealthState.UNHEALTHY:
            return None  # parked: only swap() brings the primary back
        pool_report = self._check_pool(entry)
        if pool_report is not None:
            return pool_report
        probe = entry.service.probe()
        cause: str | None = None
        if not probe.closed:
            wedge_seconds = config.wedge_timeout_ms / 1000.0
            if not probe.flusher_alive:
                cause = "flusher thread died"
            elif probe.flushing_seconds > wedge_seconds:
                cause = (
                    f"batch wedged in the engine for "
                    f"{probe.flushing_seconds * 1000.0:.0f} ms"
                )
            elif probe.oldest_pending_seconds > wedge_seconds:
                cause = (
                    f"oldest pending query aged "
                    f"{probe.oldest_pending_seconds * 1000.0:.0f} ms without a flush"
                )
            elif probe.consecutive_batch_failures >= config.failure_threshold:
                cause = (
                    f"{probe.consecutive_batch_failures} consecutive "
                    "whole-batch failures"
                )
        if cause is None:
            recovered = False
            with self._lock:
                if entry.health is HealthState.DEGRADED:
                    entry.clean_checks += 1
                    if entry.clean_checks >= config.recovery_checks:
                        entry.health = HealthState.HEALTHY
                        entry.health_cause = None
                        entry.clean_checks = 0
                        entry.restarts_since_healthy = 0
                        recovered = True
            if recovered:
                self._note_health(
                    entry.name,
                    HealthState.HEALTHY,
                    f"{config.recovery_checks} clean supervision passes",
                )
            return None
        return self._recover(entry, cause)

    def _check_pool(self, entry: _Deployment) -> Optional[RecoveryReport]:
        """Fold replica liveness into one supervision pass.

        The pool respawns its own dead workers from the deployment's
        snapshot; the host folds the outcome into the deployment's health
        ladder: a respawn marks the deployment ``DEGRADED`` (clean passes
        promote it back, exactly like a service restart), while a pool with
        no live replica left escalates through the ordinary recovery rungs
        — skipping ``"restart"``, which would only re-front the dead pool —
        to rehydrate in-process from the last snapshot, fall back, or park.
        """
        pool = entry.replica_pool
        if pool is None or pool.closed:
            return None
        recoveries = pool.check()
        if not recoveries:
            return None
        respawned = sum(1 for r in recoveries if r.action == "respawn")
        failed = sum(r.failed_requests for r in recoveries)
        cause = recoveries[0].cause
        if respawned:
            with self._lock:
                entry.worker_restarts += respawned
        if pool.alive_count == 0:
            with self._lock:
                entry.restarts_since_healthy = max(
                    entry.restarts_since_healthy, self._supervision.max_restarts
                )
            return self._recover(
                entry,
                f"all {pool.size} replica workers are dead and could not be "
                f"respawned ({cause})",
            )
        with self._lock:
            if entry.health is HealthState.HEALTHY:
                entry.health = HealthState.DEGRADED
            entry.health_cause = f"replica worker died: {cause}"
            entry.clean_checks = 0
        self._note_health(entry.name, HealthState.DEGRADED, cause)
        self._note_recovery(entry.name, "respawn", cause, failed)
        return RecoveryReport(
            deployment=entry.name,
            action="respawn",
            cause=cause,
            failed_futures=failed,
        )

    def _recover(self, entry: _Deployment, cause: str) -> Optional[RecoveryReport]:
        """Abort the failed worker and bring the deployment back (or park it)."""
        config = self._supervision
        if not entry.swap_lock.acquire(blocking=False):
            # A swap is installing a fresh engine right now; it supersedes
            # any recovery this pass could do.
            return None
        try:
            error = WorkerCrashedError(entry.name, cause)
            with self._lock:
                restarts = entry.restarts_since_healthy
            if restarts < config.max_restarts:
                action, engine, spec = "restart", entry.engine, entry.spec
            elif entry.last_snapshot is not None:
                # The live engine keeps killing its workers: presume it is
                # poisoned and rebuild from the last known-good snapshot.
                from repro.api import create_engine

                action = "rehydrate"
                spec = f"snapshot:{entry.last_snapshot}"
                engine = create_engine(spec)
                self._wire_engine(engine)
            elif entry.fallback_service is not None:
                action, engine, spec = "fallback", None, entry.spec
            else:
                action, engine, spec = "park", None, entry.spec

            if engine is None:
                # No recovery path for the primary: park it UNHEALTHY.
                if entry.replica_pool is not None:
                    # Workers are already dead; free queues and stragglers.
                    # References (and the owned snapshot dir) stay so a
                    # later swap() re-provisions the pool at full size.
                    entry.replica_pool.close()
                with self._lock:
                    entry.health = HealthState.UNHEALTHY
                    entry.health_cause = cause
                self._note_health(entry.name, HealthState.UNHEALTHY, cause)
                old_service = entry.service
                failed = old_service.abort(error)
                with self._lock:
                    entry.retired_stats.append(old_service.stats())
                self._note_recovery(entry.name, action, cause, failed)
                return RecoveryReport(
                    deployment=entry.name,
                    action=action,
                    cause=cause,
                    failed_futures=failed,
                )

            # Build the replacement worker first, then flip: submitters never
            # observe a window with no live service.
            new_service = QueryService(engine, **entry.service_options)
            dead_pool = None
            with self._lock:
                old_service = entry.service
                entry.service = new_service
                entry.engine = engine
                entry.spec = spec
                if action == "rehydrate" and entry.replica_pool is not None:
                    # The replacement serves in-process; the dead pool is
                    # done.  Its owned snapshot dir survives — it *is* the
                    # deployment's last_snapshot — until undeploy/close.
                    dead_pool = entry.replica_pool
                    entry.replica_pool = None
                entry.health = HealthState.DEGRADED
                entry.health_cause = cause
                entry.clean_checks = 0
                entry.worker_restarts += 1
                if action == "rehydrate":
                    # Fresh engine: it gets a fresh restart budget.
                    entry.restarts_since_healthy = 0
                else:
                    entry.restarts_since_healthy += 1
            self._note_health(entry.name, HealthState.DEGRADED, cause)
            failed = old_service.abort(error)
            if dead_pool is not None:
                dead_pool.close()
            with self._lock:
                entry.retired_stats.append(old_service.stats())
            self._note_recovery(entry.name, action, cause, failed)
            return RecoveryReport(
                deployment=entry.name,
                action=action,
                cause=cause,
                failed_futures=failed,
            )
        finally:
            entry.swap_lock.release()

    def _note_recovery(
        self, name: str, action: str, cause: str, failed: int
    ) -> None:
        """Record one completed recovery (counter + structured event)."""
        if self._m_recoveries is not None:
            self._m_recoveries.inc(1.0, deployment=name, action=action)
        self._emit(
            EVENT_RECOVERY, name, action=action, cause=cause, failed_futures=failed
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Retire every deployment and refuse further work.

        Idempotent and safe under concurrent calls: exactly one caller
        performs the teardown (stopping the supervisor and draining every
        deployment and fallback); the rest return immediately.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            retired = list(self._deployments.values())
            self._deployments.clear()
        if self._supervisor is not None:
            self._supervisor.stop()
        for deployment in retired:
            deployment.service.close()
            if deployment.fallback_service is not None:
                deployment.fallback_service.close()
            self._dispose_pool(
                deployment.replica_pool, deployment.owned_snapshot_dir
            )

    def __enter__(self) -> "EngineHost":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            names = ", ".join(self._deployments) or "none"
        return f"EngineHost(deployments=[{names}])"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise HostError("EngineHost is closed")

    def _get(self, name: str) -> _Deployment:
        with self._lock:
            if self._closed:
                raise HostError("EngineHost is closed")
            deployment = self._deployments.get(name)
            if deployment is None:
                raise UnknownDeploymentError(name, tuple(self._deployments))
            return deployment

    def _service(self, name: str) -> QueryService:
        return self._get(name).service

    def _info(self, deployment: _Deployment) -> DeploymentInfo:
        pool = deployment.replica_pool
        return DeploymentInfo(
            name=deployment.name,
            spec=deployment.spec,
            engine=deployment.engine,
            swap_count=deployment.swap_count,
            fallback_spec=deployment.fallback_spec,
            health=deployment.health,
            replicas=pool.size if pool is not None else 0,
        )

    def _merged_stats(self, deployment: _Deployment) -> ServiceStats:
        """Fold retired generations, the live service, the fallback, and the
        host-level resilience counters into one deployment view.

        ``cache_entries`` is the live service's, not the fallback's."""
        with self._lock:
            retired = list(deployment.retired_stats)
            retries = deployment.retries
            degraded = deployment.degraded_answers
            restarts = deployment.worker_restarts
        live = deployment.service.stats()
        parts = [*retired, live]
        if deployment.fallback_service is not None:
            parts.append(deployment.fallback_service.stats())
        merged = ServiceStats.merged(parts)
        return replace(
            merged,
            cache_entries=live.cache_entries,
            retries=merged.retries + retries,
            degraded_answers=merged.degraded_answers + degraded,
            worker_restarts=merged.worker_restarts + restarts,
        )

    def _resolve_engine(
        self,
        engine: EngineOrSpec,
        graph: Any,
        *,
        fallback_graph: Any = None,
    ) -> tuple[Any, str]:
        """Build a spec string into an engine; pass engine objects through."""
        if isinstance(engine, str):
            from repro.api import create_engine, engine_entry, parse_engine_spec

            name, _ = parse_engine_spec(engine)
            if graph is None and not engine_entry(name).graph_optional:
                graph = fallback_graph
            return create_engine(engine, graph), engine
        if graph is not None:
            raise HostError(
                "pass a graph only with a spec string; a ready engine "
                "already carries its own"
            )
        return engine, str(getattr(engine, "name", type(engine).__name__))

    def _provision_replicas(
        self,
        name: str,
        engine: EngineOrSpec,
        graph: Any,
        replicas: int,
        mmap_mode: str,
        *,
        fallback_graph: Any = None,
    ) -> tuple[Any, str, Path, Optional[Path]]:
        """Materialise a snapshot for ``engine`` and spawn a pool over it.

        Returns ``(pool, spec, snapshot_dir, owned_dir)``; ``owned_dir`` is
        the temp directory the host must delete when the pool retires (None
        when the caller's own ``snapshot:<dir>`` was used directly — that
        path stays shared and untouched, preserving page-cache sharing with
        anything else mapping it).
        """
        from repro.serving.replica import ReplicaPool

        if replicas < 1:
            raise HostError("replicas must be >= 1")
        owned_dir: Optional[Path] = None
        if isinstance(engine, str):
            from repro.api import parse_engine_spec

            scheme, spec_options = parse_engine_spec(engine)
            if scheme == "snapshot":
                # The snapshot already exists on disk: hand the directory to
                # the workers as-is — nothing is built (or even loaded) in
                # this process.
                snapshot_dir = Path(spec_options["path"])
                spec = engine
            else:
                built, spec = self._resolve_engine(
                    engine, graph, fallback_graph=fallback_graph
                )
                snapshot_dir = owned_dir = self._spill_snapshot(name, built, spec)
        else:
            built, spec = self._resolve_engine(engine, graph)
            snapshot_dir = owned_dir = self._spill_snapshot(name, built, spec)
        try:
            pool = ReplicaPool(
                snapshot_dir,
                replicas,
                mmap_mode=mmap_mode,
                name=name,
                obs=self._obs,
            )
        except BaseException:
            if owned_dir is not None:
                shutil.rmtree(owned_dir, ignore_errors=True)
            raise
        return pool, spec, snapshot_dir, owned_dir

    def _spill_snapshot(self, name: str, built: Any, spec: str) -> Path:
        """Persist a freshly built engine's index for replicas to map.

        The directory is host-owned (``tempfile.mkdtemp``) and deleted when
        the deployment (or the swapped-out generation) retires.
        """
        from repro.persistence import save_index

        index = getattr(built, "index", built)
        target = Path(tempfile.mkdtemp(prefix=f"repro-replicas-{name}-"))
        try:
            return save_index(index, target, engine_spec=spec)
        except BaseException:
            shutil.rmtree(target, ignore_errors=True)
            raise

    @staticmethod
    def _dispose_pool(pool: Any, owned_dir: Optional[Path]) -> None:
        """Tear down a retired replica pool and its host-owned snapshot.

        Both halves are optional (a rehydrated deployment has an owned dir
        but no pool any more) and idempotent.
        """
        if pool is not None:
            pool.close()
        if owned_dir is not None:
            shutil.rmtree(owned_dir, ignore_errors=True)
