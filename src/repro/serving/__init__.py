"""Serving layer: micro-batching workers plus the deployment control plane.

Three levels:

* :class:`QueryService` — one micro-batching, caching worker over one engine
  (see :mod:`repro.serving.service` for the batching/caching semantics and
  :mod:`repro.serving.stats` for the exported counters), with bounded
  admission and per-query deadlines (:mod:`repro.serving.admission`);
* :class:`EngineHost` — named deployments above the workers, with
  zero-downtime hot swap, snapshot-backed provisioning and an async facade
  (see :mod:`repro.serving.host`);
* the resilience layer — supervised recovery of dead/wedged workers with
  health reporting and fallback routing (:mod:`repro.serving.supervision`),
  plus deterministic fault injection to prove it works
  (:mod:`repro.serving.faults`);
* :class:`ReplicaPool` — multi-process scale-out under a deployment: ``N``
  worker processes each rehydrate the deployment's snapshot with
  ``mmap_mode="r"`` so they share one physical copy of the index arrays,
  and micro-batches spread over them by least load
  (:mod:`repro.serving.replica`; enable with
  ``host.deploy(name, spec, replicas=N)``).

The whole stack reports into the unified observability layer
(:mod:`repro.obs`): ``host.metrics_text()`` exposes a Prometheus scrape
surface, ``service.recent_traces()`` returns per-query span trees, and
supervision/swap/shed/fault events land in one :class:`~repro.obs.EventLog`
timeline.  Pass ``obs=Observability.disabled()`` to run with zero telemetry.

Typical deployment shape::

    host = EngineHost(
        max_batch_size=256,                   # inline flush at this size
        max_pending=4096,                     # bounded admission queue
        default_deadline_ms=250.0,            # no caller blocks forever
        supervision=SupervisionConfig(),      # background health checks
    )
    host.deploy("prod", "snapshot:/var/indexes/cal",      # load, don't build
                fallback="td-dijkstra")                   # degraded-mode standby
    cost = host.query("prod", source, target, departure)
    host.swap("prod", "td-appro?budget_fraction=0.3")     # zero downtime
    print(host.stats()["prod"])
    print(host.health("prod").state)
"""

from repro.serving.admission import (
    ADMISSION_POLICIES,
    ADMIT_BLOCK,
    ADMIT_SHED,
    aretry_submit,
    backoff_delays,
    retry_submit,
)
from repro.serving.faults import (
    FaultPlan,
    FaultyEngine,
    InjectedFaultError,
    TransientInjectedFaultError,
)
from repro.serving.host import DeploymentInfo, EngineHost, SwapReport
from repro.serving.replica import ReplicaInfo, ReplicaPool, ReplicaRecovery
from repro.serving.service import QueryService, ServiceFuture, ServiceProbe
from repro.serving.stats import ServiceStats
from repro.serving.supervision import (
    HealthReport,
    HealthState,
    RecoveryReport,
    Supervisor,
    SupervisionConfig,
)

__all__ = [
    "EngineHost",
    "DeploymentInfo",
    "SwapReport",
    "QueryService",
    "ServiceFuture",
    "ServiceProbe",
    "ServiceStats",
    # admission / retry
    "ADMISSION_POLICIES",
    "ADMIT_BLOCK",
    "ADMIT_SHED",
    "aretry_submit",
    "backoff_delays",
    "retry_submit",
    # fault injection
    "FaultPlan",
    "FaultyEngine",
    "InjectedFaultError",
    "TransientInjectedFaultError",
    # supervision
    "HealthState",
    "HealthReport",
    "RecoveryReport",
    "SupervisionConfig",
    "Supervisor",
    # multi-process replicas
    "ReplicaPool",
    "ReplicaInfo",
    "ReplicaRecovery",
]
