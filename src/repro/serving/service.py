"""A thread-safe micro-batching query service over any engine.

The vectorized batch path is several times faster than a per-call loop — but
only for callers that already hold whole arrays of queries.  Serving traffic
arrives one ``(source, target, departure)`` at a time, from many threads.
:class:`QueryService` bridges the two worlds with the classic micro-batching
pattern:

* :meth:`submit` enqueues one scalar query and returns a lightweight
  :class:`ServiceFuture` immediately;
* a background flusher sends everything pending through **one**
  ``batch_query`` call as soon as it is free: a lone query leaves at once,
  and queries that arrive while a flush runs accumulate and leave together
  when it returns, so batches form only when there is a queue.  A submit
  that brings the queue to ``max_batch_size`` flushes it inline;
* a bounded LRU result cache with optional departure-time bucketing fronts
  the whole pipeline, and is dropped automatically whenever
  :func:`repro.core.update.apply_edge_updates` rewrites the index (via the
  index's invalidation hooks).

The service fronts any :class:`repro.api.Engine`.  Engines advertising
``capabilities().batch`` flush through one vectorized call; for the others
(e.g. the ``td-dijkstra`` / ``tdg-tree`` baselines) each flush degrades to a
scalar-query loop, so the same micro-batching front-end — same futures,
cache, invalidation and stats — can A/B-compare a baseline against the index
under identical traffic.  Either way answers are bit-identical to calling the
engine's scalar ``query`` per request — micro-batching changes throughput and
latency, never results.  With ``bucket_seconds > 0`` a cache hit
may return the cost of an earlier departure from the same bucket; pick the
bucket width from the answer tolerance your traffic allows (0 keeps the
service exact).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.exceptions import (
    AdmissionRejectedError,
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
    WorkerCrashedError,
)
from repro.obs import (
    EVENT_ABORT,
    EVENT_DEADLINE,
    EVENT_SHED,
    STATUS_ERROR,
    STATUS_OK,
    EventLog,
    Histogram,
    MetricsRegistry,
    Observability,
    PipelineTrace,
    TraceLike,
    Tracer,
    get_observability,
)
from repro.serving.admission import ADMISSION_POLICIES, ADMIT_SHED
from repro.serving.stats import ServiceStats
from repro.utils.timing import SYSTEM_CLOCK, Clock

__all__ = ["QueryService", "ServiceFuture", "ServiceProbe"]

#: One vectorized flush: ``(sources, targets, departures) -> costs``.
BatchCompute = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
#: One scalar query: ``(source, target, departure) -> cost``.
ScalarCompute = Callable[[int, int, float], float]
#: Result-cache key: ``(source, target, departure-or-bucket)``.
CacheKey = tuple[int, int, float]

#: Guards the lazy allocation of a waiter event in :class:`ServiceFuture`.
#: Shared across futures: the slow path (blocking before the batch flushed)
#: is rare and short, and sharing keeps the per-query allocation at one
#: plain object instead of one lock-carrying Future.
_waiter_lock = threading.Lock()


class ServiceFuture:
    """A minimal future: ``result(timeout)`` / ``done()`` / ``exception()``.

    A drop-in subset of :class:`concurrent.futures.Future` tuned for the
    submit hot path: creating one allocates no lock — the wait event only
    materialises if a consumer blocks before the micro-batch has flushed, and
    the callback list only if someone bridges the future (e.g. the
    :class:`~repro.serving.EngineHost` async facade hands results to an
    ``asyncio`` loop through :meth:`add_done_callback`).

    Settlement is **first-wins**: once a result, an exception, or a deadline
    expiry has settled the future, later settlements are ignored — so a
    wedged batch that finally finishes cannot overwrite the
    :class:`~repro.exceptions.DeadlineExceededError` already delivered to the
    caller, and a racing ``set_exception`` runs the callbacks exactly once.
    """

    __slots__ = (
        "_done",
        "_value",
        "_error",
        "_event",
        "_callbacks",
        "_deadline",
        "_deadline_ms",
        "_expire_hook",
        "_clock",
        "_trace",
    )

    def __init__(self, clock: Clock = SYSTEM_CLOCK) -> None:
        self._done = False
        self._value: float | None = None
        self._error: BaseException | None = None
        self._event: threading.Event | None = None
        self._callbacks: list[Callable[["ServiceFuture"], None]] | None = None
        #: Absolute monotonic-clock deadline (None = no deadline).
        self._deadline: float | None = None
        self._deadline_ms: float | None = None
        #: Called once if the future settles by deadline expiry (the service
        #: wires its ``deadline_expired`` counter here).
        self._expire_hook: Callable[[float], None] | None = None
        self._clock = clock
        #: The query's trace; whichever settlement wins finishes it, so even
        #: a crash-failed or deadline-expired future yields a complete trace.
        self._trace: TraceLike | None = None

    def set_result(self, value: float) -> None:
        self._settle(value=value)

    def set_exception(self, error: BaseException) -> None:
        self._settle(error=error)

    def _settle(
        self, *, value: float | None = None, error: BaseException | None = None
    ) -> bool:
        """Settle once; returns False when another settlement won the race."""
        with _waiter_lock:
            if self._done:
                return False
            self._value = value
            self._error = error
            self._done = True
            event = self._event
            callbacks = self._callbacks
            self._callbacks = None
        if event is not None:
            event.set()
        trace = self._trace
        if trace is not None:
            self._trace = None  # only the settlement winner reaches here
            if error is not None:
                trace.finish(STATUS_ERROR, type(error).__name__)
            else:
                trace.finish(STATUS_OK)
        if callbacks:
            for fn in callbacks:
                self._invoke(fn)
        return True

    def done(self) -> bool:
        return self._done

    def add_done_callback(self, fn: Callable[["ServiceFuture"], None]) -> None:
        """Run ``fn(self)`` once the future settles (immediately if it has).

        Called from whichever thread settles the batch; exceptions raised by
        ``fn`` are swallowed so a broken callback cannot poison the other
        futures settled by the same flush.
        """
        with _waiter_lock:
            if not self._done:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(fn)
                return
        self._invoke(fn)

    def _invoke(self, fn: Callable[["ServiceFuture"], None]) -> None:
        try:
            fn(self)
        except Exception:  # noqa: BLE001 - see add_done_callback docstring
            pass

    def _arm_deadline(
        self, deadline: float, deadline_ms: float, expire_hook: Callable[[float], None]
    ) -> None:
        """Attach an absolute deadline (service-internal, set before publish)."""
        self._deadline = deadline
        self._deadline_ms = deadline_ms
        self._expire_hook = expire_hook

    def _expire(self) -> bool:
        """Settle with :class:`DeadlineExceededError`; False if already done."""
        deadline_ms = self._deadline_ms
        settled = self._settle(error=DeadlineExceededError(deadline_ms))
        if settled and self._expire_hook is not None:
            try:
                self._expire_hook(deadline_ms if deadline_ms is not None else 0.0)
            finally:
                self._expire_hook = None
        return settled

    def exception(self, timeout: float | None = None) -> BaseException | None:
        self._wait(timeout)
        return self._error

    def result(self, timeout: float | None = None) -> float:
        self._wait(timeout)
        if self._error is not None:
            raise self._error
        assert self._value is not None  # settled futures carry value or error
        return self._value

    def _wait(self, timeout: float | None) -> None:
        if self._done:
            return
        with _waiter_lock:
            if self._event is None:
                self._event = threading.Event()
        # Publish-then-recheck: if the setter raced us it either saw the
        # event (and set it) or completed before our recheck below.  The
        # caller's ``timeout`` is real time (it bounds how long this thread
        # blocks); the query's deadline lives on the service clock.
        end = None if timeout is None else time.monotonic() + timeout
        while not self._done:
            now = self._clock.monotonic()
            if self._deadline is not None and self._deadline - now <= 0.0:
                # The consumer enforces its own deadline: a wedged worker can
                # delay the answer, never the caller's unblocking.
                self._expire()
                return
            waits = []
            if end is not None:
                waits.append(end - time.monotonic())
            if self._deadline is not None:
                waits.append(self._deadline - now)
            wait_for = min(waits) if waits else None
            if wait_for is not None and wait_for <= 0.0:
                break
            self._event.wait(wait_for)
            if end is not None and time.monotonic() >= end:
                break
        if not self._done:
            raise TimeoutError("query result not available yet")


def _settle_batch_ok(batch: "list[_Pending]", costs: list[float]) -> None:
    """Settle a whole error-free batch under one ``_waiter_lock`` hold.

    Semantically identical to calling ``set_result`` per future — first-wins
    against racing deadline expiries, events set and traces finished outside
    the lock, callbacks run exactly once — but the flushed batch pays a
    single lock round-trip instead of one per query.  The lock is only held
    for plain slot writes, so the hold stays in the tens of microseconds even
    for a full 512-query batch.
    """
    events: list[threading.Event] = []
    traces: list[TraceLike] = []
    callback_runs: list[tuple[ServiceFuture, list[Callable[[ServiceFuture], None]]]] = []
    with _waiter_lock:
        for entry, value in zip(batch, costs):
            future = entry.future
            if future._done:
                continue  # a deadline expiry won the race; leave it be
            future._value = value
            future._done = True
            if future._event is not None:
                events.append(future._event)
            if future._callbacks:
                callback_runs.append((future, future._callbacks))
            future._callbacks = None
            trace = future._trace
            if trace is not None:
                future._trace = None
                traces.append(trace)
    for event in events:
        event.set()
    for trace in traces:
        trace.finish(STATUS_OK)
    for future, callbacks in callback_runs:
        for fn in callbacks:
            future._invoke(fn)


class _WeakInvalidationHook:
    """Index invalidation hook that does not keep the service alive.

    Registered on the index instead of a bound method: a service dropped
    without :meth:`QueryService.close` must still become garbage — the hook
    holds only weak references and unregisters itself once the service died.
    """

    __slots__ = ("_service_ref", "_index_ref")

    def __init__(self, service: "QueryService", index: Any) -> None:
        self._service_ref = weakref.ref(service)
        self._index_ref = weakref.ref(index)

    def __call__(self) -> None:
        service = self._service_ref()
        if service is not None:
            service.invalidate_cache()
            return
        index = self._index_ref()
        if index is not None:
            unregister = getattr(index, "unregister_invalidation_hook", None)
            if unregister is not None:
                unregister(self)


class _WeakRefreshHook:
    """Registry refresh hook that does not keep the service alive.

    Registered on the metrics registry so exports always see fresh counters
    (the service publishes deltas batch-wise, not per submit).  Weak for the
    same reason as :class:`_WeakInvalidationHook`: the process-wide registry
    outlives every service, and must not pin dropped ones.
    """

    __slots__ = ("_service_ref", "_registry_ref")

    def __init__(self, service: "QueryService", registry: MetricsRegistry) -> None:
        self._service_ref = weakref.ref(service)
        self._registry_ref = weakref.ref(registry)

    def __call__(self) -> None:
        service = self._service_ref()
        if service is not None:
            service._publish_metrics()
            return
        registry = self._registry_ref()
        if registry is not None:
            registry.unregister_refresh_hook(self)


class _ServiceInstruments:
    """Pre-bound registry children for one service's label set.

    Bound once at construction (label resolution off the hot path); the
    service mirrors its internal counters into these in batch-sized deltas
    via :meth:`QueryService._publish_metrics`.
    """

    __slots__ = (
        "submitted",
        "answered",
        "cache_hits",
        "batches",
        "shed",
        "deadline_expired",
        "in_flight",
        "cache_entries",
        "latency_ms",
    )

    def __init__(self, registry: MetricsRegistry, service: str) -> None:
        self.submitted = registry.counter(
            "repro_service_queries_total",
            "Queries accepted by submit(), including still-pending ones.",
            ("service",),
        ).labels(service=service)
        self.answered = registry.counter(
            "repro_service_answered_total",
            "Queries whose result or error has been delivered.",
            ("service",),
        ).labels(service=service)
        self.cache_hits = registry.counter(
            "repro_service_cache_hits_total",
            "Queries answered straight from the result cache.",
            ("service",),
        ).labels(service=service)
        self.batches = registry.counter(
            "repro_service_batches_total",
            "Micro-batches flushed through the engine.",
            ("service",),
        ).labels(service=service)
        self.shed = registry.counter(
            "repro_service_shed_total",
            "Queries rejected at admission (shed policy or block timeout).",
            ("service",),
        ).labels(service=service)
        self.deadline_expired = registry.counter(
            "repro_service_deadline_expired_total",
            "Futures settled with DeadlineExceededError.",
            ("service",),
        ).labels(service=service)
        self.in_flight = registry.gauge(
            "repro_service_in_flight",
            "Queries admitted but not yet answered (pending + executing).",
            ("service",),
        ).labels(service=service)
        self.cache_entries = registry.gauge(
            "repro_service_cache_entries",
            "Entries currently held by the result cache.",
            ("service",),
        ).labels(service=service)
        self.latency_ms = registry.histogram(
            "repro_service_latency_ms",
            "Submit-to-answer latency in milliseconds (log-scale buckets).",
            ("service",),
        ).labels(service=service)


def _flusher_main(service_ref: "weakref.ref[QueryService]") -> None:
    """Flusher thread body; holds the service only between waits.

    Each :meth:`QueryService._flusher_step` waits a bounded interval, so the
    strong reference taken here is dropped regularly and an abandoned service
    gets collected instead of being pinned by its own thread forever.
    """
    while True:
        service = service_ref()
        if service is None or service._flusher_step():
            return
        del service


def _resolve_compute(index: Any) -> tuple[Optional[BatchCompute], ScalarCompute]:
    """Pick the engine's batch/scalar cost paths.

    Returns ``(batch_fn, scalar_fn)`` where ``batch_fn(sources, targets,
    departures) -> costs`` is ``None`` when the engine advertises no batch
    capability (the service then loop-flushes through ``scalar_fn``).
    """
    scalar = lambda s, t, d: float(index.query(s, t, d).cost)  # noqa: E731
    if not index.capabilities().batch:
        return None, scalar
    return (lambda s, t, d: index.batch_query(s, t, d).costs), scalar


class _Pending:
    """One enqueued query: inputs, cache key, future, and its submit time."""

    __slots__ = (
        "source",
        "target",
        "departure",
        "key",
        "future",
        "submitted",
        "deadline",
        "trace",
    )

    def __init__(
        self,
        source: int,
        target: int,
        departure: float,
        key: CacheKey | None,
        submitted: float,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        self.source = source
        self.target = target
        self.departure = departure
        self.key = key
        self.future = ServiceFuture(clock)
        self.submitted = submitted
        #: Absolute monotonic-clock deadline, or None (no deadline).
        self.deadline: float | None = None
        #: The query's trace (None when tracing is disabled).  Carried on the
        #: entry — not thread-local — because the query hops threads: submit
        #: thread → flusher thread → whichever thread settles the batch.
        self.trace: PipelineTrace | None = None


@dataclass(frozen=True)
class ServiceProbe:
    """One liveness/health observation of a :class:`QueryService`.

    Produced by :meth:`QueryService.probe` for the supervisor: everything a
    health check needs to distinguish *healthy*, *wedged* (a batch stuck
    inside the engine, or pending queries aging with a dead flusher), and
    *failing* (consecutive whole-batch errors) — without touching the
    engine itself.
    """

    #: ``close()`` or ``abort()`` has run.
    closed: bool
    #: The flusher daemon thread is still running.
    flusher_alive: bool
    #: Age (seconds) of the oldest enqueued-but-unflushed query; 0.0 if none.
    oldest_pending_seconds: float
    #: How long the oldest in-progress engine flush has been executing; 0.0
    #: when no flush is in progress.
    flushing_seconds: float
    #: Consecutive flushes in which *every* query failed (reset by any
    #: success); a proxy for a poisoned engine.
    consecutive_batch_failures: int
    #: Queries enqueued and waiting to be flushed.
    pending: int
    #: Queries admitted but not yet answered (pending + executing).
    in_flight: int


class QueryService:
    """Micro-batching, caching front-end for one engine.

    Parameters
    ----------
    index:
        Any :class:`repro.api.Engine` (batched or not — engines without the
        ``batch`` capability are served through a scalar-query loop per
        flush).  When the engine exposes the invalidation-hook
        registry the result cache is wired into index updates.
    max_batch_size:
        Flush as soon as this many queries are pending.  The submitting
        thread that fills the batch performs the flush itself (no thread
        hand-off on the hot path).  Below that size a daemon flusher thread
        takes whatever is pending whenever it is free, so no query waits for
        co-travellers while the engine is idle.
    cache_size:
        Maximum number of cached results (LRU eviction); 0 disables caching.
    bucket_seconds:
        Width of the departure-time cache buckets.  0 (default) caches on the
        exact departure only, keeping the service's answers exact; a positive
        width trades bounded staleness within a bucket for a higher hit rate.
    max_pending:
        Admission bound: at most this many queries may be in flight
        (enqueued or executing) at once.  ``None`` (default) keeps the
        pre-resilience behaviour of an unbounded queue.  Cache hits bypass
        admission — they consume no worker capacity.
    admission_policy:
        What an over-capacity ``submit`` does: ``"block"`` (default) waits
        for capacity (backpressure), ``"shed"`` raises
        :class:`~repro.exceptions.AdmissionRejectedError` immediately.
    admission_timeout_ms:
        Upper bound on a ``"block"`` wait; past it the query is shed with
        :class:`~repro.exceptions.AdmissionRejectedError`.  ``None`` waits
        indefinitely (until capacity frees or the service closes).
    default_deadline_ms:
        Deadline applied to every submit that does not pass its own
        ``deadline_ms``.  A query whose deadline elapses before its answer
        settles with :class:`~repro.exceptions.DeadlineExceededError` — the
        caller is never blocked past the deadline, even by a wedged engine.
    name:
        The value of the ``service`` label on every metric this service
        publishes, and the ``subject`` of its structured events.
    obs:
        The :class:`~repro.obs.Observability` bundle to publish into
        (default: the process-wide bundle).  Pass
        ``Observability.disabled()`` to strip every trace/metric/event —
        the baseline the obs overhead benchmark compares against.
    clock:
        Monotonic time source for latencies, deadlines, and aging
        bookkeeping (default: the bundle's clock).  Inject a
        :class:`~repro.utils.timing.FakeClock` for deterministic
        deadline/aging tests.

    Examples
    --------
    >>> service = QueryService(index, max_batch_size=128)
    >>> futures = [service.submit(s, t, d) for s, t, d in workload]
    >>> costs = [f.result() for f in futures]
    >>> service.stats().batch_occupancy
    """

    def __init__(
        self,
        index: Any,
        *,
        max_batch_size: int = 256,
        cache_size: int = 65_536,
        bucket_seconds: float = 0.0,
        max_pending: int | None = None,
        admission_policy: str = "block",
        admission_timeout_ms: float | None = None,
        default_deadline_ms: float | None = None,
        name: str = "service",
        obs: Observability | None = None,
        clock: Clock | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if cache_size < 0 or bucket_seconds < 0:
            raise ValueError("cache_size and bucket_seconds must be >= 0")
        if admission_policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission_policy must be one of {ADMISSION_POLICIES}, "
                f"got {admission_policy!r}"
            )
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be at least 1 (or None for unbounded)")
        if admission_timeout_ms is not None and admission_timeout_ms < 0:
            raise ValueError("admission_timeout_ms must be >= 0")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be > 0")
        self._index = index
        self._batch_compute, self._scalar_compute = _resolve_compute(index)
        self.max_batch_size = int(max_batch_size)
        self.cache_size = int(cache_size)
        self.bucket_seconds = float(bucket_seconds)
        self.max_pending = None if max_pending is None else int(max_pending)
        self.admission_policy = admission_policy
        self.admission_timeout = (
            None if admission_timeout_ms is None else float(admission_timeout_ms) / 1000.0
        )
        self.default_deadline_ms = (
            None if default_deadline_ms is None else float(default_deadline_ms)
        )
        self.name = str(name)
        self._obs = obs if obs is not None else get_observability()
        self._clock: Clock = clock if clock is not None else self._obs.clock
        # One None-check per hot-path site is the entire cost of disabled obs.
        self._tracer: Tracer | None = self._obs.tracer if self._obs.enabled else None
        self._events: EventLog | None = self._obs.events if self._obs.enabled else None
        self._metrics = (
            _ServiceInstruments(self._obs.registry, self.name)
            if self._obs.enabled
            else None
        )
        #: Counter values already mirrored into the registry (delta publish).
        self._published = [0, 0, 0, 0, 0, 0]
        #: Submit-to-answer latency of every answered query, in ms.  It
        #: shares its bucket bounds with the registry histogram, so
        #: publishing is a bucket-count diff against the last published
        #: value — no per-query ``observe()`` on the shared instrument.
        self._latency = Histogram(
            "repro_service_latency_ms", "Submit-to-answer latency (ms)."
        ).labels()
        self._published_latency = self._latency.value

        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        #: Signalled whenever in-flight capacity frees up (blocked admits wait
        #: here) and on close/abort so no admit waits on a dead service.
        self._capacity = threading.Condition(self._lock)
        self._pending: list[_Pending] = []
        self._cache: OrderedDict[CacheKey, float] = OrderedDict()
        #: Bumped by invalidate_cache(); a batch computed against an older
        #: generation must not populate the cache (its costs may predate an
        #: index update that happened while the batch was in flight).
        self._cache_generation = 0
        self._closed = False

        # Counters (all mutated under the lock).
        self._submitted = 0
        self._answered = 0
        self._cache_hits = 0
        self._invalidations = 0
        self._num_batches = 0
        self._batched_queries = 0
        self._first_submit: float | None = None
        self._last_answer: float | None = None
        # Resilience state (also under the lock).
        self._in_flight = 0
        self._shed = 0
        self._deadline_expired = 0
        self._consecutive_batch_failures = 0
        #: Start times of the engine flushes now executing, oldest first (a
        #: size-triggered inline flush can overlap the flusher's).  Lets the
        #: supervisor see a wedged batch.
        self._flush_starts: list[float] = []

        self._invalidation_hook = _WeakInvalidationHook(self, index)
        register = getattr(index, "register_invalidation_hook", None)
        if register is not None:
            register(self._invalidation_hook)

        self._refresh_hook: _WeakRefreshHook | None = None
        if self._metrics is not None:
            self._refresh_hook = _WeakRefreshHook(self, self._obs.registry)
            self._obs.registry.register_refresh_hook(self._refresh_hook)

        self._flusher = threading.Thread(
            target=_flusher_main,
            args=(weakref.ref(self),),
            name="repro-query-service-flusher",
            daemon=True,
        )
        self._flusher.start()

    @property
    def engine(self) -> Any:
        """The engine (or index) this service computes against.

        The :class:`~repro.serving.EngineHost` uses this to reach through a
        deployment's front service to its compute backend — e.g. the
        :class:`~repro.serving.ReplicaPool` of a multi-process deployment.
        """
        return self._index

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        source: int,
        target: int,
        departure: float,
        *,
        deadline_ms: float | None = None,
    ) -> ServiceFuture:
        """Enqueue one travel-cost query; the future resolves to the cost.

        Disconnected or invalid queries resolve the future with the same
        :class:`~repro.exceptions.ReproError` subclass the scalar query
        raises.  With ``max_pending`` set, an over-capacity submit blocks or
        raises :class:`~repro.exceptions.AdmissionRejectedError` per the
        admission policy; ``deadline_ms`` (default: the service's
        ``default_deadline_ms``) bounds how long the returned future may stay
        unsettled before it fails with
        :class:`~repro.exceptions.DeadlineExceededError`.
        """
        source = int(source)
        target = int(target)
        departure = float(departure)
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0")
        effective_deadline_ms = (
            deadline_ms if deadline_ms is not None else self.default_deadline_ms
        )
        # The key only ever feeds cache lookups/inserts, both gated on
        # ``cache_size`` — skip building it on cache-off services.
        key = self._cache_key(source, target, departure) if self.cache_size else None
        now = self._clock.monotonic()
        tracer = self._tracer
        trace = (
            PipelineTrace("query", tracer, now, self.name, source, target)
            if tracer is not None
            else None
        )
        batch: list[_Pending] | None = None
        try:
            with self._lock:
                if self._closed:
                    raise ServiceClosedError("submit")
                if self._first_submit is None:
                    self._first_submit = now
                self._submitted += 1
                if key is not None:
                    cached = self._cache.get(key)
                    if cached is not None:
                        self._cache.move_to_end(key)
                        self._cache_hits += 1
                        self._answered += 1
                        done = self._clock.monotonic()
                        self._latency.observe((done - now) * 1000.0)
                        self._last_answer = done
                        future = ServiceFuture(self._clock)
                        if trace is not None:
                            trace.attrs["cache_hit"] = True
                            future._trace = trace  # settle finishes the trace
                        future.set_result(cached)
                        return future
                self._admit(now)
                self._in_flight += 1
                entry = _Pending(source, target, departure, key, now, self._clock)
                if trace is not None:
                    # Admission can only block when the service is bounded, so
                    # an unbounded service reuses the submit timestamp instead
                    # of reading the clock again.  Slot write == the
                    # ``enqueued()`` boundary, minus one frame per query.
                    trace._enqueued = (
                        now if self.max_pending is None else self._clock.monotonic()
                    )
                    entry.trace = trace
                    entry.future._trace = trace
                if effective_deadline_ms is not None:
                    entry.deadline = now + effective_deadline_ms / 1000.0
                    entry.future._arm_deadline(
                        entry.deadline, effective_deadline_ms, self._note_expired
                    )
                self._pending.append(entry)
                if len(self._pending) >= self.max_batch_size:
                    batch = self._pending
                    self._pending = []
                elif len(self._pending) == 1:
                    self._wakeup.notify()  # wake an idle flusher
        except ReproError as exc:
            # No future carries this trace (shed / closed): complete it here
            # so rejected submits still show up whole in the trace ring.
            if trace is not None:
                trace.finish(STATUS_ERROR, type(exc).__name__)
            raise
        if batch is not None:
            self._run_batch(batch)
        return entry.future

    def _admit(self, now: float) -> None:
        """Enforce the admission bound; caller holds the lock.

        Returns having reserved nothing — the caller increments
        ``_in_flight`` itself once the entry is actually created — but only
        after there is room for it (or raises).
        """
        if self.max_pending is None:
            return
        if self._in_flight < self.max_pending:
            return
        if self.admission_policy == ADMIT_SHED:
            self._shed += 1
            self._emit_shed(ADMIT_SHED)
            raise AdmissionRejectedError(self.max_pending, ADMIT_SHED)
        end = None if self.admission_timeout is None else now + self.admission_timeout
        while self._in_flight >= self.max_pending:
            if self._closed:
                raise ServiceClosedError("submit")
            wait_for = None
            if end is not None:
                wait_for = end - self._clock.monotonic()
                if wait_for <= 0.0:
                    self._shed += 1
                    self._emit_shed("block")
                    raise AdmissionRejectedError(self.max_pending, "block")
            self._capacity.wait(timeout=wait_for)
        if self._closed:
            raise ServiceClosedError("submit")

    def _emit_shed(self, policy: str) -> None:
        """Record one admission rejection in the event log (rare path)."""
        if self._events is not None:
            self._events.emit(
                EVENT_SHED, self.name, policy=policy, max_pending=self.max_pending
            )

    def _note_expired(self, deadline_ms: float) -> None:
        """Expire-hook wired into deadlined futures (counts expiries only).

        Capacity/answered accounting happens exactly once where the entry
        leaves the system (flusher-side expiry removal or ``_run_batch``);
        this hook runs on whichever thread wins the expiry race — possibly a
        consumer inside ``result()`` — so it touches nothing else.
        """
        with self._lock:
            self._deadline_expired += 1
        if self._events is not None:
            self._events.emit(EVENT_DEADLINE, self.name, deadline_ms=deadline_ms)

    def query(self, source: int, target: int, departure: float) -> float:
        """Blocking convenience wrapper: ``submit(...).result()``."""
        return self.submit(source, target, departure).result()

    def flush(self) -> int:
        """Synchronously flush whatever is pending; returns the batch size.

        Raises :class:`~repro.exceptions.ServiceClosedError` on a closed
        service — :meth:`close` has already drained everything there was.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("flush")
        return self._drain()

    def _drain(self) -> int:
        """Flush whatever is pending regardless of the closed flag."""
        with self._lock:
            batch = self._pending
            self._pending = []
        if batch:
            self._run_batch(batch)
        return len(batch)

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def _cache_key(self, source: int, target: int, departure: float) -> CacheKey:
        if self.bucket_seconds > 0.0:
            return source, target, int(departure // self.bucket_seconds)
        return source, target, departure

    def invalidate_cache(self) -> None:
        """Drop every cached result (wired into the index's update path)."""
        with self._lock:
            if self._closed:
                # A retired generation's cache is about to be garbage; updates
                # aimed at the live generation must not count invalidations
                # against this one (the hook list is snapshotted by
                # ``notify_invalidation``, so an in-flight notify can still
                # reach a service whose hook was just unregistered).
                return
            self._cache.clear()
            self._cache_generation += 1
            self._invalidations += 1

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    #: Upper bound on one flusher wait; bounds how long the thread pins the
    #: service between liveness checks (see :func:`_flusher_main`).
    _FLUSHER_WAIT_CAP = 0.1

    def _flusher_step(self) -> bool:
        """One bounded iteration of the flusher; True = thread exits.

        Expires overdue entries, then takes everything still pending; with
        nothing pending it waits for the first submit's ``notify``.
        """
        expired: list[_Pending] = []
        with self._wakeup:
            if self._closed:
                # close() drains after joining this thread; leaving the
                # pending batch to it keeps the drained-count it reports
                # exact (and the shutdown path single).
                return True
            if not self._pending:
                self._wakeup.wait(timeout=self._FLUSHER_WAIT_CAP)
                return False
            now = self._clock.monotonic()
            batch: list[_Pending] = []
            for entry in self._pending:
                if entry.deadline is not None and entry.deadline <= now:
                    expired.append(entry)
                else:
                    batch.append(entry)
            self._pending = []
            if expired:
                # Overdue entries leave without an engine call, so their
                # admission slots free up even when no consumer is blocked
                # in result().
                self._in_flight -= len(expired)
                self._answered += len(expired)
                self._last_answer = now
                self._capacity.notify_all()
        # Settle expired futures outside the lock: _expire runs callbacks.
        for entry in expired:
            entry.future._expire()
        if batch:
            self._run_batch(batch)
        return False

    def _per_query_costs(
        self, sources: np.ndarray, targets: np.ndarray, departures: np.ndarray
    ) -> tuple[np.ndarray, dict[int, Exception]]:
        """Answer a flush one query at a time (loop-flush / degraded mode)."""
        count = sources.size
        costs = np.full(count, np.nan)
        errors: dict[int, Exception] = {}
        for i in range(count):
            try:
                if self._batch_compute is not None:
                    costs[i] = self._batch_compute(
                        sources[i : i + 1], targets[i : i + 1], departures[i : i + 1]
                    )[0]
                else:
                    costs[i] = self._scalar_compute(
                        int(sources[i]), int(targets[i]), float(departures[i])
                    )
            except Exception as exc:
                errors[i] = exc
        return costs, errors

    def _run_batch(self, batch: list[_Pending]) -> None:
        """Answer one batch and settle futures.

        Batch-capable engines answer the whole flush with one vectorized
        call; the rest loop over the engine's scalar query (bit-identical
        answers either way — the flush strategy changes throughput only).
        Never lets an exception escape: every failure mode settles the
        affected futures instead, so a bad query (or engine bug) can neither
        kill the daemon flusher nor leave a caller blocked forever.
        """
        sources = np.fromiter((p.source for p in batch), np.int64, len(batch))
        targets = np.fromiter((p.target for p in batch), np.int64, len(batch))
        departures = np.fromiter((p.departure for p in batch), np.float64, len(batch))
        generation = self._cache_generation
        errors: dict[int, Exception] = {}
        if self._tracer is not None:
            # The whole batch leaves the queue at one instant: a single clock
            # read timestamps every pending-end/engine-start boundary.
            flushed = self._clock.monotonic()
            for entry in batch:
                trace = entry.trace
                if trace is not None:
                    # Slot write == the ``flushed()`` boundary, minus one
                    # frame per query.
                    trace._flushed = flushed
        with self._lock:
            started = self._clock.monotonic()
            self._flush_starts.append(started)
        try:
            if self._batch_compute is None:
                costs, errors = self._per_query_costs(sources, targets, departures)
            else:
                try:
                    costs = np.asarray(
                        self._batch_compute(sources, targets, departures),
                        dtype=np.float64,
                    )
                except ReproError:
                    # One bad query fails a whole vectorized call; degrade to
                    # per-query calls so the rest of the batch still gets
                    # answers.
                    costs, errors = self._per_query_costs(sources, targets, departures)
                except Exception as exc:
                    costs = np.full(len(batch), np.nan)
                    errors = {i: exc for i in range(len(batch))}
        finally:
            with self._lock:
                self._flush_starts.remove(started)

        now = self._clock.monotonic()
        if self._tracer is not None:
            # Successful engine spans are closed by the settle-side finish();
            # only failures need their error recorded on the span itself.
            for i, error in errors.items():
                trace = batch[i].trace
                if trace is not None:
                    trace.engine_done(now, type(error).__name__)
        # One ``tolist`` beats a ``float(costs[i])`` numpy-scalar read per
        # query in the settle and cache-insert loops below.
        costs_list: list[float] = costs.tolist()
        latencies_ms = [(now - p.submitted) * 1000.0 for p in batch]
        with self._lock:
            self._num_batches += 1
            self._batched_queries += len(batch)
            self._answered += len(batch)
            self._in_flight -= len(batch)
            self._capacity.notify_all()
            if batch and len(errors) == len(batch):
                self._consecutive_batch_failures += 1
            else:
                self._consecutive_batch_failures = 0
            self._last_answer = now
            self._latency.observe_many(latencies_ms)
            # Skip cache insertion when an invalidation raced the engine call
            # (these costs may predate the index update that triggered it) or
            # the service retired mid-batch — invalidate_cache() no-ops once
            # closed, so a torn insert would never be cleared.
            if (
                self.cache_size
                and not self._closed
                and generation == self._cache_generation
            ):
                for i, entry in enumerate(batch):
                    if i in errors or entry.key is None:
                        continue
                    self._cache[entry.key] = costs_list[i]
                    self._cache.move_to_end(entry.key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        if errors:
            for i, entry in enumerate(batch):
                error = errors.get(i)
                if error is not None:
                    entry.future.set_exception(error)
                else:
                    entry.future.set_result(costs_list[i])
        else:
            _settle_batch_ok(batch, costs_list)
        if self._metrics is not None:
            self._publish_metrics()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def _publish_metrics(self) -> None:
        """Mirror counter deltas into the registry (pull-model publishing).

        Called after every flushed batch and as a registry refresh hook, so
        the hot path pays one plain-int increment per event while exports
        still read up-to-date values.  Safe from any thread.
        """
        metrics = self._metrics
        if metrics is None:
            return
        with self._lock:
            current = [
                self._submitted,
                self._answered,
                self._cache_hits,
                self._num_batches,
                self._shed,
                self._deadline_expired,
            ]
            deltas = [c - p for c, p in zip(current, self._published)]
            self._published = current
            in_flight = self._in_flight
            cache_entries = len(self._cache)
            latency = self._latency.value
            published = self._published_latency
            bucket_deltas = [c - p for c, p in zip(latency.counts, published.counts)]
            sum_delta_ms = latency.sum - published.sum
            self._published_latency = latency
        children = (
            metrics.submitted,
            metrics.answered,
            metrics.cache_hits,
            metrics.batches,
            metrics.shed,
            metrics.deadline_expired,
        )
        for child, delta in zip(children, deltas):
            if delta:
                child.inc(delta)
        if any(bucket_deltas):
            metrics.latency_ms.merge_counts(bucket_deltas, sum_delta_ms)
        metrics.in_flight.set(in_flight)
        metrics.cache_entries.set(cache_entries)

    def recent_traces(self, n: int | None = None) -> list[TraceLike]:
        """The most recently completed query traces (newest last).

        Empty when the service's observability bundle is disabled.  The ring
        lives on the bundle's tracer, so services sharing one bundle (e.g.
        the deployments of one :class:`~repro.serving.EngineHost`) see a
        merged ring — filter on the ``service`` attr to split it.
        """
        if self._tracer is None:
            return []
        return self._tracer.recent(n)

    def stats(self) -> ServiceStats:
        """A consistent snapshot of the service counters."""
        with self._lock:
            avg_batch = (
                self._batched_queries / self._num_batches if self._num_batches else 0.0
            )
            elapsed = 0.0
            if self._first_submit is not None and self._last_answer is not None:
                elapsed = max(self._last_answer - self._first_submit, 0.0)
            return ServiceStats(
                queries_submitted=self._submitted,
                queries_answered=self._answered,
                cache_hits=self._cache_hits,
                cache_entries=len(self._cache),
                cache_invalidations=self._invalidations,
                num_batches=self._num_batches,
                avg_batch_size=avg_batch,
                batch_occupancy=avg_batch / self.max_batch_size,
                elapsed_seconds=elapsed,
                shed=self._shed,
                deadline_expired=self._deadline_expired,
                latency_bucket_counts=self._latency.value.counts,
            )

    def probe(self) -> ServiceProbe:
        """One consistent liveness observation (see :class:`ServiceProbe`).

        Cheap (one lock acquisition, no engine calls) — the supervisor polls
        it every interval; tests call it directly for deterministic health
        checks.
        """
        now = self._clock.monotonic()
        with self._lock:
            oldest = (
                max(now - self._pending[0].submitted, 0.0) if self._pending else 0.0
            )
            flushing = (
                max(now - self._flush_starts[0], 0.0)
                if self._flush_starts
                else 0.0
            )
            return ServiceProbe(
                closed=self._closed,
                flusher_alive=self._flusher.is_alive(),
                oldest_pending_seconds=oldest,
                flushing_seconds=flushing,
                consecutive_batch_failures=self._consecutive_batch_failures,
                pending=len(self._pending),
                in_flight=self._in_flight,
            )

    def abort(self, error: BaseException | None = None) -> int:
        """Kill the service NOW: fail every pending future with ``error``.

        The supervisor's counterpart to :meth:`close`: no drain (the engine
        may be wedged or poisoned — running one more batch through it is
        exactly what we must not do) and no flusher join (the flusher may
        *be* the wedged thread).  Marks the service closed, settles every
        enqueued future with ``error`` (default
        :class:`~repro.exceptions.WorkerCrashedError`), wakes blocked
        admission waiters, and detaches from the index.  Returns how many
        futures it failed.  Idempotent: a second call returns 0.
        """
        if error is None:
            error = WorkerCrashedError("<service>", "aborted")
        with self._lock:
            if self._closed:
                return 0
            self._closed = True
            abandoned = self._pending
            self._pending = []
            self._in_flight -= len(abandoned)
            self._answered += len(abandoned)
            self._last_answer = self._clock.monotonic()
            self._wakeup.notify_all()
            self._capacity.notify_all()
        # Same ordering rationale as close(): detach from the index first so
        # a racing update cannot fire into this retired generation's cache.
        unregister = getattr(self._index, "unregister_invalidation_hook", None)
        if unregister is not None:
            unregister(self._invalidation_hook)
        for entry in abandoned:
            entry.future.set_exception(error)
        if self._events is not None:
            self._events.emit(
                EVENT_ABORT, self.name, failed=len(abandoned), error=type(error).__name__
            )
        self._detach_obs()
        return len(abandoned)

    def close(self) -> int:
        """Flush pending queries, stop the flusher, and detach from the index.

        Returns how many still-pending queries the final drain answered (0 on
        repeated close) — the hot-swap path reports it as the number of
        queries the outgoing engine answered after traffic had already moved.
        Idempotent and safe under concurrent calls: exactly one caller drains
        (and reports the drained count); every other call returns 0
        immediately.
        """
        with self._lock:
            if self._closed:
                return 0
            self._closed = True
            self._wakeup.notify_all()
            self._capacity.notify_all()
        # Detach from the index BEFORE the drain, not after: during a hot
        # swap the successor service is already registered on the (shared or
        # cloned) index, and an update racing this close would otherwise fire
        # our hook mid-drain and bill the invalidation to the retired
        # generation's cache.
        unregister = getattr(self._index, "unregister_invalidation_hook", None)
        if unregister is not None:
            unregister(self._invalidation_hook)
        self._flusher.join(timeout=5.0)
        drained = self._drain()
        self._detach_obs()
        return drained

    def _detach_obs(self) -> None:
        """Final metrics publish, then stop refreshing for this service."""
        self._publish_metrics()
        if self._refresh_hook is not None:
            self._obs.registry.unregister_refresh_hook(self._refresh_hook)
            self._refresh_hook = None

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryService(max_batch_size={self.max_batch_size}, "
            f"cache_size={self.cache_size}, bucket_seconds={self.bucket_seconds:g})"
        )
