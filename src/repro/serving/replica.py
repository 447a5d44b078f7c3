"""Multi-process replica serving: N workers over one shared snapshot.

A single :class:`~repro.serving.QueryService` saturates one core — every
flush runs under the GIL, so adding submitter threads moves the queueing
around without adding throughput.  :class:`ReplicaPool` breaks that ceiling
with the only parallelism CPython gives away for free: **processes**.

The design leans on two properties the rest of the stack already provides:

* The paper's query-time tables assume the index is *read-only* at serve
  time, and the snapshot format (:mod:`repro.persistence.snapshot`) stores
  it as a handful of flat, uncompressed ``.npz`` buffers.  Every replica
  worker therefore rehydrates the **same** snapshot with
  ``load_index(path, mmap_mode="r")`` — the ragged PLF payload is mapped,
  not copied, so N replicas share one physical copy in the OS page cache and
  the pool costs one index's worth of RAM, not N.
* The :class:`~repro.serving.QueryService` front-end already turns scalar
  traffic into micro-batches.  The pool slots in *below* it as a drop-in
  engine (``capabilities().batch`` is true): each flushed micro-batch ships
  as one ``(sources, targets, departures)`` array triple over a
  ``multiprocessing`` queue — a few pickle frames per hundreds of queries,
  never per query — and comes back as one costs array.

Responses travel over one dedicated pipe **per replica**, not a shared
queue.  A shared ``multiprocessing.Queue`` guards its pipe with a
cross-process semaphore, and a worker SIGKILLed between writing its answer
and releasing that semaphore leaves the lock held forever — poisoning the
response path for every sibling *and* every future respawn.  With a
single-writer pipe per replica there is no cross-process lock to orphan: a
dead worker can corrupt nothing but its own pipe, which the dispatcher
detects as EOF and discards.

Routing is least-loaded with round-robin tie-breaking: each request goes to
the live replica with the fewest in-flight batches, so a replica stuck on a
slow batch stops receiving new work while its siblings drain the queue.

Liveness: :meth:`ReplicaPool.check` detects dead workers (``is_alive()``),
fails their outstanding requests with the pickled-through
:class:`~repro.exceptions.WorkerCrashedError`, and respawns them from the
snapshot.  The :class:`~repro.serving.EngineHost` folds this into its
supervision ladder — ``host.check()`` calls ``pool.check()`` for replica
deployments and counts respawns as worker restarts.  A caller blocked on a
request to a replica that died is never stranded: the wait loop itself
notices the dead process and triggers the same recovery.

Answers are bit-identical to the engine's own scalar ``query``: the workers
run the very engine the snapshot rehydrates, and the snapshot round-trip is
bit-exact — process distribution changes throughput, never results.

The workers use the ``spawn`` start method unconditionally.  ``fork`` would
be cheaper but is unsafe here: the parent runs daemon threads (service
flushers, supervisors, this pool's dispatcher) whose locks would be cloned
mid-flight into the child.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mp_connection
import os
import pickle
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.exceptions import ServiceClosedError, SnapshotError, WorkerCrashedError
from repro.obs import (
    EVENT_REPLICA_RESPAWN,
    EVENT_REPLICA_SPAWN,
    Histogram,
    Observability,
    get_observability,
)
from repro.serving.stats import ServiceStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection
    from multiprocessing.context import SpawnContext
    from multiprocessing.process import BaseProcess
    from multiprocessing.queues import Queue as MPQueue

    from repro.api.types import EngineCapabilities

__all__ = ["ReplicaPool", "ReplicaInfo", "ReplicaRecovery"]

#: Wire messages, both directions: ``(kind, *payload)`` tuples.
Message = tuple[Any, ...]


@dataclass(frozen=True)
class ReplicaInfo:
    """One replica worker's state as of the observation."""

    #: Replica index within the pool (stable across respawns).
    index: int
    #: OS pid of the current worker process (None before the first ready).
    pid: Optional[int]
    #: The worker process is running.
    alive: bool
    #: Times this slot was (re)spawned — 1 for a never-crashed replica.
    spawns: int
    #: Snapshot rehydration time of the current worker, in seconds.
    load_seconds: float
    #: Requests currently dispatched to this replica and not yet answered.
    inflight: int


@dataclass(frozen=True)
class ReplicaRecovery:
    """What one :meth:`ReplicaPool.check` pass did about a dead replica."""

    #: Replica index the recovery acted on.
    replica: int
    #: ``"respawn"`` (a fresh worker is serving) or ``"lost"`` (the respawn
    #: itself failed; the slot stays dead until the next check).
    action: str
    #: Why recovery ran (exit code, or the worker's shipped traceback).
    cause: str
    #: Outstanding requests failed with :class:`WorkerCrashedError`.
    failed_requests: int


class _Slot:
    """Parent-side rendezvous for one in-flight request."""

    __slots__ = ("event", "value", "error", "replica")

    def __init__(self, replica: int) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.replica = replica


class _Replica:
    """Parent-side record of one worker slot (mutated under the pool lock)."""

    __slots__ = (
        "index",
        "process",
        "requests",
        "conn",
        "ready",
        "load_error",
        "crash_cause",
        "inflight",
        "spawns",
        "load_seconds",
        "pid",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional["BaseProcess"] = None
        self.requests: Optional["MPQueue[Message]"] = None
        #: Parent-side read end of this worker's response pipe.
        self.conn: Optional["Connection"] = None
        #: Set by the dispatcher when the worker reports ready (or failed).
        self.ready = threading.Event()
        #: Traceback of a failed snapshot rehydration, if any.
        self.load_error: Optional[str] = None
        #: Traceback shipped by a worker that crashed mid-loop, if any.
        self.crash_cause: Optional[str] = None
        self.inflight = 0
        self.spawns = 0
        self.load_seconds = 0.0
        self.pid: Optional[int] = None


def _portable_error(exc: BaseException, pool: str) -> BaseException:
    """Make sure an error can cross the process boundary intact.

    The library's typed errors define ``__reduce__`` and round-trip
    losslessly; anything that does not pickle is replaced before ``send()``
    — an exception that failed to pickle mid-send would otherwise crash
    the worker loop and strand the parent's waiter.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return WorkerCrashedError(
            pool, f"replica error did not survive pickling: {type(exc).__name__}: {exc}"
        )


def _send_quietly(conn: "Connection", message: Message) -> None:
    """Best-effort send for a worker's last words (parent may be gone)."""
    try:
        conn.send(message)
    except (OSError, ValueError):
        pass


def _replica_worker_main(
    index: int,
    snapshot_path: str,
    mmap_mode: str,
    requests: "MPQueue[Message]",
    responses: "Connection",
    pool_name: str,
) -> None:
    """Worker process body: rehydrate the snapshot, answer until ``stop``.

    Pure request/response — requests arrive on a queue, answers leave on
    this worker's own response pipe — with no shared state beyond the page
    cache holding the mapped snapshot.  Every failure mode produces a
    message: engine errors ship back per request (typed, pickle-safe), a
    failed rehydration or a crashed loop ships a ``("crash", ...)`` with
    the traceback so the parent can report *why* instead of just seeing a
    dead pid.
    """
    started = time.perf_counter()
    try:
        from repro.api import create_engine

        engine = create_engine(f"snapshot:{snapshot_path}", mmap_mode=mmap_mode)
    except BaseException:  # noqa: BLE001 - shipped to the parent, not lost
        _send_quietly(responses, ("crash", index, traceback.format_exc(limit=20)))
        return
    latency = Histogram("repro_replica_latency_ms", "Engine call latency (ms).").labels()
    submitted = answered = batches = batched = 0
    first: Optional[float] = None
    last: Optional[float] = None
    try:
        responses.send(("ready", index, os.getpid(), time.perf_counter() - started))
    except (OSError, ValueError):
        return  # parent tore the pipe down (pool closed mid-startup)
    try:
        while True:
            msg = requests.get()
            kind = msg[0]
            if kind == "stop":
                return
            request_id = msg[1]
            if kind == "batch":
                sources, targets, departures = msg[2], msg[3], msg[4]
                begun = time.perf_counter()
                if first is None:
                    first = begun
                submitted += int(sources.size)
                try:
                    costs = np.asarray(
                        engine.batch_query(sources, targets, departures).costs,
                        dtype=np.float64,
                    )
                except BaseException as exc:  # noqa: BLE001 - answered, not raised
                    responses.send(("error", index, request_id, _portable_error(exc, pool_name)))
                    continue
                done = time.perf_counter()
                count = int(costs.size)
                answered += count
                batches += 1
                batched += count
                last = done
                latency.observe_many([(done - begun) * 1000.0] * count)
                responses.send(("done", index, request_id, costs))
            elif kind == "scalar":
                source, target, departure = msg[2], msg[3], msg[4]
                begun = time.perf_counter()
                if first is None:
                    first = begun
                submitted += 1
                try:
                    cost = float(engine.query(int(source), int(target), float(departure)).cost)
                except BaseException as exc:  # noqa: BLE001 - answered, not raised
                    responses.send(("error", index, request_id, _portable_error(exc, pool_name)))
                    continue
                done = time.perf_counter()
                answered += 1
                batches += 1
                batched += 1
                last = done
                latency.observe((done - begun) * 1000.0)
                responses.send(("done", index, request_id, cost))
            elif kind == "stats":
                elapsed = (last - first) if first is not None and last is not None else 0.0
                stats = ServiceStats(
                    queries_submitted=submitted,
                    queries_answered=answered,
                    cache_hits=0,
                    cache_entries=0,
                    cache_invalidations=0,
                    num_batches=batches,
                    avg_batch_size=(batched / batches) if batches else 0.0,
                    batch_occupancy=0.0,
                    elapsed_seconds=elapsed,
                    latency_bucket_counts=latency.value.counts,
                )
                responses.send(("done", index, request_id, stats))
            else:  # pragma: no cover - protocol error, ship it back
                responses.send(
                    (
                        "error",
                        index,
                        request_id,
                        WorkerCrashedError(pool_name, f"unknown request kind {kind!r}"),
                    )
                )
    except BaseException:  # noqa: BLE001 - shipped to the parent, not lost
        _send_quietly(responses, ("crash", index, traceback.format_exc(limit=20)))


def _dispatcher_main(pool_ref: "weakref.ref[ReplicaPool]") -> None:
    """Response-demux thread body; holds the pool only between queue waits."""
    while True:
        pool = pool_ref()
        if pool is None or pool._dispatch_step():
            return
        del pool


def _reap(processes: "list[BaseProcess]") -> None:
    """Finalizer: terminate whatever worker processes are still running."""
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass


class _BatchCosts:
    """Minimal ``batch_query`` result: the costs array (no path provenance)."""

    __slots__ = ("costs",)

    def __init__(self, costs: np.ndarray) -> None:
        self.costs = costs


class _ScalarCost:
    """Minimal ``query`` result: the cost (no path provenance)."""

    __slots__ = ("cost",)

    def __init__(self, cost: float) -> None:
        self.cost = cost


class ReplicaPool:
    """N subprocess workers serving one snapshot; drop-in batch engine.

    Parameters
    ----------
    snapshot_path:
        A snapshot directory written by :func:`repro.persistence.save_index`
        (or :meth:`EngineHost.snapshot`).  Every worker rehydrates from it.
    replicas:
        Number of worker processes.  Throughput scales with cores; past the
        machine's core count extra replicas only add switching overhead.
    mmap_mode:
        How workers map the snapshot arrays: ``"r"`` (default, read-only
        pages shared between all replicas) or ``"c"`` (copy-on-write).
    name:
        Pool name — the ``pool`` label on replica metrics, the subject of
        replica lifecycle events, and the ``deployment`` field of the
        :class:`~repro.exceptions.WorkerCrashedError` raised for requests a
        dead replica took down.
    obs:
        Observability bundle for per-replica metrics/events (default: the
        process-wide bundle; pass ``Observability.disabled()`` for none).
    start_timeout_s:
        How long to wait for each worker's snapshot rehydration before
        declaring the spawn failed.  Spawned workers import numpy and the
        library from scratch, so cold starts cost O(1s) per worker.
    request_timeout_s:
        Upper bound on one request's round trip; ``None`` (default) trusts
        the front-end's per-query deadlines instead.  A replica that dies
        mid-request never strands the caller either way — the wait loop
        notices the dead process and fails over.

    The pool implements the :class:`repro.api.Engine` batch surface
    (``capabilities().batch``), so the normal
    :class:`~repro.serving.QueryService` micro-batching front-end works
    unchanged on top — that is exactly what
    ``EngineHost.deploy(name, spec, replicas=N)`` wires up.
    """

    def __init__(
        self,
        snapshot_path: "str | Path",
        replicas: int,
        *,
        mmap_mode: str = "r",
        name: str = "replica-pool",
        obs: Optional[Observability] = None,
        start_timeout_s: float = 120.0,
        request_timeout_s: Optional[float] = None,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self._snapshot_path = Path(snapshot_path)
        from repro.persistence import read_manifest

        # Fail fast (and with the right error) before any process spawns.
        self.manifest = read_manifest(self._snapshot_path)
        if not isinstance(mmap_mode, str) or mmap_mode not in ("r", "c"):
            raise SnapshotError(
                f"unsupported mmap_mode {mmap_mode!r}: replica workers may map "
                "the shared snapshot read-only ('r') or copy-on-write ('c')"
            )
        self._mmap_mode = mmap_mode
        self.name = str(name)
        self._obs = obs if obs is not None else get_observability()
        self.request_timeout_s = request_timeout_s
        self._ctx: "SpawnContext" = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        #: Response-pipe read ends replaced by a respawn (or shut down by
        #: close()); only the dispatcher thread closes them, so a file
        #: descriptor is never torn down while the dispatcher selects on it.
        self._retired_conns: list["Connection"] = []
        #: Serializes check() passes (spawns must not race each other).
        self._check_lock = threading.Lock()
        self._slots: dict[int, _Slot] = {}
        self._next_request_id = 0
        self._rr = 0
        self._closed = False
        self._replicas = [_Replica(i) for i in range(int(replicas))]
        #: Every process ever spawned, for the gc finalizer (never trimmed:
        #: dead handles are cheap, and the list must outlive the pool).
        self._all_processes: "list[BaseProcess]" = []
        self._finalizer = weakref.finalize(self, _reap, self._all_processes)
        if self._obs.enabled:
            registry = self._obs.registry
            self._m_alive = registry.gauge(
                "repro_replica_alive",
                "Replica worker liveness: 1=running, 0=dead/unspawned.",
                ("pool", "replica"),
            )
            self._m_respawns = registry.counter(
                "repro_replica_respawns_total",
                "Replica workers respawned from the snapshot after a crash.",
                ("pool", "replica"),
            )
            self._m_batches = registry.counter(
                "repro_replica_batches_total",
                "Micro-batches answered, per replica worker.",
                ("pool", "replica"),
            )
        else:
            self._m_alive = None
            self._m_respawns = None
            self._m_batches = None
        self._dispatcher = threading.Thread(
            target=_dispatcher_main,
            args=(weakref.ref(self),),
            name=f"repro-replica-dispatcher-{self.name}",
            daemon=True,
        )
        self._dispatcher.start()
        try:
            for replica in self._replicas:
                self._spawn(replica)
            deadline = time.monotonic() + float(start_timeout_s)
            for replica in self._replicas:
                self._await_ready(replica, deadline)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Engine surface (what the QueryService front-end calls)
    # ------------------------------------------------------------------
    def capabilities(self) -> "EngineCapabilities":
        """Batch queries only: no profiles, no updates, no path provenance.

        The pool serves a frozen snapshot — updates would have to reach N
        processes atomically, which is exactly the problem snapshots + hot
        swap already solve at the :class:`~repro.serving.EngineHost` layer.
        """
        from repro.api.types import EngineCapabilities

        return EngineCapabilities(batch=True)

    def batch_query(
        self, sources: np.ndarray, targets: np.ndarray, departures: np.ndarray
    ) -> _BatchCosts:
        """Answer one micro-batch on the least-loaded live replica.

        Blocks the calling thread (the service's flusher) until the replica
        answers; errors raised by the worker-side engine — including the
        typed per-query errors a degraded flush needs — re-raise here
        exactly as the pickled originals.
        """
        value = self._request(
            "batch",
            (
                np.ascontiguousarray(sources, dtype=np.int64),
                np.ascontiguousarray(targets, dtype=np.int64),
                np.ascontiguousarray(departures, dtype=np.float64),
            ),
        )
        return _BatchCosts(np.asarray(value, dtype=np.float64))

    def query(self, source: int, target: int, departure: float) -> _ScalarCost:
        """One scalar query, round-tripped through a replica."""
        value = self._request("scalar", (int(source), int(target), float(departure)))
        return _ScalarCost(float(value))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Configured number of replica slots."""
        return len(self._replicas)

    @property
    def mmap_mode(self) -> str:
        """How workers map the snapshot arrays (``"r"`` or ``"c"``)."""
        return self._mmap_mode

    @property
    def snapshot_path(self) -> Path:
        """The snapshot directory every worker rehydrates from."""
        return self._snapshot_path

    @property
    def alive_count(self) -> int:
        """Replica workers currently running."""
        return sum(1 for r in self._replicas if r.process is not None and r.process.is_alive())

    @property
    def closed(self) -> bool:
        return self._closed

    def replicas(self) -> list[ReplicaInfo]:
        """Per-replica state (index, pid, liveness, spawn count, load time)."""
        with self._lock:
            return [
                ReplicaInfo(
                    index=r.index,
                    pid=r.pid,
                    alive=r.process is not None and r.process.is_alive(),
                    spawns=r.spawns,
                    load_seconds=r.load_seconds,
                    inflight=r.inflight,
                )
                for r in self._replicas
            ]

    def stats(self) -> list[ServiceStats]:
        """One :class:`ServiceStats` per replica, in replica order.

        Dead replicas report :meth:`ServiceStats.empty` — their counters
        died with them.  Merge with :meth:`merged_stats` (the same exact
        histogram-bucket merge that folds swap generations).
        """
        parts: list[ServiceStats] = []
        for replica in self._replicas:
            process = replica.process
            if self._closed or process is None or not process.is_alive():
                parts.append(ServiceStats.empty())
                continue
            try:
                value = self._request("stats", (), replica=replica)
            except (ServiceClosedError, WorkerCrashedError):
                parts.append(ServiceStats.empty())
                continue
            parts.append(value if isinstance(value, ServiceStats) else ServiceStats.empty())
        return parts

    def merged_stats(self) -> ServiceStats:
        """The whole pool's counters, exactly merged across replicas."""
        return ServiceStats.merged(self.stats())

    # ------------------------------------------------------------------
    # Liveness / recovery
    # ------------------------------------------------------------------
    def check(self) -> list[ReplicaRecovery]:
        """Detect dead replicas, fail their requests, respawn from snapshot.

        Synchronous and idempotent — safe from the host's supervision pass,
        a stuck waiter's failover path, or a test.  Returns one
        :class:`ReplicaRecovery` per dead replica handled this pass.
        """
        recoveries: list[ReplicaRecovery] = []
        with self._check_lock:
            if self._closed:
                return recoveries
            for replica in self._replicas:
                process = replica.process
                if process is None or process.is_alive():
                    continue
                cause = replica.crash_cause or (
                    f"replica {replica.index} (pid {replica.pid}) exited "
                    f"with code {process.exitcode}"
                )
                replica.crash_cause = None
                failed = self._fail_replica_slots(replica.index, cause)
                if self._m_alive is not None:
                    self._m_alive.set(0.0, pool=self.name, replica=str(replica.index))
                try:
                    self._spawn(replica)
                    self._await_ready(replica, time.monotonic() + 120.0)
                    action = "respawn"
                    if self._m_respawns is not None:
                        self._m_respawns.inc(
                            1.0, pool=self.name, replica=str(replica.index)
                        )
                except Exception as exc:  # noqa: BLE001 - reported, not raised
                    action = "lost"
                    cause = f"{cause}; respawn failed: {exc}"
                recovery = ReplicaRecovery(
                    replica=replica.index,
                    action=action,
                    cause=cause,
                    failed_requests=failed,
                )
                recoveries.append(recovery)
                if self._obs.enabled:
                    self._obs.events.emit(
                        EVENT_REPLICA_RESPAWN,
                        self.name,
                        replica=replica.index,
                        action=action,
                        cause=cause,
                        failed_requests=failed,
                    )
        return recoveries

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker and fail whatever requests are still in flight.

        Idempotent.  Workers get a ``stop`` message and a bounded join;
        stragglers are terminated — the snapshot on disk is the durable
        state, worker processes hold nothing worth draining.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            orphans = list(self._slots.values())
            self._slots.clear()
        for slot in orphans:
            slot.error = ServiceClosedError("batch_query")
            slot.event.set()
        for replica in self._replicas:
            requests = replica.requests
            if requests is not None:
                try:
                    requests.put(("stop",))
                except (OSError, ValueError):
                    pass
        for replica in self._replicas:
            process = replica.process
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if self._m_alive is not None:
                self._m_alive.set(0.0, pool=self.name, replica=str(replica.index))
        # The dispatcher sees _closed and drains to exit; once it is gone it
        # can no longer select on the response pipes, so closing them here
        # is safe.  If it is wedged (it should never be), leave the fds to
        # the garbage collector rather than close them under a live select.
        self._dispatcher.join(timeout=5.0)
        if not self._dispatcher.is_alive():
            with self._lock:
                leftovers = self._retired_conns
                self._retired_conns = []
                for replica in self._replicas:
                    if replica.conn is not None:
                        leftovers.append(replica.conn)
                        replica.conn = None
            for conn in leftovers:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ReplicaPool(name={self.name!r}, replicas={self.size}, "
            f"alive={self.alive_count}, snapshot={str(self._snapshot_path)!r})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _spawn(self, replica: _Replica) -> None:
        """Start (or restart) one worker process for ``replica``.

        Each spawn gets a fresh request queue *and* a fresh response pipe:
        a SIGKILLed predecessor may have died holding the request queue's
        internal lock or mid-write on the pipe, so nothing it ever touched
        is reused.  The stale read end is handed to the dispatcher for
        closing (see :attr:`_retired_conns`).
        """
        replica.ready.clear()
        replica.load_error = None
        replica.requests = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_replica_worker_main,
            args=(
                replica.index,
                str(self._snapshot_path),
                self._mmap_mode,
                replica.requests,
                send_conn,
                self.name,
            ),
            name=f"repro-replica-{self.name}-{replica.index}",
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the write end: once the worker dies its
        # pipe hits EOF, which is how the dispatcher learns to discard it.
        send_conn.close()
        with self._lock:
            stale = replica.conn
            if stale is not None:
                self._retired_conns.append(stale)
            replica.conn = recv_conn
            replica.process = process
            replica.spawns += 1
            self._all_processes.append(process)
        if self._obs.enabled:
            self._obs.events.emit(
                EVENT_REPLICA_SPAWN, self.name, replica=replica.index, pid=process.pid
            )

    def _await_ready(self, replica: _Replica, deadline: float) -> None:
        """Block until ``replica`` reported ready; raise on load failure."""
        while not replica.ready.wait(timeout=0.1):
            process = replica.process
            if process is not None and not process.is_alive() and not replica.ready.is_set():
                # Give the dispatcher a beat to drain a ("crash", ...) the
                # worker may have shipped just before exiting.
                replica.ready.wait(timeout=1.0)
                break
            if time.monotonic() > deadline:
                raise WorkerCrashedError(
                    self.name,
                    f"replica {replica.index} did not finish rehydrating the "
                    f"snapshot in time",
                )
        if replica.load_error is not None:
            raise WorkerCrashedError(
                self.name,
                f"replica {replica.index} failed to rehydrate the snapshot:\n"
                f"{replica.load_error}",
            )
        if not replica.ready.is_set():
            process = replica.process
            code = process.exitcode if process is not None else None
            raise WorkerCrashedError(
                self.name,
                f"replica {replica.index} died during startup (exit code {code})",
            )
        if self._m_alive is not None:
            self._m_alive.set(1.0, pool=self.name, replica=str(replica.index))

    def _pick_replica(self) -> _Replica:
        """Least-loaded live replica, round-robin among ties; reserves a slot."""
        with self._lock:
            count = len(self._replicas)
            start = self._rr
            self._rr = (self._rr + 1) % count
            best: Optional[_Replica] = None
            for offset in range(count):
                replica = self._replicas[(start + offset) % count]
                process = replica.process
                if process is None or not process.is_alive():
                    continue
                if best is None or replica.inflight < best.inflight:
                    best = replica
            if best is None:
                raise WorkerCrashedError(self.name, "no live replicas")
            best.inflight += 1
            return best

    def _request(
        self, kind: str, payload: tuple[Any, ...], *, replica: Optional[_Replica] = None
    ) -> Any:
        """Ship one request to a replica and block for its answer."""
        if self._closed:
            raise ServiceClosedError("batch_query")
        if replica is None:
            target = self._pick_replica()
        else:
            target = replica
            with self._lock:
                target.inflight += 1
        slot = _Slot(target.index)
        with self._lock:
            request_id = self._next_request_id
            self._next_request_id += 1
            self._slots[request_id] = slot
        requests = target.requests
        try:
            if requests is None:
                raise WorkerCrashedError(self.name, f"replica {target.index} is not running")
            requests.put((kind, request_id, *payload))
        except BaseException:
            with self._lock:
                self._slots.pop(request_id, None)
                target.inflight -= 1
            raise
        return self._wait(slot)

    def _wait(self, slot: _Slot) -> Any:
        """Wait for a slot; fail over (via :meth:`check`) if its replica dies."""
        timeout_at = (
            None
            if self.request_timeout_s is None
            else time.monotonic() + self.request_timeout_s
        )
        while not slot.event.wait(timeout=0.2):
            if slot.event.is_set():
                break
            if self._closed:
                raise ServiceClosedError("batch_query")
            replica = self._replicas[slot.replica]
            process = replica.process
            if process is not None and not process.is_alive():
                # The replica died with our request in flight: check() fails
                # this slot with WorkerCrashedError and respawns the worker.
                self.check()
            if timeout_at is not None and time.monotonic() > timeout_at:
                raise WorkerCrashedError(
                    self.name,
                    f"replica {slot.replica} did not answer within "
                    f"{self.request_timeout_s:g}s",
                )
        if slot.error is not None:
            raise slot.error
        return slot.value

    def _fail_replica_slots(self, replica_index: int, cause: str) -> int:
        """Fail every outstanding request dispatched to one replica."""
        with self._lock:
            doomed = [
                (request_id, slot)
                for request_id, slot in self._slots.items()
                if slot.replica == replica_index
            ]
            for request_id, _ in doomed:
                del self._slots[request_id]
            self._replicas[replica_index].inflight -= len(doomed)
        for _, slot in doomed:
            slot.error = WorkerCrashedError(self.name, cause)
            slot.event.set()
        return len(doomed)

    def _dispatch_step(self) -> bool:
        """Poll the replica response pipes once; True = dispatcher exits.

        The dispatcher is the only thread that ever closes a response
        pipe's read end — retired ends queue up in :attr:`_retired_conns`
        until this step closes them, so ``connection.wait`` never selects
        on a descriptor another thread just closed (and possibly reused).
        """
        with self._lock:
            retired = self._retired_conns
            self._retired_conns = []
            conns = [r.conn for r in self._replicas if r.conn is not None]
        for old in retired:
            try:
                old.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if not conns:
            if self._closed:
                return True
            time.sleep(0.05)  # nothing spawned yet; don't spin
            return False
        try:
            ready = mp_connection.wait(conns, timeout=0.1)
        except OSError:  # pragma: no cover - conn torn down mid-wait
            return self._closed
        if not ready:
            return self._closed
        for conn in ready:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                # The worker on the far end is gone; retire its pipe so the
                # wait set stops reporting it.  check() handles the respawn.
                with self._lock:
                    for replica in self._replicas:
                        if replica.conn is conn:
                            replica.conn = None
                            self._retired_conns.append(conn)
                            break
                continue
            self._handle_message(msg)
        return False

    def _handle_message(self, msg: Message) -> None:
        """Apply one worker response to parent-side state."""
        kind = msg[0]
        replica = self._replicas[msg[1]]
        if kind == "ready":
            with self._lock:
                replica.pid = msg[2]
                replica.load_seconds = float(msg[3])
            replica.ready.set()
            return
        if kind == "crash":
            with self._lock:
                replica.crash_cause = str(msg[2])
                replica.load_error = None if replica.ready.is_set() else str(msg[2])
            replica.ready.set()
            return
        # "done" / "error": (kind, replica, request_id, value) — settle the slot.
        request_id = msg[2]
        with self._lock:
            slot = self._slots.pop(request_id, None)
            if slot is not None:
                self._replicas[slot.replica].inflight -= 1
        if slot is None:
            return  # failed earlier by check()/close(); drop the late answer
        if kind == "error":
            slot.error = msg[3]
        else:
            slot.value = msg[3]
            if self._m_batches is not None:
                self._m_batches.inc(1.0, pool=self.name, replica=str(replica.index))
        slot.event.set()
