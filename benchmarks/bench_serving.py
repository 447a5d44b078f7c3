"""Serving-layer benchmarks: snapshot load speed and QueryService throughput.

Three acceptance targets are *enforced* here (not just reported):

* loading a snapshot (``TDTreeIndex.load``) must be at least **5x** faster
  than rebuilding the index on the scaled CAL dataset, with bit-identical
  query costs, for all four build strategies (the floor was 10x against the
  scalar build path; the round-batched elimination engine made rebuilds
  ~2.5-3x cheaper, which shrinks the ratio without touching the load path);
* :class:`repro.serving.QueryService` must sustain at least **3x** the
  throughput of a per-call ``engine.query`` loop on the Fig. 8 workload
  (NUM_PAIRS OD pairs x 10 departure timestamps);
* with ``--host``: the :class:`repro.serving.EngineHost` swap-under-load
  scenario — hammering threads across a hot swap see **zero** errors, no
  future is dropped, and every answer delivered after ``swap`` returns is
  bit-identical to the replacement engine's own scalar ``query``.  Swap
  latency and the zero-downtime counters land in
  ``results/BENCH_serving.json``;
* with ``--chaos``: the resilience-under-overload scenario — a bounded
  shed-policy service with deadlines takes **2x** its measured closed-loop
  capacity as open-loop load, through a fault-injected engine with periodic
  latency spikes.  Every offered query must end in exactly one typed
  outcome (answered, shed, or deadline-expired) with **zero** never-settled
  futures; the shed rate and p99 land in
  ``results/BENCH_serving_resilience.json``;
* with ``--obs``: the observability-overhead scenario — full telemetry
  (per-query traces, registry metrics, event log) must cost less than
  **3%** of the service's closed-loop capacity versus
  ``Observability.disabled()``.  The overhead split lands in
  ``results/BENCH_serving_obs.json``;
* with ``--replicas``: the multi-process replica scaling scenario — a
  :class:`repro.serving.ReplicaPool` of N workers rehydrating one CAL
  snapshot (``mmap_mode="r"``) takes the Fig. 8 workload closed-loop at
  each replica count in ``REPRO_BENCH_REPLICAS`` (default ``1,4``).
  Enforced always: zero dropped batches and answers bit-identical to the
  scalar oracle.  Enforced when the machine has at least as many cores as
  replicas: **2.5x** the single-replica throughput at 4 replicas (1.3x at
  2-3, for small CI runners); on smaller machines the run records
  ``cpu_limited`` instead of pretending.  The qps-vs-replicas table lands
  in ``results/BENCH_serving_replicas.json``.

The tables are registered with the harness, which writes
``results/<name>.txt`` plus machine-readable ``results/BENCH_<name>.json``
twins.
"""

from __future__ import annotations

import gc
import threading
import time

import numpy as np
import pytest

from repro import PiecewiseLinearFunction, TDTreeIndex, create_engine
from repro.api import TDTreeEngine
from repro.datasets import load_dataset
from repro.serving import EngineHost, QueryService

from harness import (
    BATCH_INTERVALS,
    NUM_PAIRS,
    register_report,
    workload_for,
)

DATASET = "CAL"
C = 3

SPECS = ("td-basic", "td-dp", "td-appro", "td-full")
#: Fig. 8 CAL methods that expose the index API (TD-G-tree has no service).
SERVICE_METHODS = {"TD-basic": "basic", "TD-H2H": "full"}

LOAD_SPEEDUP_TARGET = 5.0
SERVICE_SPEEDUP_TARGET = 3.0
OBS_OVERHEAD_LIMIT_PCT = 3.0
#: Closed-loop throughput floor for 4+ replicas vs 1 (cores permitting).
REPLICA_SPEEDUP_TARGET = 2.5
#: Floor for 2-3 replicas (small CI runners).
REPLICA_SPEEDUP_TARGET_SMALL = 1.3


def _workload_arrays():
    queries = list(workload_for(DATASET, C, num_intervals=BATCH_INTERVALS))
    return (
        np.array([q.source for q in queries], dtype=np.int64),
        np.array([q.target for q in queries], dtype=np.int64),
        np.array([q.departure for q in queries], dtype=np.float64),
    )


def test_snapshot_load_vs_rebuild(tmp_path):
    """Snapshot acceptance: bit-identical costs, load >= 5x faster than build."""
    graph = load_dataset(DATASET, num_points=C)
    sources, targets, departures = _workload_arrays()
    rows = []
    for spec in SPECS:
        started = time.perf_counter()
        engine = create_engine(spec, graph.copy())
        build_seconds = time.perf_counter() - started
        expected = engine.batch_query(sources, targets, departures).costs

        strategy = engine.index.strategy
        directory = engine.index.save(tmp_path / f"{DATASET}-{strategy}.index")
        load_seconds = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            loaded = TDTreeIndex.load(directory)
            load_seconds = min(load_seconds, time.perf_counter() - started)
        actual = TDTreeEngine(loaded, name=spec).batch_query(
            sources, targets, departures
        ).costs
        assert np.array_equal(expected, actual), (
            f"{strategy}: loaded index costs differ from the built index"
        )
        rows.append(
            {
                "dataset": DATASET,
                "strategy": strategy,
                "c": C,
                "build_s": build_seconds,
                "load_s": load_seconds,
                "speedup": build_seconds / load_seconds,
            }
        )
    register_report(
        "serving_snapshot_load",
        rows,
        title=f"Index snapshot: load vs rebuild on {DATASET} (best of 3 loads)",
    )
    for row in rows:
        assert row["speedup"] >= LOAD_SPEEDUP_TARGET, (
            f"{row['strategy']}: load only {row['speedup']:.1f}x faster than "
            f"rebuild (target {LOAD_SPEEDUP_TARGET:.0f}x)"
        )


def test_service_throughput_vs_loop():
    """Serving acceptance: QueryService >= 3x a per-call query loop on Fig. 8."""
    from harness import built_index

    sources, targets, departures = _workload_arrays()
    queries = list(zip(sources.tolist(), targets.tolist(), departures.tolist()))
    rows = []
    from repro.obs import Observability

    for method, strategy in SERVICE_METHODS.items():
        index = built_index(method, DATASET, C).index
        index.batch_query(sources, targets, departures)  # warm label caches

        # The 3x gate sits within this machine class's run-to-run noise
        # (short cycles swing ~±10%), so the rounds are interleaved in ABBA
        # order — loop, service, service, loop, ... — so a slow stretch of
        # wall time inflates both minima instead of just one side of the
        # ratio, while each side's best round can still follow a round of
        # its own kind (strict alternation would hand the loop's cache
        # pollution to every service round, and vice versa).  GC is held off
        # during the timed regions, and a below-target reading is re-measured
        # up to three times before it counts as a failure — the same noise
        # policy as the --obs overhead gate.
        for attempt in range(3):
            loop_best = float("inf")
            service_best = float("inf")
            stats = None
            # Batch size sized to the workload burst: the basic strategy's
            # tree sweep has a per-batch fixed cost, so needlessly splitting a
            # burst into several inline flushes wastes it.  The cache is off
            # to measure pure batching.  Telemetry is off to keep this the same quantity
            # the target was set against: batching vs a per-call loop
            # (neither side instrumented).  What telemetry costs has its own
            # gate — the --obs scenario below.
            with QueryService(
                index, max_batch_size=512, cache_size=0,
                obs=Observability.disabled(),
            ) as service:
                def _loop_round():
                    nonlocal loop_best
                    started = time.perf_counter()
                    costs = [index.query(s, t, d).cost for s, t, d in queries]
                    loop_best = min(loop_best, time.perf_counter() - started)
                    return costs

                def _service_round():
                    nonlocal service_best
                    started = time.perf_counter()
                    futures = [service.submit(s, t, d) for s, t, d in queries]
                    service.flush()
                    costs = [f.result(timeout=30) for f in futures]
                    service_best = min(
                        service_best, time.perf_counter() - started
                    )
                    return costs

                gc.collect()
                gc.disable()
                try:
                    for pair in range(4):
                        if pair % 2 == 0:
                            loop_costs = _loop_round()
                            served = _service_round()
                        else:
                            served = _service_round()
                            loop_costs = _loop_round()
                finally:
                    gc.enable()
                stats = service.stats()
            assert served == loop_costs, (
                f"{method}: service costs differ from the loop"
            )
            if loop_best / service_best >= SERVICE_SPEEDUP_TARGET:
                break

        num = len(queries)
        rows.append(
            {
                "dataset": DATASET,
                "method": method,
                "c": C,
                "num_queries": num,
                "loop_qps": num / loop_best,
                "service_qps": num / service_best,
                "speedup": loop_best / service_best,
                "attempts": attempt + 1,
                "batch_occupancy": stats.batch_occupancy,
                "p50_latency_ms": stats.p50_latency_ms,
                "p95_latency_ms": stats.p95_latency_ms,
            }
        )
    register_report(
        "serving_throughput",
        rows,
        title=(
            f"QueryService vs per-call loop on {DATASET} "
            f"({NUM_PAIRS} pairs x {BATCH_INTERVALS} departures, best of 3)"
        ),
    )
    for row in rows:
        assert row["speedup"] >= SERVICE_SPEEDUP_TARGET, (
            f"{row['method']}: service speedup {row['speedup']:.2f}x below the "
            f"{SERVICE_SPEEDUP_TARGET:.0f}x target"
        )


def test_host_swap_under_load(request):
    """``--host`` acceptance: a hot swap under hammering threads drops nothing.

    Four threads hammer one deployment while the main thread swaps it from a
    CAL index to one built on a clone with every profile slowed 1.5x (so old
    and new answers are distinguishable).  Enforced: zero submitter errors,
    every future resolved, all answers delivered after ``swap`` returned
    bit-identical to the replacement engine's scalar ``query``, and a mean
    batch above one query (concurrent submitters share flushes).  The row
    written to ``results/BENCH_serving.json`` carries the swap latency split
    and the zero-downtime counters.
    """
    if not request.config.getoption("--host"):
        pytest.skip("pass --host to run the EngineHost swap-under-load scenario")

    graph = load_dataset(DATASET, num_points=C)
    old_engine = create_engine("td-basic", graph)
    patched = graph.copy()
    for u, v, w in list(patched.edges()):
        patched.set_weight(
            u, v, PiecewiseLinearFunction(w.times, w.costs * 1.5, w.via, validate=False)
        )
    # validate=false: scaling a FIFO profile can push its steepest slope past
    # the validator's bound; the scenario needs distinguishable answers, not
    # a physically plausible incident.
    replacement = create_engine("td-basic?validate=false", patched)

    sources, targets, departures = _workload_arrays()
    workload = list(zip(sources.tolist(), targets.tolist(), departures.tolist()))
    old_costs = {q: old_engine.query(*q).cost for q in workload}
    new_costs = {q: replacement.query(*q).cost for q in workload}

    host = EngineHost(max_batch_size=256, cache_size=0)
    host.deploy("prod", old_engine)
    stop = threading.Event()
    errors: list[BaseException] = []
    results: list[tuple[float, tuple, float]] = []
    lock = threading.Lock()

    def hammer() -> None:
        local: list[tuple[float, tuple, float]] = []
        while not stop.is_set():
            for q in workload:
                submitted = time.perf_counter()
                try:
                    local.append((submitted, q, host.query("prod", *q)))
                except BaseException as exc:  # noqa: BLE001 - counted below
                    with lock:
                        errors.append(exc)
                    stop.set()
                    return
        with lock:
            results.extend(local)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(0.4)  # build pressure against the old engine
    swap_started = time.perf_counter()
    report = host.swap("prod", replacement)
    swap_returned = time.perf_counter()
    time.sleep(0.4)  # keep hammering the replacement
    stop.set()
    for thread in threads:
        thread.join(timeout=60)
    # A thread still alive after the join timeout is blocked on a future
    # that never settled — the dropped-future failure mode this scenario
    # exists to detect.
    stuck_threads = [thread for thread in threads if thread.is_alive()]
    wall = time.perf_counter() - started
    avg_batch_size = host.stats("prod").avg_batch_size
    if not stuck_threads:
        host.close()  # a stuck thread would make close() hang too

    before = [r for r in results if r[0] < swap_returned]
    after = [r for r in results if r[0] >= swap_returned]
    mismatches = sum(1 for _, q, cost in after if cost != new_costs[q])
    in_flight_wrong = sum(
        1 for _, q, cost in before if cost not in (old_costs[q], new_costs[q])
    )
    rows = [
        {
            "dataset": DATASET,
            "c": C,
            "threads": len(threads),
            "total_queries": len(results),
            "queries_during_swap": sum(
                1 for r in results if swap_started <= r[0] < swap_returned
            ),
            "errors": len(errors),
            "dropped_futures": len(stuck_threads),
            "post_swap_mismatches": mismatches,
            "swap_build_s": report.build_seconds,
            "swap_switch_s": report.switch_seconds,
            "swap_drain_s": report.drain_seconds,
            "drained_queries": report.drained_queries,
            "qps_under_swap": len(results) / wall,
            "avg_batch_size": avg_batch_size,
        }
    ]
    register_report(
        "serving",
        rows,
        title=f"EngineHost swap-under-load on {DATASET} (c={C}, 4 hammer threads)",
    )
    assert not stuck_threads, "a hammer thread is blocked on an unresolved future"
    assert not errors, f"swap leaked an error to a submitter: {errors[:1]!r}"
    assert before and after, "load must straddle the swap"
    assert mismatches == 0, "post-swap answers must match the replacement engine"
    assert in_flight_wrong == 0, "in-flight answers must come from one of the engines"
    # Four closed-loop submitters: queries that arrive while a flush runs
    # must leave together, not one engine call each.
    assert avg_batch_size > 1.0, f"hammer never batched: {avg_batch_size:.2f}"


def test_resilience_under_overload(request):
    """``--chaos`` acceptance: 2x-capacity open-loop load, zero stranded futures.

    Phase 1 measures the deployment's closed-loop capacity (submit the whole
    workload, flush, gather).  Phase 2 offers queries open-loop at twice
    that rate against a *bounded* shed-policy service with a default
    deadline, over an engine injecting a deterministic latency spike every
    25th batch.  Enforced: every offered query ends in exactly one typed
    outcome — answered, shed at admission, or deadline-expired — and no
    future is left unsettled.  The shed rate and the p99 of the answered
    queries land in ``results/BENCH_serving_resilience.json``.
    """
    if not request.config.getoption("--chaos"):
        pytest.skip("pass --chaos to run the resilience-under-overload scenario")

    from repro.exceptions import AdmissionRejectedError, DeadlineExceededError

    graph = load_dataset(DATASET, num_points=C)
    engine = create_engine(
        "faulty:td-basic?latency_every=25&latency_ms=20&seed=7", graph
    )
    sources, targets, departures = _workload_arrays()
    workload = list(zip(sources.tolist(), targets.tolist(), departures.tolist()))

    # Phase 1: closed-loop capacity of the same engine behind a service.
    with QueryService(engine, max_batch_size=256, cache_size=0) as service:
        started = time.perf_counter()
        futures = [service.submit(s, t, d) for s, t, d in workload]
        service.flush()
        for future in futures:
            future.result(timeout=60)
        capacity_qps = len(workload) / (time.perf_counter() - started)

    # Phase 2: open-loop load at 2x capacity against a bounded service.
    offered_qps = 2.0 * capacity_qps
    total = min(int(offered_qps), 4 * len(workload))  # ~1 s of offered load
    interval = 1.0 / offered_qps
    shed = 0
    futures = []
    with QueryService(
        engine,
        max_batch_size=256,
        cache_size=0,
        max_pending=256,
        admission_policy="shed",
        default_deadline_ms=200.0,
    ) as service:
        started = time.perf_counter()
        next_submit = started
        for i in range(total):
            now = time.perf_counter()
            if now < next_submit:
                time.sleep(next_submit - now)
            next_submit += interval
            s, t, d = workload[i % len(workload)]
            try:
                futures.append(service.submit(s, t, d))
            except AdmissionRejectedError:
                shed += 1
        offered_seconds = time.perf_counter() - started
        service.flush()

        answered = expired = never_settled = 0
        for future in futures:
            try:
                error = future.exception(timeout=30.0)
            except TimeoutError:
                never_settled += 1
                continue
            if error is None:
                answered += 1
            elif isinstance(error, DeadlineExceededError):
                expired += 1
            else:
                raise AssertionError(f"untyped chaos outcome: {error!r}")
        stats = service.stats()

    rows = [
        {
            "dataset": DATASET,
            "c": C,
            "capacity_qps": capacity_qps,
            "offered_qps": total / offered_seconds,
            "offered": total,
            "answered": answered,
            "shed": shed,
            "shed_rate": shed / total,
            "deadline_expired": expired,
            "never_settled": never_settled,
            "p99_latency_ms": stats.p99_latency_ms,
        }
    ]
    register_report(
        "serving_resilience",
        rows,
        title=(
            f"Resilience under 2x-capacity open-loop load on {DATASET} "
            f"(c={C}, shed policy, 200 ms deadline, latency faults)"
        ),
    )
    assert never_settled == 0, "every offered query must settle — none may hang"
    assert answered + expired + shed == total, "chaos outcomes must be exhaustive"
    assert answered > 0, "the overloaded service must still answer queries"


def test_observability_overhead(request):
    """``--obs`` acceptance: full telemetry costs < 3% of closed-loop capacity.

    Two services over the *same* TD-basic index run the Fig. 8 closed-loop
    cycle (submit a x4 workload, flush, gather): one with
    ``Observability.disabled()`` (no registry, no traces, no events) and one
    with a live bundle tracing *every* query and publishing batch metrics.
    The true telemetry cost (~0.7us/query against a ~45us/query engine) sits
    near the measurement noise floor of a shared machine, so the harness is
    built for statistical power rather than raw speed:

    - cycles are paired in an ABBA pattern (baseline-telemetry one round,
      telemetry-baseline the next) so machine drift cancels instead of
      always penalising whichever side runs second;
    - the collector is held off during timing (``gc.collect()`` between
      cycles, ``gc.disable()`` inside) so telemetry allocations don't get
      charged a GC pause lottery;
    - the enforced overhead is a 10%-trimmed mean of the per-pair ratios
      over many pairs, and a run that still lands over budget retries the
      whole measurement (bounded attempts) before failing — a perf gate at
      1.03x needs that; a correctness bug shows up as a *consistent* miss.

    Enforced: the telemetry side keeps at least 97% of the baseline
    capacity.  The split lands in ``results/BENCH_serving_obs.json``.
    """
    if not request.config.getoption("--obs"):
        pytest.skip("pass --obs to run the observability-overhead scenario")

    import gc

    from harness import built_index

    from repro.obs import Observability

    sources, targets, departures = _workload_arrays()
    base_queries = list(zip(sources.tolist(), targets.tolist(), departures.tolist()))
    # x4 the Fig. 8 workload (~1200 queries/cycle) so each timed cycle is
    # long enough to amortize scheduler jitter.
    queries = base_queries * 4
    num = len(queries)
    index = built_index("TD-basic", DATASET, C).index
    index.batch_query(sources, targets, departures)  # warm engine caches

    def cycle(service):
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            futures = [service.submit(s, t, d) for s, t, d in queries]
            service.flush()
            for future in futures:
                future.result(timeout=60)
            return time.perf_counter() - started
        finally:
            gc.enable()

    pairs = 40
    attempts = 3

    def measure():
        """One full ABBA measurement; returns (overhead_pct, report row)."""
        obs = Observability()
        baseline_times: list[float] = []
        telemetry_times: list[float] = []
        with QueryService(
            index, max_batch_size=512, cache_size=0, obs=Observability.disabled()
        ) as baseline_service, QueryService(
            index, max_batch_size=512, cache_size=0, obs=obs
        ) as telemetry_service:
            cycle(baseline_service)  # untimed warm-up for both sides
            cycle(telemetry_service)
            for i in range(pairs):
                if i % 2 == 0:
                    baseline_times.append(cycle(baseline_service))
                    telemetry_times.append(cycle(telemetry_service))
                else:
                    telemetry_times.append(cycle(telemetry_service))
                    baseline_times.append(cycle(baseline_service))
        # Telemetry really ran: one complete trace per submitted query
        # (warm-up cycle included).
        assert obs.tracer.completed == (pairs + 1) * num
        ratios = sorted(t / b for b, t in zip(baseline_times, telemetry_times))
        trim = pairs // 10
        trimmed = ratios[trim : pairs - trim]
        overhead_pct = 100.0 * (sum(trimmed) / len(trimmed) - 1.0)
        baseline_s = sorted(baseline_times)[pairs // 2]
        row = {
            "dataset": DATASET,
            "method": "TD-basic",
            "c": C,
            "num_queries": num,
            "pairs": pairs,
            "baseline_qps": num / baseline_s,
            "telemetry_qps": num / (baseline_s * (1.0 + overhead_pct / 100.0)),
            "overhead_pct": overhead_pct,
            "traces_recorded": obs.tracer.completed,
            "events_total": obs.events.total,
        }
        return overhead_pct, row

    for attempt in range(attempts):
        overhead_pct, row = measure()
        if overhead_pct < OBS_OVERHEAD_LIMIT_PCT:
            break
    row["attempts"] = attempt + 1
    register_report(
        "serving_obs",
        rows=[row],
        title=(
            f"Observability overhead on {DATASET} closed-loop capacity "
            f"(c={C}, every query traced, trimmed-mean ratio over {pairs} "
            f"ABBA pairs)"
        ),
    )
    assert overhead_pct < OBS_OVERHEAD_LIMIT_PCT, (
        f"telemetry overhead {overhead_pct:.2f}% exceeds the "
        f"{OBS_OVERHEAD_LIMIT_PCT:.0f}% budget after {attempts} "
        f"measurement attempts"
    )


def test_replica_scaling(request, tmp_path):
    """``--replicas`` acceptance: N workers over one snapshot scale throughput.

    One CAL index is snapshotted once; for each replica count a fresh
    :class:`~repro.serving.ReplicaPool` rehydrates it (``mmap_mode="r"``,
    so the workers share one physical copy of the PLF buffers) and takes
    the x4 Fig. 8 workload closed-loop: ``2 x max(counts)`` submitter
    threads drain a chunk queue, each chunk one blocking ``batch_query``
    against the least-loaded replica.  Every chunk's costs land in a
    preallocated result array — a chunk that errors or never answers is a
    dropped batch and fails the run.

    Enforced always: zero dropped batches, and the full result array
    bit-identical to the scalar oracle (``engine.query`` per workload
    entry).  Enforced when the machine has at least as many cores as the
    largest replica count: the throughput floor
    (:data:`REPLICA_SPEEDUP_TARGET` at 4+, the small-runner floor at 2-3).
    On machines with fewer cores than replicas the row records
    ``cpu_limited`` and the floor is *reported*, not enforced — process
    parallelism cannot beat the scheduler.
    """
    if not request.config.getoption("--replicas"):
        pytest.skip("pass --replicas to run the multi-process replica scaling scenario")

    import os
    import queue as queue_mod

    from repro.serving import ReplicaPool

    counts = sorted(
        {int(part) for part in os.environ.get("REPRO_BENCH_REPLICAS", "1,4").split(",")}
    )
    if 1 not in counts:
        counts.insert(0, 1)  # the scaling ratio needs the single-replica base
    cores = os.cpu_count() or 1

    graph = load_dataset(DATASET, num_points=C)
    engine = create_engine("td-basic", graph)
    sources, targets, departures = _workload_arrays()
    oracle = np.array(
        [
            engine.query(int(s), int(t), float(d)).cost
            for s, t, d in zip(sources, targets, departures)
        ],
        dtype=np.float64,
    )
    repeat = 4  # x4 the Fig. 8 workload so each timed pass amortizes jitter
    all_sources = np.tile(sources, repeat)
    all_targets = np.tile(targets, repeat)
    all_departures = np.tile(departures, repeat)
    expected = np.tile(oracle, repeat)
    total = int(all_sources.size)
    chunk_size = 50
    chunks = [
        (start, min(start + chunk_size, total))
        for start in range(0, total, chunk_size)
    ]
    submitters = 2 * max(counts)

    def run_pass(pool: ReplicaPool) -> tuple[float, np.ndarray, list[BaseException]]:
        """One closed-loop pass; returns (wall seconds, costs, errors)."""
        costs = np.full(total, np.nan, dtype=np.float64)
        work: "queue_mod.SimpleQueue" = queue_mod.SimpleQueue()
        for bounds in chunks:
            work.put(bounds)
        errors: list[BaseException] = []
        error_lock = threading.Lock()

        def submit() -> None:
            while True:
                try:
                    start, stop = work.get_nowait()
                except queue_mod.Empty:
                    return
                try:
                    answer = pool.batch_query(
                        all_sources[start:stop],
                        all_targets[start:stop],
                        all_departures[start:stop],
                    )
                except BaseException as exc:  # noqa: BLE001 - counted below
                    with error_lock:
                        errors.append(exc)
                    return
                costs[start:stop] = answer.costs

        threads = [threading.Thread(target=submit) for _ in range(submitters)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        wall = time.perf_counter() - started
        if any(thread.is_alive() for thread in threads):
            errors.append(RuntimeError("a submitter thread never finished"))
        return wall, costs, errors

    rows = []
    qps_by_count: dict[int, float] = {}
    snapshot = engine.index.save(tmp_path / "replica-bench.index")
    for count in counts:
        with ReplicaPool(
            snapshot, count, mmap_mode="r", name=f"bench-{count}"
        ) as pool:
            run_pass(pool)  # untimed warm-up: page cache + worker label caches
            best_wall = float("inf")
            for _ in range(2):
                wall, costs, errors = run_pass(pool)
                assert not errors, (
                    f"{count} replicas: dropped batches — {errors[:1]!r}"
                )
                assert np.array_equal(costs, expected), (
                    f"{count} replicas: answers differ from the scalar oracle"
                )
                best_wall = min(best_wall, wall)
            merged = pool.merged_stats()
        qps = total / best_wall
        qps_by_count[count] = qps
        rows.append(
            {
                "dataset": DATASET,
                "c": C,
                "replicas": count,
                "submitters": submitters,
                "num_queries": total,
                "qps": qps,
                "speedup_vs_1": qps / qps_by_count[1],
                "p50_latency_ms": merged.p50_latency_ms,
                "p99_latency_ms": merged.p99_latency_ms,
                "dropped_batches": 0,
                "cpu_limited": cores < count,
            }
        )
    register_report(
        "serving_replicas",
        rows,
        title=(
            f"ReplicaPool closed-loop scaling on {DATASET} (c={C}, "
            f"{total} queries, {submitters} submitters, {cores} cores)"
        ),
    )
    top = max(counts)
    floor = (
        REPLICA_SPEEDUP_TARGET if top >= 4 else REPLICA_SPEEDUP_TARGET_SMALL
    )
    achieved = qps_by_count[top] / qps_by_count[1]
    if top > 1 and cores >= top:
        assert achieved >= floor, (
            f"{top} replicas reached only {achieved:.2f}x the single-replica "
            f"throughput (floor {floor:.1f}x on this {cores}-core machine)"
        )


@pytest.mark.parametrize("spec", [pytest.param("td-appro", id="approx")])
def test_snapshot_load_benchmark(benchmark, tmp_path, spec):
    """pytest-benchmark timing of one load (tracked across PRs)."""
    graph = load_dataset(DATASET, num_points=C)
    index = create_engine(spec, graph).index
    directory = index.save(tmp_path / "bench.index")
    loaded = benchmark(lambda: TDTreeIndex.load(directory))
    assert loaded.tree.num_nodes == index.tree.num_nodes


def test_service_submit_benchmark(benchmark):
    """pytest-benchmark timing of the submit->flush->gather cycle."""
    from harness import built_index

    index = built_index("TD-H2H", DATASET, C).index
    sources, targets, departures = _workload_arrays()
    queries = list(zip(sources.tolist(), targets.tolist(), departures.tolist()))
    index.batch_query(sources, targets, departures)

    # cache_size=0: with the cache on, every round after the first would be
    # pure LRU hits and the benchmark would stop tracking the batching path.
    with QueryService(index, max_batch_size=512, cache_size=0) as service:

        def cycle():
            futures = [service.submit(s, t, d) for s, t, d in queries]
            service.flush()
            return [f.result(timeout=30) for f in futures]

        costs = benchmark(cycle)
    assert len(costs) == len(queries)
