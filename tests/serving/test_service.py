"""Behavioural tests for the micro-batching :class:`QueryService`.

The service must never change answers — only their delivery: every cost it
returns equals the corresponding ``engine.query`` call bit for bit (the batch
engine guarantees it), across flush triggers, cache states, threads and
index updates.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import TDGraph, create_engine
from repro.exceptions import DisconnectedQueryError
from repro.functions import PiecewiseLinearFunction
from repro.serving import QueryService
from repro.utils.timing import FakeClock


def _workload(graph, count=30, seed=42):
    rng = np.random.default_rng(seed)
    vertices = np.asarray(sorted(graph.vertices()))
    return [
        (
            int(rng.choice(vertices)),
            int(rng.choice(vertices)),
            float(rng.uniform(0.0, 86_400.0)),
        )
        for _ in range(count)
    ]


@pytest.fixture()
def service(approx_index):
    with QueryService(approx_index, max_batch_size=8) as svc:
        yield svc


# ----------------------------------------------------------------------
# Correctness of delivery
# ----------------------------------------------------------------------
def test_results_match_scalar_queries(approx_index, service):
    workload = _workload(approx_index.graph)
    futures = [service.submit(s, t, d) for s, t, d in workload]
    service.flush()
    got = [f.result(timeout=10) for f in futures]
    expected = [approx_index.query(s, t, d).cost for s, t, d in workload]
    assert got == expected


def test_full_batch_flushes_without_waiting(approx_index, held_engine):
    held = held_engine(approx_index)
    with QueryService(held, max_batch_size=4) as svc, held.plugged(svc.submit):
        workload = _workload(approx_index.graph, count=4, seed=1)
        futures = [svc.submit(s, t, d) for s, t, d in workload]
        # The flusher is pinned: only the size trigger can have flushed these.
        got = [f.result(timeout=10) for f in futures]
        assert got == [approx_index.query(s, t, d).cost for s, t, d in workload]
        assert svc.stats().num_batches == 1


def test_idle_flusher_settles_a_lone_query_without_the_clock_advancing(
    approx_index,
):
    """Flush on idle needs no timer: a frozen clock must not strand a query."""
    with QueryService(approx_index, max_batch_size=1024, clock=FakeClock()) as svc:
        (s, t, d) = _workload(approx_index.graph, count=1, seed=2)[0]
        future = svc.submit(s, t, d)
        # Poll on real time: result(timeout) would wait on the frozen clock.
        deadline = time.perf_counter() + 10.0
        while not future.done() and time.perf_counter() < deadline:
            time.sleep(0.001)
        assert future.done()
        assert future.result() == approx_index.query(s, t, d).cost
        assert svc.stats().num_batches == 1


def test_result_timeout_is_real_time_under_a_frozen_clock(approx_index, held_engine):
    """A frozen service clock must not turn ``result(timeout)`` into a hang."""
    held = held_engine(approx_index)
    (s, t, d) = _workload(approx_index.graph, count=1, seed=6)[0]
    with QueryService(held, max_batch_size=1024, clock=FakeClock()) as svc:
        with held.plugged(svc.submit):
            future = svc.submit(s, t, d)
            outcome: list[BaseException] = []

            def wait() -> None:
                try:
                    future.result(timeout=0.05)
                except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                    outcome.append(exc)

            waiter = threading.Thread(target=wait, daemon=True)
            waiter.start()
            waiter.join(timeout=1.0)
            assert not waiter.is_alive()
            assert len(outcome) == 1 and isinstance(outcome[0], TimeoutError)
        assert future.result(timeout=10) == approx_index.query(s, t, d).cost


def test_queries_arriving_during_a_flush_leave_together(approx_index, held_engine):
    held = held_engine(approx_index)
    workload = _workload(approx_index.graph, count=3, seed=4)
    with QueryService(held, max_batch_size=1024) as svc:
        with held.plugged(svc.submit):
            futures = [svc.submit(s, t, d) for s, t, d in workload]
            assert svc.probe().pending == 3
        # Releasing the plug frees the flusher, which takes all three at once.
        got = [f.result(timeout=10) for f in futures]
        assert got == [approx_index.query(s, t, d).cost for s, t, d in workload]
        stats = svc.stats()
        assert stats.num_batches == 2
        assert stats.avg_batch_size == 2.0


def test_probe_reports_the_oldest_of_overlapping_flushes(approx_index, held_engine):
    """An inline flush finishing must not hide the flusher's wedged batch."""
    clock = FakeClock()
    held = held_engine(approx_index)
    workload = _workload(approx_index.graph, count=2, seed=5)
    with QueryService(held, max_batch_size=2, clock=clock) as svc:
        with held.plugged(svc.submit):
            clock.advance(1.0)
            # Two submits fill a batch: it flushes inline on this thread and
            # completes while the plug is still blocked in the engine.
            futures = [svc.submit(s, t, d) for s, t, d in workload]
            assert all(f.done() for f in futures)
            clock.advance(0.5)
            assert svc.probe().flushing_seconds == 1.5
        assert svc.probe().flushing_seconds == 0.0


def test_blocking_query_wrapper(approx_index):
    with QueryService(approx_index, max_batch_size=64) as svc:
        s, t, d = _workload(approx_index.graph, count=1, seed=3)[0]
        assert svc.query(s, t, d) == approx_index.query(s, t, d).cost


def test_same_vertex_query(service, approx_index):
    vertex = next(iter(approx_index.graph.vertices()))
    assert service.query(vertex, vertex, 0.0) == 0.0


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
def test_exact_cache_hit(approx_index, service):
    s, t, d = _workload(approx_index.graph, count=1, seed=5)[0]
    first = service.query(s, t, d)
    before = service.stats()
    second = service.submit(s, t, d).result(timeout=1)
    after = service.stats()
    assert second == first
    assert after.cache_hits == before.cache_hits + 1
    assert after.num_batches == before.num_batches  # hit never touched the engine


def test_departure_bucketing_trades_exactness_for_hits(approx_index):
    with QueryService(
        approx_index, max_batch_size=4, bucket_seconds=3_600.0
    ) as svc:
        s, t, _ = _workload(approx_index.graph, count=1, seed=6)[0]
        first = svc.query(s, t, 7_200.0)
        # Same hour bucket: served from cache with the earlier answer.
        assert svc.submit(s, t, 7_500.0).result(timeout=1) == first
        assert svc.stats().cache_hits == 1
        # Different bucket: goes back to the engine.
        other = svc.query(s, t, 50_000.0)
        assert other == approx_index.query(s, t, 50_000.0).cost


def test_cache_is_lru_bounded(approx_index):
    with QueryService(
        approx_index, max_batch_size=1, cache_size=2
    ) as svc:
        workload = _workload(approx_index.graph, count=4, seed=7)
        for s, t, d in workload:
            svc.query(s, t, d)
        assert svc.stats().cache_entries <= 2


def test_cache_disabled(approx_index):
    with QueryService(
        approx_index, max_batch_size=1, cache_size=0
    ) as svc:
        s, t, d = _workload(approx_index.graph, count=1, seed=8)[0]
        svc.query(s, t, d)
        svc.query(s, t, d)
        stats = svc.stats()
        assert stats.cache_hits == 0
        assert stats.cache_entries == 0
        assert stats.num_batches == 2


# ----------------------------------------------------------------------
# Update integration
# ----------------------------------------------------------------------
def test_edge_update_invalidates_cache_and_results(small_grid):
    engine = create_engine("td-appro?budget_fraction=0.4&max_points=16", small_grid.copy())
    with QueryService(engine, max_batch_size=8) as svc:
        workload = _workload(engine.graph, count=12, seed=9)
        for s, t, d in workload:
            svc.query(s, t, d)
        assert svc.stats().cache_entries > 0

        u, v, weight = next(iter(engine.graph.edges()))
        engine.update_edges({(u, v): weight.shift(400.0)})

        stats = svc.stats()
        assert stats.cache_invalidations == 1
        assert stats.cache_entries == 0
        # Post-update answers come from the repaired index, not stale cache.
        for s, t, d in workload:
            assert svc.query(s, t, d) == engine.query(s, t, d).cost


def test_close_unregisters_invalidation_hook(approx_index):
    before = len(approx_index.index._invalidation_hooks)
    svc = QueryService(approx_index, max_batch_size=4)
    assert len(approx_index.index._invalidation_hooks) == before + 1
    svc.close()
    assert len(approx_index.index._invalidation_hooks) == before


def test_dropped_service_is_garbage_collected(approx_index):
    """A service abandoned without close() must not be pinned by its thread or
    its index hook; the dead hook prunes itself on the next invalidation."""
    import gc
    import weakref

    before = len(approx_index.index._invalidation_hooks)
    svc = QueryService(approx_index, max_batch_size=4)
    ref = weakref.ref(svc)
    del svc
    deadline = time.time() + 3.0
    while ref() is not None and time.time() < deadline:
        gc.collect()
        time.sleep(0.05)  # let the flusher drop its bounded-wait strong ref
    assert ref() is None
    approx_index.index.notify_invalidation()  # dead hook unregisters itself
    assert len(approx_index.index._invalidation_hooks) == before


# ----------------------------------------------------------------------
# Failure delivery
# ----------------------------------------------------------------------
def test_disconnected_query_fails_only_its_future():
    graph = TDGraph()
    graph.add_bidirectional_edge(0, 1, PiecewiseLinearFunction.constant(10.0))
    graph.add_bidirectional_edge(2, 3, PiecewiseLinearFunction.constant(10.0))
    engine = create_engine("td-basic?validate=false", graph)
    with QueryService(engine, max_batch_size=16) as svc:
        good = svc.submit(0, 1, 0.0)
        bad = svc.submit(0, 3, 0.0)
        also_good = svc.submit(2, 3, 0.0)
        svc.flush()
        assert good.result(timeout=10) == 10.0
        assert also_good.result(timeout=10) == 10.0
        with pytest.raises(DisconnectedQueryError):
            bad.result(timeout=10)


# ----------------------------------------------------------------------
# Lifecycle, stats, concurrency
# ----------------------------------------------------------------------
def test_submit_after_close_raises(approx_index):
    from repro.exceptions import ReproError, ServiceClosedError

    svc = QueryService(approx_index, max_batch_size=4)
    svc.close()
    with pytest.raises(ServiceClosedError):
        svc.submit(0, 1, 0.0)
    with pytest.raises(ServiceClosedError):
        svc.flush()
    # The dedicated error stays catchable through both legacy RuntimeError
    # handlers and the library-wide base class.
    assert issubclass(ServiceClosedError, RuntimeError)
    assert issubclass(ServiceClosedError, ReproError)
    svc.close()  # idempotent


def test_close_reports_drained_queries(approx_index, held_engine):
    held = held_engine(approx_index)
    svc = QueryService(held, max_batch_size=1024)
    s, t, d = _workload(approx_index.graph, count=1, seed=21)[0]
    drained: list[int] = []
    closer = threading.Thread(target=lambda: drained.append(svc.close()))
    with held.plugged(svc.submit):
        future = svc.submit(s, t, d)
        # close() marks the service closed, then waits for the pinned
        # flusher; the query is still pending, so the final drain answers it.
        closer.start()
        while not svc.probe().closed:
            time.sleep(0.001)
    closer.join(timeout=10)
    assert drained == [1]
    assert future.result(timeout=1) == approx_index.query(s, t, d).cost
    assert svc.close() == 0


def test_close_flushes_pending(approx_index):
    svc = QueryService(approx_index, max_batch_size=1024)
    s, t, d = _workload(approx_index.graph, count=1, seed=10)[0]
    future = svc.submit(s, t, d)
    svc.close()
    assert future.result(timeout=1) == approx_index.query(s, t, d).cost


def test_stats_shape(approx_index):
    with QueryService(approx_index, max_batch_size=5) as svc:
        workload = _workload(approx_index.graph, count=10, seed=11)
        futures = [svc.submit(s, t, d) for s, t, d in workload]
        svc.flush()
        [f.result(timeout=10) for f in futures]
        stats = svc.stats()
        assert stats.queries_submitted == 10
        assert stats.queries_answered == 10
        assert stats.num_batches >= 2
        assert 0.0 < stats.avg_batch_size <= 5.0
        assert 0.0 < stats.batch_occupancy <= 1.0
        assert stats.p95_latency_ms >= stats.p50_latency_ms >= 0.0
        assert stats.throughput_qps > 0.0
        assert 0.0 <= stats.cache_hit_rate <= 1.0


def test_invalid_parameters_rejected(approx_index):
    with pytest.raises(ValueError):
        QueryService(approx_index, max_batch_size=0)
    with pytest.raises(ValueError):
        QueryService(approx_index, bucket_seconds=-0.5)


def test_concurrent_submitters_get_consistent_answers(approx_index):
    workload = _workload(approx_index.graph, count=48, seed=12)
    expected = {
        (s, t, d): approx_index.query(s, t, d).cost for s, t, d in workload
    }
    with QueryService(approx_index, max_batch_size=16) as svc:
        results: dict[int, list[float]] = {}

        def run(worker: int) -> None:
            results[worker] = [svc.query(s, t, d) for s, t, d in workload[worker::4]]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        for k in range(4):
            assert results[k] == [expected[q] for q in workload[k::4]]


def test_engine_crash_settles_futures_and_keeps_service_alive(
    approx_index, monkeypatch, held_engine
):
    """A non-ReproError from the engine must fail the batch's futures, not the
    flusher thread — later traffic must still be answered."""
    real = approx_index.batch_query
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise ValueError("engine bug")
        return real(*args, **kwargs)

    monkeypatch.setattr(approx_index, "batch_query", flaky)
    workload = _workload(approx_index.graph, count=4, seed=21)
    held = held_engine(approx_index)
    with QueryService(held, max_batch_size=2) as svc:
        with held.plugged(svc.submit):
            # The pair fills a batch, which flushes inline and crashes.
            first, second = (svc.submit(s, t, d) for s, t, d in workload[:2])
            with pytest.raises(ValueError, match="engine bug"):
                first.result(timeout=10)
            with pytest.raises(ValueError, match="engine bug"):
                second.result(timeout=10)
        # The service survives and answers subsequent traffic correctly.
        s, t, d = workload[2]
        assert svc.query(s, t, d) == approx_index.query(s, t, d).cost


def test_invalidation_during_flight_skips_cache_population(
    approx_index, monkeypatch
):
    """Costs computed before an invalidation must not repopulate the cache."""
    real = approx_index.batch_query

    holder = {}

    def racing(*args, **kwargs):
        result = real(*args, **kwargs)
        holder["svc"].invalidate_cache()  # update lands while batch in flight
        return result

    monkeypatch.setattr(approx_index, "batch_query", racing)
    with QueryService(approx_index, max_batch_size=8) as svc:
        holder["svc"] = svc
        s, t, d = _workload(approx_index.graph, count=1, seed=22)[0]
        future = svc.submit(s, t, d)
        svc.flush()
        assert future.result(timeout=10) == approx_index.query(s, t, d).cost
        stats = svc.stats()
        assert stats.cache_entries == 0
        assert stats.cache_invalidations == 1
