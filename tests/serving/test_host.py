"""Behavioural tests for the :class:`EngineHost` serving control plane.

The headline contract is the hot swap: while :meth:`EngineHost.swap` runs,
no submitter sees an error and no future is dropped, and once it returns
every delivered answer is bit-identical to the replacement engine's own
scalar ``query``.  Everything here is deterministic (no Hypothesis): the
swap-under-load scenario drives real threads against real engines but
asserts exact membership of each answer in the {old engine, new engine}
cost maps computed up front.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import PiecewiseLinearFunction, create_engine
from repro.exceptions import (
    DuplicateDeploymentError,
    EngineSpecError,
    HostError,
    UnknownDeploymentError,
    VertexNotFoundError,
)
from repro.obs.metrics import LATENCY_BUCKETS_MS, Histogram, bucket_percentile
from repro.serving import DeploymentInfo, EngineHost, ServiceStats, SwapReport


def _workload(graph, count=24, seed=5):
    import numpy as np

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


def _slowed_copy(graph, factor=3.0):
    """A clone of ``graph`` with every travel-cost profile scaled."""
    clone = graph.copy()
    for u, v, w in list(clone.edges()):
        clone.set_weight(
            u, v, PiecewiseLinearFunction(w.times, w.costs * factor, validate=False)
        )
    return clone


@pytest.fixture()
def host():
    with EngineHost(max_batch_size=16, max_wait_ms=2.0) as h:
        yield h


# ----------------------------------------------------------------------
# Deploy / undeploy / lifecycle
# ----------------------------------------------------------------------
def test_deploy_from_spec_and_query(host, small_grid):
    info = host.deploy("prod", "td-basic", small_grid)
    assert isinstance(info, DeploymentInfo)
    assert info.spec == "td-basic" and info.swap_count == 0
    reference = create_engine("td-basic", small_grid)
    for s, t, d in _workload(small_grid, count=6):
        assert host.query("prod", s, t, d) == reference.query(s, t, d).cost


def test_deploy_engine_object(host, small_grid):
    engine = create_engine("td-basic", small_grid)
    info = host.deploy("prod", engine)
    assert info.spec == "td-basic"
    assert info.engine is engine
    s, t, d = _workload(small_grid, count=1)[0]
    assert host.query("prod", s, t, d) == engine.query(s, t, d).cost


def test_deploy_engine_object_with_graph_rejected(host, small_grid):
    engine = create_engine("td-basic", small_grid)
    with pytest.raises(HostError):
        host.deploy("prod", engine, small_grid)


def test_duplicate_deploy_refused(host, small_grid):
    host.deploy("prod", "td-basic", small_grid)
    with pytest.raises(DuplicateDeploymentError):
        host.deploy("prod", "td-basic", small_grid)


def test_unknown_deployment_lists_active(host, small_grid):
    host.deploy("prod", "td-basic", small_grid)
    with pytest.raises(UnknownDeploymentError) as excinfo:
        host.query("staging", 0, 1, 0.0)
    assert "prod" in str(excinfo.value)


def test_spec_without_graph_fails_loudly(host):
    with pytest.raises(EngineSpecError):
        host.deploy("prod", "td-basic")


def test_undeploy_returns_final_stats(host, small_grid):
    host.deploy("prod", "td-basic", small_grid)
    s, t, d = _workload(small_grid, count=1)[0]
    host.query("prod", s, t, d)
    stats = host.undeploy("prod")
    assert isinstance(stats, ServiceStats)
    assert stats.queries_answered == 1
    assert "prod" not in host.deployments()
    with pytest.raises(UnknownDeploymentError):
        host.undeploy("prod")


def test_closed_host_refuses_work(small_grid):
    host = EngineHost()
    host.deploy("prod", "td-basic", small_grid)
    host.close()
    host.close()  # idempotent
    with pytest.raises(HostError):
        host.query("prod", 0, 1, 0.0)
    with pytest.raises(HostError):
        host.deploy("other", "td-basic", small_grid)


def test_deployments_listing(host, small_grid):
    assert host.deployments() == ()
    host.deploy("a", "td-basic", small_grid)
    host.deploy("b", "td-dijkstra", small_grid)
    assert host.deployments() == ("a", "b")
    assert "a" in repr(host)


# ----------------------------------------------------------------------
# Hot swap
# ----------------------------------------------------------------------
def test_swap_answers_match_replacement_engine(host, small_grid):
    host.deploy("prod", "td-basic", small_grid)
    patched = _slowed_copy(small_grid)
    replacement = create_engine("td-basic", patched)

    report = host.swap("prod", replacement)
    assert isinstance(report, SwapReport)
    assert report.deployment == "prod"
    assert report.old_spec == "td-basic" and report.new_spec == "td-basic"
    assert report.total_seconds >= 0.0
    assert host.deployment("prod").swap_count == 1
    assert host.deployment("prod").engine is replacement

    for s, t, d in _workload(small_grid, count=8, seed=7):
        assert host.query("prod", s, t, d) == replacement.query(s, t, d).cost


def test_swap_with_ready_engine_records_spec_override(host, small_grid):
    """``spec=`` keeps the deployment's recorded spec truthful.

    Without it, swapping in a ready engine degrades the recorded spec to the
    engine's bare name, and later rebuilds/snapshots silently lose build
    options such as ``?max_points=none``.
    """
    host.deploy("prod", "td-h2h?max_points=none", small_grid)
    replacement = create_engine("td-h2h?max_points=none", small_grid.copy())

    report = host.swap("prod", replacement, spec="td-h2h?max_points=none")
    assert report.new_spec == "td-h2h?max_points=none"
    assert host.deployment("prod").spec == "td-h2h?max_points=none"

    # Default behavior (no override) records the engine's bare name.
    host.swap("prod", create_engine("td-h2h?max_points=none", small_grid.copy()))
    assert host.deployment("prod").spec == "td-h2h"


def test_swap_from_spec_reuses_current_graph(host, small_grid):
    host.deploy("prod", "td-basic", small_grid)
    report = host.swap("prod", "td-appro?budget_fraction=0.4")
    assert report.new_spec == "td-appro?budget_fraction=0.4"
    reference = create_engine("td-appro?budget_fraction=0.4", small_grid)
    for s, t, d in _workload(small_grid, count=6, seed=8):
        assert host.query("prod", s, t, d) == reference.query(s, t, d).cost


def test_swap_unknown_deployment(host, small_grid):
    with pytest.raises(UnknownDeploymentError):
        host.swap("prod", "td-basic", small_grid)


def test_swap_invalidates_cached_answers(small_grid):
    """A result cached against the old engine must not survive the swap."""
    with EngineHost(max_batch_size=4, max_wait_ms=1.0, cache_size=1024) as host:
        host.deploy("prod", "td-basic", small_grid)
        s, t, d = _workload(small_grid, count=1, seed=9)[0]
        before = host.query("prod", s, t, d)
        patched = _slowed_copy(small_grid)
        replacement = create_engine("td-basic", patched)
        host.swap("prod", replacement)
        after = host.query("prod", s, t, d)
        assert after == replacement.query(s, t, d).cost
        if before != after:  # a degenerate pair could cost the same
            assert before == create_engine("td-basic", small_grid).query(s, t, d).cost


def test_stats_aggregate_across_swaps(host, small_grid):
    host.deploy("prod", "td-basic", small_grid)
    workload = _workload(small_grid, count=5, seed=10)
    for s, t, d in workload:
        host.query("prod", s, t, d)
    host.swap("prod", create_engine("td-basic", _slowed_copy(small_grid)))
    for s, t, d in workload:
        host.query("prod", s, t, d)

    stats = host.stats("prod")
    assert stats.queries_submitted == 10
    assert stats.queries_answered == 10
    assert stats.num_batches >= 2
    everything = host.stats()
    assert set(everything) == {"prod"}
    assert everything["prod"].queries_answered == 10


def test_percentiles_keep_their_meaning_across_a_swap(host, small_grid):
    """One generation and a swap-merged deployment read the same buckets."""
    host.deploy("prod", "td-basic", small_grid)
    for s, t, d in _workload(small_grid, count=12, seed=11):
        host.query("prod", s, t, d)
    before = host.stats("prod")
    host.swap("prod", create_engine("td-basic", small_grid))
    after = host.stats("prod")  # the replacement has answered nothing
    assert after.latency_bucket_counts == before.latency_bucket_counts
    for q in (50.0, 95.0, 99.0):
        expected = bucket_percentile(
            LATENCY_BUCKETS_MS, before.latency_bucket_counts, q
        )
        name = f"p{q:.0f}_latency_ms"
        assert getattr(before, name) == expected
        assert getattr(after, name) == expected


def test_stats_cache_entries_are_the_live_services(host, small_grid):
    """Regression: the fallback's empty cache used to mask the live one."""
    host.deploy("prod", "td-basic", small_grid, fallback="td-dijkstra")
    vertices = sorted(small_grid.vertices())
    for i in range(5):
        host.query("prod", vertices[i], vertices[-1 - i], 600.0 * i)
    assert host.stats("prod").cache_entries == 5


def test_swap_under_load_zero_downtime(small_grid):
    """The acceptance scenario: hammering threads see zero errors across a
    swap, every future resolves, and every answer delivered after ``swap``
    returns is bit-identical to the replacement engine's scalar ``query``."""
    old_engine = create_engine("td-basic", small_grid)
    replacement = create_engine("td-basic", _slowed_copy(small_grid))
    workload = _workload(small_grid, count=16, seed=11)
    old_costs = {q: old_engine.query(*q).cost for q in workload}
    new_costs = {q: replacement.query(*q).cost for q in workload}
    assert any(old_costs[q] != new_costs[q] for q in workload)  # discriminating

    host = EngineHost(max_batch_size=8, max_wait_ms=1.0, cache_size=0)
    host.deploy("prod", old_engine)
    stop = threading.Event()
    errors: list[BaseException] = []
    results: list[tuple[float, tuple, float]] = []

    def hammer() -> None:
        local: list[tuple[float, tuple, float]] = []
        while not stop.is_set():
            for q in workload:
                submitted = time.perf_counter()
                try:
                    local.append((submitted, q, host.query("prod", *q)))
                except BaseException as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)
                    stop.set()
                    return
        results.extend(local)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    time.sleep(0.15)  # let traffic build up against the old engine
    report = host.swap("prod", replacement)
    swap_returned = time.perf_counter()
    time.sleep(0.15)  # keep hammering the replacement
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
    host.close()

    assert not errors, f"swap leaked an error to a submitter: {errors[:1]!r}"
    assert report.switch_seconds < 1.0  # the flip is a pointer assignment
    before = [r for r in results if r[0] < swap_returned]
    after = [r for r in results if r[0] >= swap_returned]
    assert before and after, "load must straddle the swap"
    for _, q, cost in before:
        # In-flight queries may be answered by either side of the swap.
        assert cost in (old_costs[q], new_costs[q])
    for _, q, cost in after:
        assert cost == new_costs[q]


# ----------------------------------------------------------------------
# Snapshot-backed deployments
# ----------------------------------------------------------------------
def test_snapshot_roundtrips_into_servable_deployment(host, small_grid, tmp_path):
    host.deploy("prod", "td-appro?budget_fraction=0.4", small_grid)
    directory = host.snapshot("prod", tmp_path / "prod.index")

    from repro.persistence import read_manifest

    assert read_manifest(directory)["engine_spec"] == "td-appro?budget_fraction=0.4"

    host.deploy("replica", f"snapshot:{directory}")
    assert host.deployment("replica").engine.name == "td-appro"
    for s, t, d in _workload(small_grid, count=8, seed=12):
        assert host.query("replica", s, t, d) == host.query("prod", s, t, d)


def test_swap_to_snapshot_spec(host, small_grid, tmp_path):
    host.deploy("prod", "td-appro?budget_fraction=0.4", small_grid)
    directory = host.snapshot("prod", tmp_path / "prod.index")
    expected = {
        q: host.query("prod", *q) for q in _workload(small_grid, count=6, seed=13)
    }
    host.swap("prod", "td-basic")  # move off, then restore from the snapshot
    report = host.swap("prod", f"snapshot:{directory}")
    assert report.new_spec == f"snapshot:{directory}"
    for q, cost in expected.items():
        assert host.query("prod", *q) == cost


def test_resnapshot_records_engine_name_not_snapshot_path(host, small_grid, tmp_path):
    """Snapshotting a snapshot-provisioned deployment must not chain paths."""
    from repro.persistence import read_manifest

    host.deploy("prod", "td-appro?budget_fraction=0.4", small_grid)
    first = host.snapshot("prod", tmp_path / "first.index")
    host.deploy("replica", f"snapshot:{first}")
    second = host.snapshot("replica", tmp_path / "second.index")
    # The re-snapshot records the resolved engine name, not "snapshot:<first>"
    # (which would embed a possibly-deleted path and lose the name).
    assert read_manifest(second)["engine_spec"] == "td-appro"
    rehydrated = create_engine(f"snapshot:{second}")
    assert rehydrated.name == "td-appro"
    s, t, d = _workload(small_grid, count=1, seed=18)[0]
    assert rehydrated.query(s, t, d).cost == host.query("prod", s, t, d)


def test_create_engine_snapshot_spec_roundtrip(small_grid, tmp_path):
    """The registry-level acceptance: spec -> snapshot -> spec, bit-identical."""
    built = create_engine("td-appro?budget_fraction=0.4", small_grid)
    built.index.save(tmp_path / "snap", engine_spec="td-appro?budget_fraction=0.4")
    served = create_engine(f"snapshot:{tmp_path / 'snap'}")
    assert served.name == "td-appro"
    for s, t, d in _workload(small_grid, count=8, seed=14):
        assert served.query(s, t, d).cost == built.query(s, t, d).cost


def test_snapshot_spec_rejects_graph(small_grid, tmp_path):
    built = create_engine("td-basic", small_grid)
    built.index.save(tmp_path / "snap")
    with pytest.raises(EngineSpecError):
        create_engine(f"snapshot:{tmp_path / 'snap'}", small_grid)


# ----------------------------------------------------------------------
# Async facade
# ----------------------------------------------------------------------
def test_aquery_matches_scalar(host, small_grid):
    host.deploy("prod", "td-basic", small_grid)
    reference = create_engine("td-basic", small_grid)
    workload = _workload(small_grid, count=6, seed=15)

    async def main() -> list[float]:
        return list(
            await asyncio.gather(*(host.aquery("prod", s, t, d) for s, t, d in workload))
        )

    costs = asyncio.run(main())
    assert costs == [reference.query(s, t, d).cost for s, t, d in workload]


def test_asubmit_returns_awaitable_future(host, small_grid):
    host.deploy("prod", "td-basic", small_grid)
    s, t, d = _workload(small_grid, count=1, seed=16)[0]

    async def main() -> float:
        future = host.asubmit("prod", s, t, d)
        assert isinstance(future, asyncio.Future)
        host.flush("prod")
        return await future

    assert asyncio.run(main()) == host.query("prod", s, t, d)


def test_async_error_propagates(host, small_grid):
    host.deploy("prod", "td-basic", small_grid)
    missing = max(small_grid.vertices()) + 1000

    async def main() -> float:
        return await host.aquery("prod", 0, missing, 0.0)

    with pytest.raises(VertexNotFoundError):
        asyncio.run(main())


def test_aswap_runs_off_loop(host, small_grid):
    host.deploy("prod", "td-basic", small_grid)
    replacement = create_engine("td-basic", _slowed_copy(small_grid))

    async def main() -> SwapReport:
        return await host.aswap("prod", replacement)

    report = asyncio.run(main())
    assert report.deployment == "prod"
    s, t, d = _workload(small_grid, count=1, seed=17)[0]
    assert host.query("prod", s, t, d) == replacement.query(s, t, d).cost


# ----------------------------------------------------------------------
# Stats plumbing
# ----------------------------------------------------------------------
def _bucket_counts(latencies_ms):
    """Latency bucket counts of ``latencies_ms``, as a service records them."""
    histogram = Histogram("test_latency_ms", "")
    for ms in latencies_ms:
        histogram.observe(ms)
    return histogram.value().counts


def test_service_stats_merged_counters():
    one = ServiceStats(
        queries_submitted=10,
        queries_answered=8,
        cache_hits=2,
        cache_entries=5,
        cache_invalidations=1,
        num_batches=2,
        avg_batch_size=3.0,
        batch_occupancy=0.5,
        elapsed_seconds=0.08,
        latency_bucket_counts=_bucket_counts([1.0] * 8),
    )
    two = ServiceStats(
        queries_submitted=20,
        queries_answered=16,
        cache_hits=4,
        cache_entries=7,
        cache_invalidations=0,
        num_batches=6,
        avg_batch_size=2.0,
        batch_occupancy=0.25,
        elapsed_seconds=0.08,
        latency_bucket_counts=_bucket_counts([3.0] * 16),
    )
    merged = ServiceStats.merged([one, two])
    assert merged.queries_submitted == 30
    assert merged.queries_answered == 24
    assert merged.cache_hits == 6
    assert merged.cache_entries == 7  # the live (last) cache
    assert merged.cache_invalidations == 1
    assert merged.num_batches == 8
    assert merged.avg_batch_size == pytest.approx((3.0 * 2 + 2.0 * 6) / 8)
    assert merged.batch_occupancy == pytest.approx((0.5 * 2 + 0.25 * 6) / 8)
    combined = _bucket_counts([1.0] * 8 + [3.0] * 16)
    assert merged.latency_bucket_counts == combined
    assert merged.p50_latency_ms == pytest.approx(
        bucket_percentile(LATENCY_BUCKETS_MS, combined, 50.0)
    )
    assert merged.throughput_qps == pytest.approx(24 / 0.16)
    assert merged.elapsed_seconds == pytest.approx(0.16)


def test_service_stats_merged_degenerate_cases():
    empty = ServiceStats.merged([])
    assert empty.queries_submitted == 0 and empty.throughput_qps == 0.0
    assert empty.latency_bucket_counts == ServiceStats.empty().latency_bucket_counts
    one = ServiceStats(1, 1, 0, 0, 0, 1, 1.0, 0.1, 0.1)
    assert ServiceStats.merged([one]) == one


def _stats_from_latencies(latencies_ms: list[float]) -> ServiceStats:
    answered = len(latencies_ms)
    return ServiceStats(
        queries_submitted=answered,
        queries_answered=answered,
        cache_hits=0,
        cache_entries=0,
        cache_invalidations=0,
        num_batches=1,
        avg_batch_size=float(answered),
        batch_occupancy=1.0,
        elapsed_seconds=1.0,
        latency_bucket_counts=_bucket_counts(latencies_ms),
    )


def test_service_stats_merged_percentiles_from_buckets():
    """Regression (PR 7): weighted-averaging percentiles is statistically wrong.

    Generation one answered 90 fast queries (~0.8 ms); generation two
    answered 10 slow ones (~3 s).  The old answered-weighted mean of the
    per-generation p99s reported a value between 1 ms and 2.5 s — an
    *impossible* value neither generation ever observed.  The
    bucket merge places p99 in the slow generation's bucket, where 10% of
    the combined traffic actually lives.
    """
    fast = _stats_from_latencies([0.8] * 90)
    slow = _stats_from_latencies([3_000.0] * 10)
    merged = ServiceStats.merged([fast, slow])
    impossible = (fast.p99_latency_ms * 90 + slow.p99_latency_ms * 10) / 100
    assert 1.0 < impossible < 2_500.0  # what the old weighted mean reported
    assert merged.p99_latency_ms > 2_500.0  # inside the slow bucket
    assert merged.p50_latency_ms <= 1.0  # the fast mass still dominates p50
    # The merged bucket counts are the exact union of both generations.
    assert sum(merged.latency_bucket_counts) == 100
    assert merged.latency_bucket_counts == tuple(
        a + b for a, b in zip(fast.latency_bucket_counts, slow.latency_bucket_counts)
    )
