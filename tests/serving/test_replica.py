"""Behavioural tests for multi-process replica serving.

The headline contracts of :class:`~repro.serving.ReplicaPool`:

* **bit-identical answers** — every cost answered by a worker process equals
  the scalar oracle's, exactly (the replicas rehydrate the same snapshot the
  oracle was saved from, and costs cross the queue as raw float64);
* **shared memory** — workers map the snapshot with ``mmap_mode="r"``, so N
  replicas cost one index's worth of physical RAM (the mapping itself is
  proven in tests/persistence/test_snapshot.py);
* **typed errors cross the process boundary** — a worker-side
  ``VertexNotFoundError`` re-raises in the parent as the same type with the
  same attributes (which is what tests/test_exceptions.py's ``__reduce__``
  contract buys);
* **liveness folds into supervision** — a SIGKILLed worker is respawned from
  the snapshot by ``check()``, its in-flight requests failed with
  :class:`~repro.exceptions.WorkerCrashedError`, and at the host level the
  deployment walks DEGRADED -> HEALTHY through the existing recovery ladder.

Worker processes use the ``spawn`` start method (~0.5-1 s each), so pools are
shared per module where the test is read-only.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import create_engine
from repro.exceptions import (
    HostError,
    ServiceClosedError,
    SnapshotError,
    VertexNotFoundError,
    WorkerCrashedError,
)
from repro.obs.metrics import LATENCY_BUCKETS_MS, Histogram, bucket_percentile
from repro.persistence import save_index
from repro.serving import (
    EngineHost,
    QueryService,
    ReplicaPool,
    ServiceStats,
)
from repro.serving.supervision import HealthState

N_BUCKET_SLOTS = len(LATENCY_BUCKETS_MS) + 1


def _workload(graph, count=40, seed=11):
    rng = np.random.default_rng(seed)
    vertices = np.asarray(sorted(graph.vertices()))
    return (
        rng.choice(vertices, count).astype(np.int64),
        rng.choice(vertices, count).astype(np.int64),
        rng.uniform(0.0, 86_400.0, count),
    )


@pytest.fixture(scope="module")
def snapshot_dir(basic_index, tmp_path_factory):
    """One saved snapshot every pool in this module rehydrates from."""
    return basic_index.index.save(
        tmp_path_factory.mktemp("replica-snap") / "snap"
    )


@pytest.fixture(scope="module")
def pool(snapshot_dir):
    """A shared 2-worker pool for the read-only tests."""
    p = ReplicaPool(snapshot_dir, 2, name="test-pool")
    yield p
    p.close()


def _wait_for_exit(pid, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except OSError:
            return
        time.sleep(0.05)


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------
class TestAnswers:
    def test_batch_answers_bit_identical_to_oracle(self, pool, basic_index):
        sources, targets, departures = _workload(basic_index.graph)
        expected = basic_index.batch_query(sources, targets, departures).costs
        got = pool.batch_query(sources, targets, departures).costs
        assert np.array_equal(got, expected)

    def test_scalar_answers_bit_identical_to_oracle(self, pool, basic_index):
        sources, targets, departures = _workload(basic_index.graph, count=8)
        for s, t, d in zip(sources, targets, departures):
            assert (
                pool.query(int(s), int(t), float(d)).cost
                == basic_index.query(int(s), int(t), float(d)).cost
            )

    def test_engine_protocol_surface(self, pool):
        assert pool.capabilities().batch
        assert pool.name == "test-pool"
        assert pool.size == 2
        assert pool.mmap_mode == "r"
        assert pool.alive_count == 2

    def test_typed_errors_cross_the_process_boundary(self, pool):
        with pytest.raises(VertexNotFoundError) as excinfo:
            pool.query(10_000_000, 0, 0.0)
        assert excinfo.value.vertex == 10_000_000

    def test_pool_slots_under_query_service(self, pool, basic_index):
        """The pool is a drop-in engine for the micro-batching service."""
        sources, targets, departures = _workload(basic_index.graph, count=16, seed=23)
        expected = basic_index.batch_query(sources, targets, departures).costs
        with QueryService(pool, cache_size=0) as service:
            futures = [
                service.submit(int(s), int(t), float(d))
                for s, t, d in zip(sources, targets, departures)
            ]
            service.flush()
            got = [f.result(timeout=30.0) for f in futures]
        assert np.array_equal(np.asarray(got), expected)


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
class TestPoolStats:
    def test_per_replica_stats_and_merge(self, snapshot_dir, basic_index):
        sources, targets, departures = _workload(basic_index.graph, count=30, seed=31)
        with_pool = ReplicaPool(snapshot_dir, 2, name="stats-pool")
        try:
            for s, t, d in zip(sources, targets, departures):
                with_pool.query(int(s), int(t), float(d))
            parts = with_pool.stats()
            assert len(parts) == 2
            # Least-loaded routing with sequential queries spreads the work.
            assert all(p.queries_answered > 0 for p in parts)
            assert sum(p.queries_answered for p in parts) == 30
            merged = with_pool.merged_stats()
            assert merged.queries_answered == 30
            assert len(merged.latency_bucket_counts) == N_BUCKET_SLOTS
            assert sum(merged.latency_bucket_counts) == 30
        finally:
            with_pool.close()

    def test_unqueried_replica_merges_as_empty(self, snapshot_dir):
        with_pool = ReplicaPool(snapshot_dir, 2, name="idle-pool")
        try:
            with_pool.query(0, 1, 0.0)
            parts = with_pool.stats()
            answered = sorted(p.queries_answered for p in parts)
            assert answered == [0, 1]
            merged = ServiceStats.merged(parts)
            assert merged.queries_answered == 1
        finally:
            with_pool.close()


class TestMergedReplicaStats:
    """``ServiceStats.merged`` over per-replica snapshots (pure, no workers).

    Replica stats behave like swap generations with *disjoint* histories:
    each worker counted its own queries into its own latency buckets, so a
    pool-wide merge must add bucket counts exactly and recompute percentiles
    from the combined histogram — never average per-replica percentiles.
    """

    @staticmethod
    def _replica_stats(answered, bucket_slot, *, elapsed, cache_entries=0):
        # Every sample sits on the slot's upper bound, so all land in it.
        histogram = Histogram("test_replica_latency_ms", "")
        for _ in range(answered):
            histogram.observe(LATENCY_BUCKETS_MS[bucket_slot])
        return ServiceStats(
            queries_submitted=answered,
            queries_answered=answered,
            cache_hits=0,
            cache_entries=cache_entries,
            cache_invalidations=0,
            num_batches=max(1, answered // 4),
            avg_batch_size=4.0,
            batch_occupancy=0.5,
            elapsed_seconds=elapsed,
            latency_bucket_counts=histogram.value().counts,
        )

    def test_three_replicas_with_disjoint_generations(self):
        # Three workers whose latency mass sits in disjoint buckets.
        fast = self._replica_stats(60, 1, elapsed=2.0)
        mid = self._replica_stats(30, 4, elapsed=1.5)
        slow = self._replica_stats(10, 7, elapsed=0.5, cache_entries=9)
        merged = ServiceStats.merged([fast, mid, slow])

        assert merged.queries_answered == 100
        assert merged.queries_submitted == 100
        assert merged.elapsed_seconds == pytest.approx(4.0)
        assert merged.throughput_qps == pytest.approx(100 / 4.0)
        assert merged.cache_entries == 9  # the last part's live cache
        # Bucket counts add exactly across replicas ...
        expected_counts = [0] * N_BUCKET_SLOTS
        expected_counts[1], expected_counts[4], expected_counts[7] = 60, 30, 10
        assert merged.latency_bucket_counts == tuple(expected_counts)
        # ... and the merged percentiles are true combined-histogram
        # percentiles: p50 lands in the fast worker's bucket (60 of 100
        # samples), p99 in the slow worker's.
        assert merged.p50_latency_ms == bucket_percentile(
            LATENCY_BUCKETS_MS, merged.latency_bucket_counts, 50.0
        )
        assert merged.p50_latency_ms <= float(LATENCY_BUCKETS_MS[1])
        assert merged.p99_latency_ms >= float(LATENCY_BUCKETS_MS[6])

    def test_zero_query_replica_does_not_poison_the_merge(self):
        """A spawned-but-unqueried (or dead) replica contributes nothing."""
        active = self._replica_stats(40, 2, elapsed=1.0)
        other = self._replica_stats(20, 5, elapsed=1.0)
        idle = ServiceStats.empty()
        merged_with_idle = ServiceStats.merged([active, idle, other])
        merged_without = ServiceStats.merged([active, other])

        assert merged_with_idle.queries_answered == 60
        assert (
            merged_with_idle.latency_bucket_counts
            == merged_without.latency_bucket_counts
        )
        assert merged_with_idle.p50_latency_ms == merged_without.p50_latency_ms
        assert merged_with_idle.p99_latency_ms == merged_without.p99_latency_ms
        # cache_entries tracks the *last* part — the idle one in this order.
        assert ServiceStats.merged([active, idle]).cache_entries == 0

    def test_all_zero_query_replicas_merge_to_empty(self):
        merged = ServiceStats.merged([ServiceStats.empty()] * 3)
        assert merged.queries_answered == 0
        assert merged.p50_latency_ms == 0.0
        assert merged.throughput_qps == 0.0

    def test_empty_carries_full_bucket_tuple(self):
        assert len(ServiceStats.empty().latency_bucket_counts) == N_BUCKET_SLOTS


# ----------------------------------------------------------------------
# Liveness / recovery
# ----------------------------------------------------------------------
class TestLiveness:
    def test_killed_replica_is_respawned_with_identical_answers(
        self, snapshot_dir, basic_index
    ):
        sources, targets, departures = _workload(basic_index.graph, count=12, seed=41)
        expected = basic_index.batch_query(sources, targets, departures).costs
        with_pool = ReplicaPool(snapshot_dir, 2, name="kill-pool")
        try:
            assert np.array_equal(
                with_pool.batch_query(sources, targets, departures).costs, expected
            )
            victim = with_pool.replicas()[0]
            os.kill(victim.pid, signal.SIGKILL)
            _wait_for_exit(victim.pid)
            recoveries = with_pool.check()
            assert [r.action for r in recoveries] == ["respawn"]
            assert recoveries[0].replica == 0
            assert with_pool.alive_count == 2
            respawned = with_pool.replicas()[0]
            assert respawned.alive and respawned.pid != victim.pid
            assert respawned.spawns == 2
            assert np.array_equal(
                with_pool.batch_query(sources, targets, departures).costs, expected
            )
        finally:
            with_pool.close()

    def test_clean_check_reports_nothing(self, pool):
        assert pool.check() == []

    def test_close_is_idempotent_and_final(self, snapshot_dir):
        with_pool = ReplicaPool(snapshot_dir, 1, name="close-pool")
        with_pool.close()
        with_pool.close()
        assert with_pool.closed
        with pytest.raises(ServiceClosedError):
            with_pool.query(0, 1, 0.0)

    def test_missing_snapshot_fails_fast(self, tmp_path):
        with pytest.raises(SnapshotError):
            ReplicaPool(tmp_path / "nowhere", 2)

    def test_invalid_mmap_mode_fails_fast(self, snapshot_dir):
        with pytest.raises(SnapshotError):
            ReplicaPool(snapshot_dir, 1, mmap_mode="r+")

    def test_invalid_replica_count_fails_fast(self, snapshot_dir):
        with pytest.raises(ValueError):
            ReplicaPool(snapshot_dir, 0)


# ----------------------------------------------------------------------
# Host integration (deploy(..., replicas=N))
# ----------------------------------------------------------------------
class TestHostIntegration:
    @pytest.fixture(scope="class")
    def replica_host(self, snapshot_dir):
        host = EngineHost(cache_size=0)
        host.deploy("prod", f"snapshot:{snapshot_dir}", replicas=2)
        yield host
        host.close()

    def test_deployment_reports_replicas(self, replica_host):
        info = replica_host.deployment("prod")
        assert info.replicas == 2
        report = replica_host.health("prod")
        assert report.replicas == 2
        assert report.replicas_alive == 2

    def test_host_answers_bit_identical(self, replica_host, basic_index):
        sources, targets, departures = _workload(basic_index.graph, count=20, seed=53)
        for s, t, d in zip(sources, targets, departures):
            assert replica_host.query(
                "prod", int(s), int(t), float(d)
            ) == basic_index.query(int(s), int(t), float(d)).cost

    def test_replica_stats_are_per_worker(self, replica_host):
        parts = replica_host.replica_stats("prod")
        assert len(parts) == 2
        assert all(isinstance(p, ServiceStats) for p in parts)
        infos = replica_host.replicas("prod")
        assert len(infos) == 2 and all(r.alive for r in infos)

    def test_killed_replica_walks_degraded_then_healthy(self, replica_host):
        victim = replica_host.replicas("prod")[1]
        os.kill(victim.pid, signal.SIGKILL)
        _wait_for_exit(victim.pid)
        reports = replica_host.check()
        assert reports["prod"].action == "respawn"
        assert replica_host.health("prod").state is HealthState.DEGRADED
        # worker_restarts counts the respawn like a service restart.
        assert replica_host.stats("prod").worker_restarts >= 1
        for _ in range(3):  # clean passes promote DEGRADED back
            replica_host.check()
        report = replica_host.health("prod")
        assert report.state is HealthState.HEALTHY
        assert report.replicas_alive == 2

    def test_clone_loads_the_pool_snapshot(self, replica_host, basic_index):
        clone = replica_host.clone("prod")
        assert clone.name == basic_index.name
        sources, targets, departures = _workload(basic_index.graph, count=20, seed=54)
        assert np.array_equal(
            clone.batch_query(sources, targets, departures).costs,
            basic_index.batch_query(sources, targets, departures).costs,
        )

    def test_apply_updates_respawns_the_pool_over_a_repaired_clone(
        self, snapshot_dir, basic_index
    ):
        graph = basic_index.graph
        weight = graph.weight(0, 1)
        shadow = graph.copy()
        shadow.set_weight(0, 1, weight.shift(300.0))
        oracle = create_engine("td-basic?max_points=none", shadow)
        with EngineHost(cache_size=0) as host:
            host.deploy("prod", f"snapshot:{snapshot_dir}", replicas=1)
            report = host.apply_updates("prod", {(0, 1): weight.shift(300.0)})
            assert report.num_dirty_vertices >= 1
            info = host.deployment("prod")
            assert info.replicas == 1 and info.swap_count == 1
            sources, targets, departures = _workload(graph, count=20, seed=55)
            for s, t, d in zip(sources, targets, departures):
                assert host.query("prod", int(s), int(t), float(d)) == oracle.query(
                    int(s), int(t), float(d)
                ).cost

    def test_replica_stats_on_unknown_deployment_raises(self, replica_host):
        with pytest.raises(HostError):
            replica_host.replica_stats("missing")

    def test_single_process_deployment_has_no_replicas(self, snapshot_dir):
        with EngineHost() as host:
            info = host.deploy("solo", f"snapshot:{snapshot_dir}")
            assert info.replicas == 0
            assert host.replicas("solo") == []
            with pytest.raises(HostError):
                host.replica_stats("solo")
            report = host.health("solo")
            assert report.replicas == 0 and report.replicas_alive is None
