#!/usr/bin/env python
"""Serving walkthrough: snapshot an index once, serve traffic with micro-batching.

The production deployment shape the ``repro.persistence`` and ``repro.serving``
subsystems are built for:

1. an offline builder constructs the index via ``create_engine`` and writes
   a versioned snapshot (``.npz`` buffers + JSON manifest),
2. every serving worker calls ``create_engine("snapshot:<path>")`` — one to
   two orders of magnitude cheaper than rebuilding — and fronts the engine
   with a ``QueryService`` (which serves *any* ``repro.api`` engine, even
   the batch-less baselines, via a scalar loop-flush),
3. scalar ``submit()`` calls from request handlers are micro-batched through
   the vectorized engine and answered via futures, with an LRU result cache
   (optionally bucketing departure times) absorbing repeated questions,
4. when traffic conditions change, ``update_edges`` repairs the index in
   place and automatically invalidates the service's result cache.  (For a
   multi-threaded deployment prefer the ``repro.traffic`` control loop in
   ``examples/live_traffic.py`` — stream events in, let the policy patch a
   clone or swap, never mutate under readers.)

Run it with::

    python examples/serving_walkthrough.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import create_engine
from repro.graph import grid_network
from repro.persistence import read_manifest
from repro.serving import QueryService


def main() -> None:
    # 1. Offline: build once, snapshot to disk.
    graph = grid_network(10, 10, num_points=3, seed=101)
    started = time.perf_counter()
    engine = create_engine("td-appro?budget_fraction=0.35", graph)
    build_seconds = time.perf_counter() - started
    snapshot_dir = Path(tempfile.mkdtemp(prefix="repro-snapshot-")) / "cal.index"
    engine.index.save(snapshot_dir)
    manifest = read_manifest(snapshot_dir)
    print(
        f"snapshot: format v{manifest['format_version']}, "
        f"{manifest['counts']['tree_nodes']} tree nodes, "
        f"{manifest['counts']['shortcut_pairs']} shortcut pairs -> {snapshot_dir}"
    )

    # 2. Online worker: load instead of rebuild (snapshots round-trip
    #    bit-identically, so the worker's engine answers exactly like the
    #    builder's).
    started = time.perf_counter()
    served = create_engine(f"snapshot:{snapshot_dir}")
    load_seconds = time.perf_counter() - started
    print(
        f"load: {load_seconds * 1000:.1f} ms vs {build_seconds * 1000:.0f} ms build "
        f"({build_seconds / load_seconds:.0f}x faster)"
    )

    # 3. Serve scalar traffic through the micro-batching service.  Bucketing
    #    departures to 5 minutes trades a bounded answer staleness for cache
    #    hits on "same commute, roughly same time" traffic.
    rng = np.random.default_rng(7)
    vertices = np.asarray(sorted(graph.vertices()))
    workload = [
        (
            int(rng.choice(vertices)),
            int(rng.choice(vertices)),
            float(rng.uniform(7.5 * 3600, 9 * 3600)),
        )
        for _ in range(400)
    ]
    with QueryService(served, max_batch_size=128, bucket_seconds=300.0) as service:
        futures = [service.submit(s, t, d) for s, t, d in workload]
        service.flush()
        costs = [f.result(timeout=30) for f in futures]
        print(f"served {len(costs)} queries, mean travel cost {np.mean(costs) / 60:.1f} min")

        # Replay the same commutes a few minutes later: the bucketed cache
        # answers most of them without touching the engine.
        replay = [(s, t, d + 60.0) for s, t, d in workload[:200]]
        for s, t, d in replay:
            service.submit(s, t, d)
        service.flush()
        stats = service.stats()
        print(
            f"stats: {stats.queries_answered} answered, "
            f"hit rate {stats.cache_hit_rate:.0%}, "
            f"batch occupancy {stats.batch_occupancy:.0%}, "
            f"p50 {stats.p50_latency_ms:.2f} ms, p95 {stats.p95_latency_ms:.2f} ms, "
            f"{stats.throughput_qps:,.0f} q/s"
        )

        # 4. Traffic incident: double one road's travel time.  The update
        #    repairs the index in place and fires the service's invalidation
        #    hook, so no stale cached answer survives.
        u, v, weight = next(iter(served.graph.edges()))
        served.update_edges({(u, v): weight.shift(weight.max_cost)})
        after = service.stats()
        print(
            f"incident on edge ({u}, {v}): cache invalidated "
            f"({after.cache_invalidations} invalidation, "
            f"{after.cache_entries} entries left)"
        )
        s, t, d = workload[0]
        print(f"re-served query {s} -> {t}: {service.query(s, t, d) / 60:.1f} min")


if __name__ == "__main__":
    main()
