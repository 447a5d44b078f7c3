"""Update / cache interplay: every cached layer must converge after updates.

``apply_edge_updates`` repairs labels and shortcuts incrementally; three
caching layers sit on top of them (per-node label batches on the tree,
per-OD-pair batches on the index, the serving result cache).  After
an update, answers served through **every** entry point must match an index
built from scratch over the updated graph — the strongest oracle available.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import create_engine
from repro.serving import EngineHost, QueryService


def _workload(graph, count=25, seed=77):
    rng = np.random.default_rng(seed)
    vertices = np.asarray(sorted(graph.vertices()))
    return (
        rng.choice(vertices, count),
        rng.choice(vertices, count),
        rng.uniform(0.0, 86_400.0, count),
    )


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param("td-basic", id="basic"),
        pytest.param("td-appro?budget_fraction=0.4", id="approx"),
        pytest.param("td-full", id="full"),
    ],
)
def test_batch_query_matches_fresh_index_after_update(small_grid, spec):
    engine = create_engine(spec, small_grid.copy(), max_points=None)
    sources, targets, departures = _workload(engine.graph)
    engine.batch_query(sources, targets, departures)  # warm every cache

    edges = sorted(engine.graph.edges(), key=lambda e: (e[0], e[1]))
    changes = {
        (u, v): w.shift(180.0) for u, v, w in edges[:3]
    }
    engine.update_edges(changes)

    fresh = create_engine(spec, engine.graph.copy(), max_points=None, validate=False)
    updated_costs = engine.batch_query(sources, targets, departures).costs
    fresh_costs = fresh.batch_query(sources, targets, departures).costs
    np.testing.assert_allclose(updated_costs, fresh_costs, rtol=1e-6, atol=1e-6)

    # The incrementally-updated index must also stay self-consistent:
    # batched answers equal its own scalar answers bit for bit.
    looped = np.array(
        [
            engine.query(int(s), int(t), float(d)).cost
            for s, t, d in zip(sources, targets, departures)
        ]
    )
    assert np.array_equal(updated_costs, looped)


def test_query_service_matches_fresh_index_after_update(small_grid):
    engine = create_engine(
        "td-appro?budget_fraction=0.4&max_points=none", small_grid.copy()
    )
    sources, targets, departures = _workload(engine.graph, seed=78)
    queries = list(zip(sources.tolist(), targets.tolist(), departures.tolist()))

    with QueryService(engine, max_batch_size=10) as service:
        for s, t, d in queries:
            service.query(s, t, d)  # populate the result cache pre-update

        edges = sorted(engine.graph.edges(), key=lambda e: (e[0], e[1]))
        u, v, weight = edges[1]
        engine.update_edges({(u, v): weight.shift(240.0)})
        assert service.stats().cache_invalidations == 1

        fresh = create_engine(
            "td-appro?budget_fraction=0.4&max_points=none&validate=false",
            engine.graph.copy(),
        )
        served = [service.query(s, t, d) for s, t, d in queries]
        expected = [fresh.query(s, t, d).cost for s, t, d in queries]
        np.testing.assert_allclose(served, expected, rtol=1e-6, atol=1e-6)


def test_repeated_updates_keep_all_layers_consistent(small_grid):
    """Alternate updates and mixed-entry-point queries several times over."""
    engine = create_engine(
        "td-appro?budget_fraction=0.4&max_points=none", small_grid.copy()
    )
    sources, targets, departures = _workload(engine.graph, count=15, seed=79)
    edges = sorted(engine.graph.edges(), key=lambda e: (e[0], e[1]))
    with QueryService(engine, max_batch_size=6) as service:
        for round_no in range(3):
            u, v, weight = edges[round_no * 5]
            engine.update_edges({(u, v): weight.shift(60.0 * (round_no + 1))})
            batch_costs = engine.batch_query(sources, targets, departures).costs
            served = [
                service.query(int(s), int(t), float(d))
                for s, t, d in zip(sources, targets, departures)
            ]
            looped = [
                engine.query(int(s), int(t), float(d)).cost
                for s, t, d in zip(sources, targets, departures)
            ]
            assert np.array_equal(batch_costs, np.asarray(looped))
            assert served == looped


# ----------------------------------------------------------------------
# Swap-race regressions: invalidation hooks must never fire on a retired
# generation's cache, and in-place updates must serialize against swaps.
# ----------------------------------------------------------------------
def _build_service(small_grid):
    engine = create_engine("td-basic?max_points=none", small_grid.copy())
    return engine, QueryService(engine, max_batch_size=8)


def test_invalidation_racing_close_does_not_bill_retired_cache(
    small_grid, monkeypatch
):
    """An update landing while close() drains must not touch the retired cache.

    During a hot swap the successor service is already registered on the
    index; the outgoing generation detaches its hook *before* the final
    drain.  Regression: the hook used to be unregistered last, so an update
    racing the drain fired into the retired cache and skewed its stats.
    """
    engine, service = _build_service(small_grid)
    service.query(0, 24, 0.0)
    before = service.stats().cache_invalidations

    original_drain = service._drain

    def racing_drain() -> int:
        # Simulates apply_edge_updates() finishing on another thread exactly
        # while close() is mid-drain.
        engine.index.notify_invalidation()
        return original_drain()

    monkeypatch.setattr(service, "_drain", racing_drain)
    service.close()
    assert service.stats().cache_invalidations == before


def test_invalidate_cache_is_noop_on_closed_service(small_grid):
    engine, service = _build_service(small_grid)
    service.query(0, 24, 0.0)
    service.close()
    before = service.stats().cache_invalidations
    service.invalidate_cache()  # a straggling notify after retirement
    assert service.stats().cache_invalidations == before


def test_abort_unregisters_hook_before_settling(small_grid):
    engine, service = _build_service(small_grid)
    service.query(0, 24, 0.0)
    service.abort()
    before = service.stats().cache_invalidations
    engine.index.notify_invalidation()
    assert service.stats().cache_invalidations == before


def test_host_apply_updates_serializes_against_swap(small_grid):
    """host.apply_updates must wait for a concurrent swap, never interleave.

    Holding the deployment's swap lock (what ``swap`` does while it builds
    and flips) must park apply_updates entirely — clone, repair and flip
    happen under that one lock.  Once released, the repaired clone of
    whatever engine is live is swapped in, the engine it replaced is left
    untouched, and answers converge to the fresh-rebuild oracle.
    """
    with EngineHost(max_batch_size=16) as host:
        host.deploy("prod", "td-h2h", small_grid.copy())
        entry = host._deployments["prod"]
        before = host.deployment("prod")
        edges = sorted(before.engine.graph.edges(), key=lambda e: (e[0], e[1]))
        u, v, weight = edges[0]
        changes = {(u, v): weight.shift(300.0)}

        applied = threading.Event()

        def worker() -> None:
            host.apply_updates("prod", changes)
            applied.set()

        entry.swap_lock.acquire()
        try:
            thread = threading.Thread(target=worker, daemon=True)
            thread.start()
            assert not applied.wait(0.3), "apply_updates ran inside a swap"
        finally:
            entry.swap_lock.release()
        assert applied.wait(10.0), "apply_updates never completed after swap"
        thread.join(timeout=10.0)

        after = host.deployment("prod")
        assert after.swap_count == before.swap_count + 1
        assert before.engine.graph.weight(u, v) is weight  # never mutated
        shadow = small_grid.copy()
        shadow.set_weight(u, v, weight.shift(300.0))
        fresh = create_engine("td-h2h", shadow)
        for s, t, d in [(0, 24, 0.0), (u, v, 1_000.0), (24, 0, 43_200.0)]:
            assert host.query("prod", s, t, d) == fresh.query(s, t, d).cost


def test_host_apply_updates_lands_on_live_generation_after_swap(small_grid):
    """Updates submitted after a swap repair a clone of the new engine."""
    with EngineHost(max_batch_size=16) as host:
        host.deploy("prod", "td-h2h", small_grid.copy())
        host.swap("prod", "td-h2h?max_points=none", small_grid.copy())
        edges = sorted(small_grid.edges(), key=lambda e: (e[0], e[1]))
        u, v, weight = edges[2]
        report = host.apply_updates("prod", {(u, v): weight.shift(120.0)})
        assert report.num_dirty_vertices >= 1
        # The clone came from the swapped-in generation: its spec survives.
        assert host.deployment("prod").spec == "td-h2h?max_points=none"

        shadow = small_grid.copy()
        shadow.set_weight(u, v, weight.shift(120.0))
        fresh = create_engine("td-h2h?max_points=none", shadow)
        assert host.query("prod", u, v, 0.0) == fresh.query(u, v, 0.0).cost
