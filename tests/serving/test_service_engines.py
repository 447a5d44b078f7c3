"""QueryService over :mod:`repro.api` engines (batched and loop-flushed).

The acceptance bar: any registered engine can be micro-batch served, and a
baseline engine without the batch capability answers with costs bit-identical
to looping its own scalar ``query`` — so baselines and the index can be
A/B-compared under identical traffic through one front-end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import create_engine
from repro.exceptions import DisconnectedQueryError
from repro.graph import grid_network
from repro.serving import QueryService


@pytest.fixture(scope="module")
def graph():
    return grid_network(5, 5, num_points=3, seed=3)


def _workload(graph, count=24, seed=42):
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


@pytest.mark.parametrize(
    "spec",
    [
        "td-dijkstra",          # no batch capability: loop-flush
        "td-astar",             # no batch capability: loop-flush
        "tdg-tree?leaf_size=8", # no batch capability: loop-flush
        "td-appro?budget_fraction=0.4",  # batch capability: vectorized flush
        "td-basic",             # batch capability: vectorized flush
    ],
)
def test_service_costs_bit_identical_to_scalar_loop(graph, spec):
    engine = create_engine(spec, graph)
    workload = _workload(graph)
    with QueryService(engine, max_batch_size=8) as service:
        futures = [service.submit(s, t, d) for s, t, d in workload]
        service.flush()
        got = [f.result(timeout=30) for f in futures]
    expected = [engine.query(s, t, d).cost for s, t, d in workload]
    assert got == expected  # bit-identical, not approximately equal


def test_loop_flush_isolates_bad_queries(graph):
    """One disconnected query must not poison the rest of a loop-flush batch."""
    engine = create_engine("td-dijkstra", graph)
    missing_vertex = 10_000
    with QueryService(engine, max_batch_size=16) as service:
        good = service.submit(0, 24, 0.0)
        bad = service.submit(0, missing_vertex, 0.0)
        also_good = service.submit(3, 20, 30_000.0)
        service.flush()
        assert good.result(timeout=30) == engine.query(0, 24, 0.0).cost
        assert also_good.result(timeout=30) == engine.query(3, 20, 30_000.0).cost
        with pytest.raises(Exception):
            bad.result(timeout=30)


def test_engine_updates_invalidate_service_cache(graph):
    """Invalidation hooks work through the engine adapter, not just the index."""
    private_graph = grid_network(4, 4, num_points=3, seed=13)
    engine = create_engine("td-appro?budget_fraction=0.4", private_graph)
    with QueryService(engine, max_batch_size=4) as service:
        before = service.query(0, 15, 0.0)
        assert service.stats().cache_entries > 0
        u, v, weight = next(iter(private_graph.edges()))
        from repro.functions import PiecewiseLinearFunction

        engine.update_edges(
            {
                (u, v): PiecewiseLinearFunction(
                    weight.times, weight.costs * 3.0, weight.via, validate=False
                )
            }
        )
        stats = service.stats()
        assert stats.cache_invalidations == 1
        after = service.query(0, 15, 0.0)
        assert after == engine.query(0, 15, 0.0).cost
        assert before == pytest.approx(before)  # sanity: original answer intact


def test_service_stats_track_loop_flush_batches(graph, held_engine):
    engine = held_engine(create_engine("td-dijkstra", graph))
    with QueryService(engine, max_batch_size=4) as service:
        with engine.plugged(service.submit):
            workload = _workload(graph, count=8, seed=1)
            futures = [service.submit(s, t, d) for s, t, d in workload]
            for future in futures:
                future.result(timeout=30)
            stats = service.stats()
    assert stats.queries_answered == 8
    assert stats.num_batches == 2  # two full size-triggered flushes
    assert stats.avg_batch_size == 4.0


def test_disconnected_error_type_preserved_in_loop_flush():
    from repro.functions import PiecewiseLinearFunction
    from repro.graph import TDGraph

    graph = TDGraph()
    graph.add_edge(0, 1, PiecewiseLinearFunction.constant(10.0))
    graph.add_edge(2, 1, PiecewiseLinearFunction.constant(10.0))
    engine = create_engine("td-dijkstra", graph)
    with QueryService(engine, max_batch_size=2) as service:
        future = service.submit(0, 2, 0.0)
        service.flush()
        with pytest.raises(DisconnectedQueryError):
            future.result(timeout=30)
