"""Property-based tests for the index as a whole.

The single most important invariant of the reproduction: on random small
FIFO networks, every build strategy answers travel-cost queries identically to
plain time-dependent Dijkstra (exactly when functions are uncapped, within a
small bounded error when capped).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import create_engine
from repro.baselines import earliest_arrival
from repro.functions import PiecewiseLinearFunction
from repro.graph import TDGraph, WeightGenerator, validate_graph


def random_connected_graph(num_vertices: int, extra_edges: int, seed: int) -> TDGraph:
    """A random connected time-dependent graph: spanning tree + extra edges."""
    rng = np.random.default_rng(seed)
    generator = WeightGenerator(num_points=3, seed=seed)
    graph = TDGraph()
    for vertex in range(1, num_vertices):
        anchor = int(rng.integers(0, vertex))
        base = float(rng.uniform(60, 600))
        graph.add_bidirectional_edge(
            vertex, anchor, generator.profile_for(base), generator.profile_for(base)
        )
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 10 * extra_edges + 10:
        attempts += 1
        u, v = (int(x) for x in rng.integers(0, num_vertices, size=2))
        if u == v or graph.has_edge(u, v):
            continue
        base = float(rng.uniform(60, 600))
        graph.add_bidirectional_edge(
            u, v, generator.profile_for(base), generator.profile_for(base)
        )
        added += 1
    return graph


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    num_vertices=st.integers(min_value=4, max_value=16),
    extra_edges=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=10_000),
    departure=st.floats(min_value=0.0, max_value=86_400.0),
)
# Regression: the optimal 12 -> 11 journey on this graph peaks at the tree
# root, strictly above X(lca) — seeding the descending sweep with the vertex
# cut alone misses it (TD-basic answered 1581.02 instead of 1492.50).
@example(num_vertices=15, extra_edges=4, seed=374, departure=0.0)
def test_every_strategy_matches_dijkstra_on_random_graphs(
    num_vertices, extra_edges, seed, departure
):
    graph = random_connected_graph(num_vertices, extra_edges, seed)
    assert validate_graph(graph).is_valid
    rng = np.random.default_rng(seed + 1)
    queries = [
        tuple(int(x) for x in rng.choice(num_vertices, size=2, replace=False))
        for _ in range(5)
    ]

    engines = {
        "basic": create_engine("td-basic?max_points=none&validate=false", graph),
        "full": create_engine("td-full?max_points=none&validate=false", graph),
        "approx": create_engine(
            "td-appro?budget_fraction=0.5&max_points=none&validate=false", graph
        ),
    }
    for source, target in queries:
        reference = earliest_arrival(graph, source, target, departure)
        for name, engine in engines.items():
            result = engine.query(source, target, departure)
            assert result.cost == pytest.approx(reference.cost, rel=1e-6, abs=1e-5), name


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    num_vertices=st.integers(min_value=4, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_profiles_dominate_no_departure_time(num_vertices, seed):
    """The profile query evaluated at any time equals the scalar query there."""
    graph = random_connected_graph(num_vertices, 4, seed)
    engine = create_engine("td-full?max_points=none&validate=false", graph)
    rng = np.random.default_rng(seed)
    source, target = (int(x) for x in rng.choice(num_vertices, size=2, replace=False))
    profile = engine.profile(source, target)
    for departure in np.linspace(0.0, 86_400.0, 7):
        scalar = engine.query(source, target, float(departure))
        assert profile.cost_at(float(departure)) == pytest.approx(
            scalar.cost, rel=1e-6, abs=1e-5
        )


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    num_vertices=st.integers(min_value=5, max_value=14),
    seed=st.integers(min_value=0, max_value=10_000),
    factor=st.floats(min_value=0.3, max_value=4.0),
)
def test_updates_keep_index_consistent_with_dijkstra(num_vertices, seed, factor):
    graph = random_connected_graph(num_vertices, 5, seed)
    engine = create_engine(
        "td-appro?budget_fraction=0.5&max_points=none&validate=false", graph
    )
    rng = np.random.default_rng(seed + 2)
    edges = sorted(graph.edges())
    u, v, weight = edges[int(rng.integers(0, len(edges)))]
    new_weight = PiecewiseLinearFunction(
        weight.times, np.maximum(weight.costs * factor, 0.5), validate=False
    )
    engine.update_edges({(u, v): new_weight})
    for _ in range(4):
        source, target = (int(x) for x in rng.choice(num_vertices, size=2, replace=False))
        departure = float(rng.uniform(0, 86_400))
        reference = earliest_arrival(graph, source, target, departure)
        assert engine.query(source, target, departure).cost == pytest.approx(
            reference.cost, rel=1e-6, abs=1e-5
        )
