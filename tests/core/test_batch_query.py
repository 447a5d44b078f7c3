"""Equivalence tests for the batched query engine and batched construction.

The contract under test is strict: :func:`batch_cost_query` must return
**bit-identical** costs to looping the scalar query functions over the same
workload, for every index flavour (no shortcuts, partial shortcuts, full
shortcuts), and the level-batched shortcut catalog must equal the scalar
reference construction function by function.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query import basic_cost_query, batch_cost_query, shortcut_cost_query
from repro.core.shortcuts import build_shortcut_catalog
from repro.exceptions import DisconnectedQueryError, VertexNotFoundError
from repro.functions import PiecewiseLinearFunction
from repro import TDGraph, create_engine


def _workload(graph, count=60, seed=123):
    rng = np.random.default_rng(seed)
    vertices = np.asarray(sorted(graph.vertices()))
    sources = rng.choice(vertices, count)
    targets = rng.choice(vertices, count)
    departures = rng.uniform(0.0, 86_400.0, count)
    return sources, targets, departures


# ----------------------------------------------------------------------
# batch_cost_query vs looped scalar queries
# ----------------------------------------------------------------------
def test_batch_matches_basic_loop(basic_index):
    sources, targets, departures = _workload(basic_index.graph)
    result = basic_index.index._batch_query(sources, targets, departures)
    expected = np.array(
        [
            basic_cost_query(basic_index.index.tree, int(s), int(t), float(d)).cost
            for s, t, d in zip(sources, targets, departures)
        ]
    )
    assert result.strategy == "basic"
    assert np.array_equal(result.costs, expected)
    assert np.array_equal(result.arrivals, departures + expected)


def test_batch_matches_full_shortcut_loop(full_index):
    sources, targets, departures = _workload(full_index.graph, seed=5)
    result = full_index.index._batch_query(sources, targets, departures)
    expected = np.array(
        [
            shortcut_cost_query(
                full_index.index.tree, full_index.index.shortcuts, int(s), int(t), float(d)
            ).cost
            for s, t, d in zip(sources, targets, departures)
        ]
    )
    assert result.strategy == "shortcuts"
    assert np.array_equal(result.costs, expected)


@pytest.mark.parametrize("fixture", ["approx_index", "dp_index"])
def test_batch_matches_partial_shortcut_loop(fixture, request):
    index = request.getfixturevalue(fixture)
    sources, targets, departures = _workload(index.graph, seed=17)
    result = index.batch_query(sources, targets, departures)
    expected = np.array(
        [
            index.query(int(s), int(t), float(d)).cost
            for s, t, d in zip(sources, targets, departures)
        ]
    )
    assert np.array_equal(result.costs, expected)


def test_batch_repeated_calls_use_cache(approx_index):
    sources, targets, departures = _workload(approx_index.graph, count=20, seed=3)
    first = approx_index.batch_query(sources, targets, departures)
    again = approx_index.batch_query(sources, targets, departures)
    assert np.array_equal(first.costs, again.costs)
    assert approx_index.index._batch_query_cache  # per-pair memo populated


def test_batch_same_vertex_queries_are_zero(basic_index):
    vertices = np.asarray(sorted(basic_index.graph.vertices()))[:5]
    result = basic_index.batch_query(vertices, vertices, np.zeros(vertices.size))
    assert np.array_equal(result.costs, np.zeros(vertices.size))


def test_batch_rejects_misaligned_arrays(basic_index):
    with pytest.raises(Exception):
        basic_index.batch_query([0, 1], [2], [0.0, 1.0])


def test_batch_rejects_unknown_vertices(basic_index):
    with pytest.raises(VertexNotFoundError):
        basic_index.batch_query([0], [10_000], [0.0])


@pytest.mark.parametrize("name", ["td-basic", "td-appro"])
def test_batch_raises_on_disconnected_queries(name):
    graph = TDGraph()
    graph.add_bidirectional_edge(0, 1, PiecewiseLinearFunction.constant(10.0))
    graph.add_bidirectional_edge(1, 4, PiecewiseLinearFunction.constant(10.0))
    graph.add_bidirectional_edge(2, 3, PiecewiseLinearFunction.constant(10.0))
    engine = create_engine(f"{name}?validate=false", graph)
    with pytest.raises(DisconnectedQueryError):
        engine.batch_query([0], [3], [0.0])
    # One disconnected row fails the whole mixed batch.
    with pytest.raises(DisconnectedQueryError):
        engine.batch_query([0, 1, 0, 2], [4, 0, 2, 3], [0.0, 5.0, 9.0, 1.0])


@st.composite
def _batches(draw):
    """Aligned (source index, target index, departure) rows with repeats.

    Rows draw from small pools of pairs and departures, so batches carry
    repeated pairs and duplicate departures; a pool pair with no target is a
    same-vertex row.
    """
    vertex = st.integers(min_value=0, max_value=24)
    size = draw(st.integers(min_value=1, max_value=48))
    pairs = draw(
        st.lists(st.tuples(vertex, st.none() | vertex), min_size=1, max_size=size)
    )
    departures = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=86_400.0), min_size=1, max_size=size
        )
    )
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.sampled_from(departures)),
            min_size=size,
            max_size=size,
        )
    )
    sources = [s for (s, _), _ in rows]
    targets = [s if t is None else t for (s, t), _ in rows]
    return sources, targets, [d for _, d in rows]


@pytest.fixture(scope="module")
def property_engines(small_grid):
    return {
        name: create_engine(f"{name}?max_points=16", small_grid)
        for name in ("td-basic", "td-appro", "td-h2h")
    }


@pytest.mark.parametrize("name", ["td-basic", "td-appro", "td-h2h"])
@settings(max_examples=25, deadline=None)
@given(batch=_batches())
def test_batch_equals_scalar_loop_property(property_engines, name, batch):
    engine = property_engines[name]
    vertices = sorted(engine.graph.vertices())
    sources = np.array([vertices[i] for i in batch[0]])
    targets = np.array([vertices[i] for i in batch[1]])
    departures = np.array(batch[2])
    expected = np.array(
        [
            engine.query(int(s), int(t), float(d)).cost
            for s, t, d in zip(sources, targets, departures)
        ]
    )
    result = engine.batch_query(sources, targets, departures)
    assert np.array_equal(result.costs, expected)


def test_module_level_batch_query_matches_index(basic_index):
    sources, targets, departures = _workload(basic_index.graph, count=15, seed=9)
    via_index = basic_index.batch_query(sources, targets, departures)
    via_module = batch_cost_query(basic_index.index.tree, sources, targets, departures)
    assert np.array_equal(via_index.costs, via_module.costs)


# ----------------------------------------------------------------------
# Batched construction vs scalar reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("max_points", [None, 16])
def test_batched_catalog_equals_scalar_reference(small_tree, max_points):
    scalar = build_shortcut_catalog(
        small_tree, max_points=max_points, use_batch_kernels=False
    )
    batched = build_shortcut_catalog(
        small_tree, max_points=max_points, use_batch_kernels=True
    )
    assert set(scalar.pairs) == set(batched.pairs)
    for key, expected in scalar.pairs.items():
        actual = batched.pairs[key]
        assert expected.utility == actual.utility
        for reference, candidate in (
            (expected.forward, actual.forward),
            (expected.backward, actual.backward),
        ):
            assert (reference is None) == (candidate is None)
            if reference is None:
                continue
            assert np.array_equal(reference.times, candidate.times)
            assert np.array_equal(reference.costs, candidate.costs)
            assert np.array_equal(reference.via, candidate.via)


# ----------------------------------------------------------------------
# Cache invalidation under updates
# ----------------------------------------------------------------------
def test_batch_query_consistent_after_update(small_grid):
    # Private copy: the update below must not leak into the shared fixture.
    engine = create_engine(
        "td-appro?budget_fraction=0.4&max_points=16", small_grid.copy()
    )
    sources, targets, departures = _workload(engine.graph, count=30, seed=31)
    engine.batch_query(sources, targets, departures)  # warm every cache

    edges = list(engine.graph.edges())
    u, v, weight = edges[0]
    engine.update_edges({(u, v): weight.shift(250.0)})

    after_batch = engine.batch_query(sources, targets, departures)
    after_loop = np.array(
        [
            engine.query(int(s), int(t), float(d)).cost
            for s, t, d in zip(sources, targets, departures)
        ]
    )
    assert np.array_equal(after_batch.costs, after_loop)
