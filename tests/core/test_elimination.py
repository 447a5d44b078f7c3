"""Scalar vs round-batched elimination: bit-identical trees, pool mechanics.

The round-batched engine (:mod:`repro.core.elimination`) promises *exact*
equivalence with the scalar reference path — same elimination orders, same
bags, same parents, and bitwise-equal ``Ws``/``Wd`` functions — on any input.
These tests pin that contract down on structured grids, random planar
networks, a scaled-dataset sample and Hypothesis-generated graphs, and cover
the :class:`~repro.core.elimination.FunctionPool` plumbing the engine runs on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import create_engine
from repro.core import decompose, eliminate_batched, eliminate_scalar
from repro.core.elimination import FunctionPool
from repro.datasets import load_dataset
from repro.exceptions import InvalidFunctionError
from repro.functions import PLFBatch, PiecewiseLinearFunction
from repro.graph import (
    TDGraph,
    WeightGenerator,
    grid_network,
    paper_example_graph,
    random_geometric_network,
)


def assert_trees_identical(expected, actual) -> None:
    """Full structural + bitwise label equality of two decompositions."""
    assert set(expected.nodes) == set(actual.nodes)
    assert expected.roots == actual.roots
    for vertex in expected.nodes:
        want = expected.nodes[vertex]
        got = actual.nodes[vertex]
        assert want.bag == got.bag, vertex
        assert want.order == got.order, vertex
        assert want.parent == got.parent, vertex
        assert want.children == got.children, vertex
        for want_store, got_store in ((want.ws, got.ws), (want.wd, got.wd)):
            assert list(want_store) == list(got_store), vertex
            for upper in want_store:
                a, b = want_store[upper], got_store[upper]
                assert np.array_equal(a.times, b.times), (vertex, upper)
                assert np.array_equal(a.costs, b.costs), (vertex, upper)
                assert np.array_equal(a.via, b.via), (vertex, upper)


def both_engines(graph, **kwargs):
    return (
        decompose(graph, use_batch_kernels=False, **kwargs),
        decompose(graph, use_batch_kernels=True, **kwargs),
    )


# ----------------------------------------------------------------------
# Equivalence on structured and random networks
# ----------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("max_points", [None, 16, 32])
    def test_grid_network(self, max_points):
        graph = grid_network(5, 5, num_points=3, seed=3)
        assert_trees_identical(*both_engines(graph, max_points=max_points))

    @pytest.mark.parametrize("max_points", [None, 32])
    def test_random_planar_network(self, max_points):
        graph = random_geometric_network(70, num_points=3, seed=29)
        assert_trees_identical(*both_engines(graph, max_points=max_points))

    def test_cal_sample(self):
        graph = load_dataset("CAL", num_points=2)
        assert_trees_identical(*both_engines(graph))

    def test_paper_example_exact(self):
        assert_trees_identical(
            *both_engines(paper_example_graph(), max_points=None)
        )

    def test_tolerance_path(self):
        graph = grid_network(4, 4, num_points=4, seed=11)
        assert_trees_identical(
            *both_engines(graph, max_points=12, tolerance=1e-3)
        )

    def test_disconnected_graph(self):
        graph = TDGraph()
        for base in (0, 10):
            graph.add_bidirectional_edge(
                base, base + 1, PiecewiseLinearFunction.constant(5.0)
            )
            graph.add_bidirectional_edge(
                base + 1, base + 2, PiecewiseLinearFunction.constant(7.0)
            )
        scalar_tree, batched_tree = both_engines(graph)
        assert len(batched_tree.roots) == 2
        assert_trees_identical(scalar_tree, batched_tree)

    def test_single_edge_graph(self):
        graph = TDGraph()
        graph.add_bidirectional_edge(0, 1, PiecewiseLinearFunction.constant(5.0))
        assert_trees_identical(*both_engines(graph))

    def test_engines_report_stats(self):
        graph = grid_network(4, 4, num_points=3, seed=7)
        _, scalar_stats = eliminate_scalar(graph)
        entries, batched_stats = eliminate_batched(graph)
        assert scalar_stats.engine == "scalar"
        assert batched_stats.engine == "batched"
        assert batched_stats.num_vertices == graph.num_vertices == len(entries)
        assert batched_stats.num_fill_edges == scalar_stats.num_fill_edges > 0
        assert batched_stats.num_rounds >= 1
        assert batched_stats.largest_round >= 1
        tree = decompose(graph)
        assert tree.elimination_stats is not None
        assert tree.elimination_stats.engine == "batched"


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


class TestEquivalenceProperties:
    @given(
        num_vertices=st.integers(min_value=2, max_value=16),
        extra_edges=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        max_points=st.sampled_from([None, 8, 32]),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_graphs_bit_identical(
        self, num_vertices, extra_edges, seed, max_points
    ):
        graph = random_connected_graph(num_vertices, extra_edges, seed)
        assert_trees_identical(*both_engines(graph, max_points=max_points))


# ----------------------------------------------------------------------
# Index-level equivalence and persistence through the batched path
# ----------------------------------------------------------------------
class TestIndexLevel:
    def test_build_strategies_identical_costs(self):
        graph = grid_network(5, 5, num_points=3, seed=3)
        rng = np.random.default_rng(7)
        vertices = np.asarray(sorted(graph.vertices()))
        sources = rng.choice(vertices, size=20)
        targets = rng.choice(vertices, size=20)
        departures = rng.uniform(0.0, 86_400.0, size=20)
        for spec in ("td-basic", "td-dp", "td-appro", "td-full"):
            scalar = create_engine(f"{spec}?use_batch_kernels=false", graph.copy())
            batched = create_engine(f"{spec}?use_batch_kernels=true", graph.copy())
            assert_trees_identical(scalar.index.tree, batched.index.tree)
            assert np.array_equal(
                scalar.batch_query(sources, targets, departures).costs,
                batched.batch_query(sources, targets, departures).costs,
            )

    def test_snapshot_round_trip_of_batched_build(self, tmp_path):
        graph = grid_network(5, 5, num_points=3, seed=3)
        engine = create_engine("td-appro?use_batch_kernels=true", graph)
        directory = engine.index.save(tmp_path / "batched.index")
        loaded = create_engine(f"snapshot:{directory}")
        assert_trees_identical(engine.index.tree, loaded.index.tree)
        rng = np.random.default_rng(11)
        vertices = np.asarray(sorted(graph.vertices()))
        sources = rng.choice(vertices, size=15)
        targets = rng.choice(vertices, size=15)
        departures = rng.uniform(0.0, 86_400.0, size=15)
        assert np.array_equal(
            engine.batch_query(sources, targets, departures).costs,
            loaded.batch_query(sources, targets, departures).costs,
        )

    def test_build_seconds_include_engine_sub_phases(self):
        graph = grid_network(4, 4, num_points=3, seed=7)
        stats = create_engine("td-basic", graph).statistics()
        assert "decomposition" in stats.phase_seconds
        assert "decomposition/assembly" in stats.phase_seconds
        assert "decomposition/kernels" in stats.phase_seconds
        # Sub-phases detail the decomposition phase; the total only counts
        # top-level phases, so it stays below the naive sum of all values.
        assert stats.total_build_seconds <= sum(stats.phase_seconds.values())
        assert stats.total_build_seconds >= stats.phase_seconds["decomposition"]

    def test_updates_after_batched_build(self):
        graph = grid_network(4, 4, num_points=3, seed=7)
        engine = create_engine("td-full?use_batch_kernels=true", graph)
        source, target, weight = next(iter(graph.edges()))
        report = engine.update_edges(
            {(source, target): PiecewiseLinearFunction.constant(weight.max_cost * 2)}
        )
        assert report.num_changed_edges == 1
        # The structural contributor table is cached on the tree across calls.
        tree = engine.index.tree
        assert tree.pair_contributors() is tree.pair_contributors()


# ----------------------------------------------------------------------
# FunctionPool
# ----------------------------------------------------------------------
class TestFunctionPool:
    def _functions(self, count, offset=0.0):
        return [
            PiecewiseLinearFunction(
                np.array([0.0, 10.0 + i]), np.array([offset + i, offset + i + 5.0])
            )
            for i in range(count)
        ]

    def test_append_assigns_consecutive_rows(self):
        pool = FunctionPool()
        rows = pool.append(PLFBatch.from_functions(self._functions(3)))
        assert rows.tolist() == [0, 1, 2]
        more = pool.append(PLFBatch.from_functions(self._functions(2, offset=50.0)))
        assert more.tolist() == [3, 4]
        assert pool.count == 5

    def test_take_across_chunks_preserves_order(self):
        pool = FunctionPool()
        functions = []
        for chunk in range(5):
            batch = self._functions(3, offset=100.0 * chunk)
            functions.extend(batch)
            pool.append(PLFBatch.from_functions(batch))
        rows = np.array([14, 0, 7, 7, 3])
        taken = pool.take(rows)
        for i, row in enumerate(rows):
            want = functions[int(row)]
            got = taken.function(i)
            assert np.array_equal(want.times, got.times)
            assert np.array_equal(want.costs, got.costs)

    def test_compaction_keeps_rows_stable(self):
        from repro.core import elimination

        pool = FunctionPool()
        functions = []
        for chunk in range(elimination._MAX_CHUNKS + 3):
            batch = self._functions(2, offset=10.0 * chunk)
            functions.extend(batch)
            pool.append(PLFBatch.from_functions(batch))
        assert len(pool._chunks) < elimination._MAX_CHUNKS
        for row, want in enumerate(functions):
            got = pool.function(row)
            assert np.array_equal(want.times, got.times)
            assert np.array_equal(want.costs, got.costs)

    def test_take_empty_rows(self):
        pool = FunctionPool()
        pool.append(PLFBatch.from_functions(self._functions(2)))
        assert pool.take(np.empty(0, dtype=np.int64)).count == 0

    def test_out_of_range_rows_rejected(self):
        pool = FunctionPool()
        pool.append(PLFBatch.from_functions(self._functions(2)))
        with pytest.raises(InvalidFunctionError):
            pool.take(np.array([2]))
        with pytest.raises(InvalidFunctionError):
            pool.take(np.array([-1]))
        with pytest.raises(InvalidFunctionError):
            pool.function(5)
