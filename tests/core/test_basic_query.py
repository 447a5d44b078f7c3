"""Tests for the basic query algorithm (Algorithm 3) — scalar and profile."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import earliest_arrival, profile_search
from repro.exceptions import VertexNotFoundError
from repro.core import basic_cost_query, basic_profile_query
from repro.core.query import expand_hop


class TestScalarQueriesAgainstDijkstra:
    def test_matches_dijkstra_on_random_workload(
        self, small_grid, small_tree, random_od_pairs
    ):
        for source, target, departure in random_od_pairs:
            reference = earliest_arrival(small_grid, source, target, departure)
            result = basic_cost_query(small_tree, source, target, departure)
            assert result.cost == pytest.approx(reference.cost, rel=1e-6, abs=1e-6)

    def test_source_equals_target(self, small_tree):
        result = basic_cost_query(small_tree, 3, 3, 1000.0)
        assert result.cost == 0.0
        assert result.path() == [3]

    def test_arrival_is_departure_plus_cost(self, small_tree):
        result = basic_cost_query(small_tree, 0, 24, 3600.0)
        assert result.arrival == pytest.approx(3600.0 + result.cost)

    def test_unknown_vertex_raises(self, small_tree):
        with pytest.raises(VertexNotFoundError):
            basic_cost_query(small_tree, 0, 999, 0.0)

    def test_meeting_vertex_lies_in_the_cut(self, small_tree):
        result = basic_cost_query(small_tree, 0, 24, 28_800.0)
        cut = small_tree.vertex_cut(0, 24)
        assert result.meeting_vertex in cut

    def test_strategy_label(self, small_tree):
        assert basic_cost_query(small_tree, 0, 24, 0.0).strategy == "basic"

    def test_cost_depends_on_departure_time(self, small_grid, small_tree):
        """Rush hour (08:00) must not be cheaper than the same trip at 03:00
        by more than FIFO slack — and generally the two differ."""
        costs = {
            t: basic_cost_query(small_tree, 0, 24, t).cost
            for t in (3 * 3600.0, 8 * 3600.0)
        }
        reference = {
            t: earliest_arrival(small_grid, 0, 24, t).cost for t in costs
        }
        for t, cost in costs.items():
            assert cost == pytest.approx(reference[t], rel=1e-6)


class TestPathReconstruction:
    def test_path_endpoints(self, small_tree):
        result = basic_cost_query(small_tree, 0, 24, 7_200.0, record_hops=True)
        path = result.path()
        assert path[0] == 0
        assert path[-1] == 24

    def test_path_edges_exist_in_graph(self, small_grid, small_tree, random_od_pairs):
        for source, target, departure in random_od_pairs[:10]:
            result = basic_cost_query(
                small_tree, source, target, departure, record_hops=True
            )
            path = result.path()
            for a, b in zip(path, path[1:]):
                assert small_grid.has_edge(a, b), (a, b)

    def test_path_cost_matches_reported_cost(self, small_grid, small_tree, random_od_pairs):
        """Walking the expanded path with original edge weights reproduces the cost."""
        for source, target, departure in random_od_pairs[:10]:
            result = basic_cost_query(
                small_tree, source, target, departure, record_hops=True
            )
            path = result.path()
            clock = departure
            for a, b in zip(path, path[1:]):
                clock += float(small_grid.weight(a, b).evaluate(clock))
            assert clock - departure == pytest.approx(result.cost, rel=1e-6)

    def test_expand_hop_without_tree_returns_coarse_edge(self, small_tree):
        node = small_tree.nodes[0]
        upper, func = next(iter(node.ws.items()))
        edges, arrival = expand_hop(None, 0, upper, func, 0.0)
        assert edges == [(0, upper)]
        assert arrival == pytest.approx(float(func.evaluate(0.0)))


class TestProfileQueriesAgainstProfileSearch:
    @pytest.mark.parametrize("target", [6, 12, 24])
    def test_profile_matches_label_correcting_search(self, small_grid, small_tree, target):
        reference = profile_search(small_grid, 0)[target]
        result = basic_profile_query(small_tree, 0, target)
        assert reference.max_difference(result.function, samples=400) < 1e-6

    def test_profile_source_equals_target(self, small_tree):
        result = basic_profile_query(small_tree, 5, 5)
        assert result.function.is_constant()
        assert result.function.evaluate(0.0) == 0.0

    def test_profile_cost_at_matches_scalar_query(self, small_tree):
        profile = basic_profile_query(small_tree, 0, 24)
        for departure in (0.0, 21_600.0, 43_200.0, 61_200.0):
            scalar = basic_cost_query(small_tree, 0, 24, departure)
            assert profile.cost_at(departure) == pytest.approx(scalar.cost, rel=1e-6)

    def test_profile_respects_max_points(self, small_tree):
        result = basic_profile_query(small_tree, 0, 24, max_points=8)
        assert result.function.size <= 8

    def test_best_departure_is_minimum(self, small_tree):
        profile = basic_profile_query(small_tree, 0, 24)
        departure, cost = profile.best_departure(0.0, 86_400.0)
        grid = np.linspace(0.0, 86_400.0, 300)
        assert cost <= float(np.min(profile.function.evaluate(grid))) + 1e-9
        assert 0.0 <= departure <= 86_400.0

    def test_profile_is_fifo_and_nonnegative(self, small_tree):
        func = basic_profile_query(small_tree, 0, 24).function
        assert func.is_nonnegative()
        assert func.is_fifo(tolerance=1e-5)
