"""Tests for :class:`TDTreeIndex` behind the ``td-*`` engines (strategies, queries, stats)."""

from __future__ import annotations

import pytest

from repro import TDTreeIndex, create_engine
from repro.api import QueryOptions
from repro.baselines import earliest_arrival, profile_search
from repro.exceptions import (
    DisconnectedQueryError,
    GraphError,
    IndexBuildError,
    SelectionError,
)
from repro.functions import PiecewiseLinearFunction
from repro.graph import TDGraph


class TestBuildStrategies:
    def test_unknown_strategy_rejected(self, small_grid):
        with pytest.raises(IndexBuildError):
            TDTreeIndex._build(small_grid, strategy="magic")

    def test_budget_and_fraction_are_mutually_exclusive(self, small_grid):
        with pytest.raises(SelectionError):
            create_engine("td-appro?budget=10&budget_fraction=0.5", small_grid)

    def test_basic_has_no_shortcuts(self, basic_index):
        assert basic_index.index.strategy == "basic"
        assert len(basic_index.index.shortcuts) == 0

    def test_full_selects_every_candidate(self, full_index):
        stats = full_index.statistics()
        assert stats.num_selected_pairs == stats.num_candidate_pairs > 0

    def test_budgeted_strategies_respect_the_budget(self, approx_index, dp_index):
        for index in (approx_index, dp_index):
            stats = index.statistics()
            assert stats.budget is not None
            assert stats.selected_weight <= stats.budget
            assert 0 < stats.num_selected_pairs < stats.num_candidate_pairs

    def test_validation_rejects_disconnected_graphs(self):
        graph = TDGraph()
        weight = PiecewiseLinearFunction.constant(1.0)
        graph.add_bidirectional_edge(0, 1, weight)
        graph.add_bidirectional_edge(5, 6, weight)
        with pytest.raises(GraphError):
            create_engine("td-basic", graph)

    def test_validation_can_be_skipped(self):
        graph = TDGraph()
        weight = PiecewiseLinearFunction.constant(1.0)
        graph.add_bidirectional_edge(0, 1, weight)
        graph.add_bidirectional_edge(5, 6, weight)
        engine = create_engine("td-basic?validate=false", graph)
        with pytest.raises(DisconnectedQueryError):
            engine.query(0, 6, 0.0)

    def test_build_seconds_recorded_per_phase(self, approx_index):
        stats = approx_index.statistics()
        assert "decomposition" in stats.phase_seconds
        assert "shortcut_candidates" in stats.phase_seconds
        assert "selection" in stats.phase_seconds
        assert stats.total_build_seconds > 0.0

    def test_repr(self, approx_index):
        assert "approx" in repr(approx_index.index)


class TestQueryCorrectness:
    @pytest.mark.parametrize(
        "index_fixture", ["basic_index", "full_index", "approx_index", "dp_index"]
    )
    def test_cost_queries_match_dijkstra(
        self, request, index_fixture, small_grid, random_od_pairs
    ):
        engine = request.getfixturevalue(index_fixture)
        exact = engine.index.max_points is None
        for source, target, departure in random_od_pairs:
            reference = earliest_arrival(small_grid, source, target, departure)
            result = engine.query(source, target, departure)
            if exact:
                assert result.cost == pytest.approx(reference.cost, rel=1e-6)
            else:
                # Capped functions: small bounded deviation is allowed, and the
                # index must never report a cost below the true optimum by more
                # than numerical noise.
                assert result.cost >= reference.cost - 1e-6
                assert result.cost <= reference.cost * 1.02 + 1e-6

    @pytest.mark.parametrize("index_fixture", ["basic_index", "full_index"])
    def test_profile_queries_match_profile_search(
        self, request, index_fixture, small_grid
    ):
        engine = request.getfixturevalue(index_fixture)
        reference = profile_search(small_grid, 2)[22]
        profile = engine.profile(2, 22)
        assert reference.max_difference(profile.function, samples=300) < 1e-6

    def test_approx_profile_close_to_exact(self, approx_index, small_grid):
        reference = profile_search(small_grid, 2)[22]
        profile = approx_index.profile(2, 22)
        grid_error = max(
            abs(profile.function.evaluate(t) - reference.evaluate(t)) / reference.evaluate(t)
            for t in (0.0, 21_600.0, 43_200.0, 64_800.0, 86_400.0)
        )
        assert grid_error < 0.05

    def test_need_path_returns_valid_path(self, approx_index, small_grid):
        result = approx_index.query(0, 24, 30_000.0, options=QueryOptions(want_path=True))
        path = result.path()
        assert path[0] == 0 and path[-1] == 24
        for a, b in zip(path, path[1:]):
            assert small_grid.has_edge(a, b)

    def test_query_same_vertex(self, approx_index):
        assert approx_index.query(7, 7, 0.0).cost == 0.0
        assert approx_index.profile(7, 7).function.evaluate(100.0) == 0.0


class TestIntrospection:
    def test_memory_breakdown_orders_strategies(self, basic_index, approx_index, full_index):
        """TD-basic < TD-appro < TD-H2H in index size (the paper's memory story)."""
        basic = basic_index.memory_breakdown().total_bytes
        approx = approx_index.memory_breakdown().total_bytes
        full = full_index.memory_breakdown().total_bytes
        assert basic < approx < full

    def test_memory_breakdown_shortcut_component(self, approx_index):
        breakdown = approx_index.memory_breakdown()
        assert breakdown.shortcut_points > 0
        assert breakdown.shortcut_functions == 2 * len(approx_index.index.shortcuts)

    def test_statistics_fields(self, approx_index, small_grid):
        stats = approx_index.statistics()
        assert stats.num_vertices == small_grid.num_vertices
        assert stats.num_edges == small_grid.num_edges
        assert stats.treewidth >= 1
        assert stats.treeheight >= 2
        assert stats.strategy == "approx"


class TestQuerySpeedOrdering:
    def test_shortcut_queries_use_shortcut_strategies(self, full_index):
        """With all shortcuts present, queries must take the O(w) fast path."""
        result = full_index.index._query(0, 24, 3_600.0)
        assert result.strategy == "full_shortcuts"

    def test_basic_index_reports_basic_strategy(self, basic_index):
        assert basic_index.index._query(0, 24, 3_600.0).strategy == "basic"
