"""Tests for the TD-H2H baseline (full-shortcut tree decomposition)."""

from __future__ import annotations

import pytest

from repro import create_engine
from repro.api import TDTreeEngine
from repro.baselines import earliest_arrival


@pytest.fixture(scope="module")
def h2h(request):
    small_grid = request.getfixturevalue("small_grid")
    return create_engine("td-h2h?max_points=none", small_grid)


class TestConstruction:
    def test_is_a_full_strategy_index(self, h2h):
        assert h2h.index.strategy == "full"
        stats = h2h.statistics()
        assert stats.num_selected_pairs == stats.num_candidate_pairs

    def test_helper_function(self, small_grid):
        engine = create_engine("td-h2h?max_points=8", small_grid)
        assert isinstance(engine, TDTreeEngine)
        assert engine.name == "td-h2h" and engine.index.max_points == 8

    def test_largest_memory_footprint(self, small_grid, h2h):
        basic = create_engine("td-basic?max_points=none", small_grid)
        approx = create_engine(
            "td-appro?budget_fraction=0.3&max_points=none", small_grid
        )
        assert (
            h2h.memory_breakdown().total_bytes
            > approx.memory_breakdown().total_bytes
            > basic.memory_breakdown().total_bytes
        )


class TestQueries:
    def test_exact_answers(self, small_grid, h2h, random_od_pairs):
        for source, target, departure in random_od_pairs:
            reference = earliest_arrival(small_grid, source, target, departure)
            assert h2h.query(source, target, departure).cost == pytest.approx(
                reference.cost, rel=1e-6
            )

    def test_all_queries_take_the_fast_path(self, h2h, random_od_pairs):
        for source, target, departure in random_od_pairs[:10]:
            result = h2h.index._query(source, target, departure)
            assert result.strategy == "full_shortcuts"
