"""Tests for the experiment measurement helpers."""

from __future__ import annotations

import pytest

from repro.datasets import generate_queries
from repro.exceptions import DatasetError
from repro.experiments import (
    METHODS,
    build_method,
    measure_build,
    measure_cost_queries,
    measure_profile_queries,
)


class TestMethodRegistry:
    def test_all_paper_methods_registered(self):
        assert set(METHODS) == {
            "TD-G-tree",
            "TD-H2H",
            "TD-basic",
            "TD-dp",
            "TD-appro",
            "TD-Dijkstra",
            "TD-A*",
        }

    def test_unknown_method_rejected(self, small_grid):
        with pytest.raises(DatasetError):
            build_method("TD-unknown", small_grid)

    @pytest.mark.parametrize("name", ["TD-basic", "TD-Dijkstra", "TD-A*"])
    def test_cheap_methods_build_and_answer(self, small_grid, name):
        engine = build_method(name, small_grid)
        assert engine.query(0, 24, 3_600.0).cost > 0

    def test_budgeted_method_accepts_fraction(self, small_grid):
        engine = build_method("TD-appro", small_grid, budget_fraction=0.2)
        assert engine.statistics().num_selected_pairs > 0

    def test_gtree_ignores_budget_kwargs(self, small_grid):
        engine = build_method("TD-G-tree", small_grid, budget_fraction=0.2, leaf_size=8)
        assert engine.query(0, 24, 0.0).cost > 0


class TestMeasurements:
    def test_measure_build_records_time_and_memory(self, small_grid):
        measurement = measure_build("TD-basic", small_grid, dataset="TEST", num_points=3)
        assert measurement.build_seconds > 0
        assert measurement.memory_mb > 0
        assert measurement.method == "TD-basic"
        assert measurement.index is not None

    def test_measure_cost_queries(self, small_grid, basic_index):
        workload = generate_queries(small_grid, num_pairs=5, num_intervals=2, seed=0)
        measurement = measure_cost_queries(
            basic_index, workload, method="TD-basic", dataset="TEST"
        )
        assert measurement.num_queries == 10
        assert measurement.mean_ms > 0
        assert measurement.kind == "cost"

    def test_measure_profile_queries(self, small_grid, basic_index):
        workload = generate_queries(small_grid, num_pairs=4, num_intervals=2, seed=0)
        measurement = measure_profile_queries(basic_index, workload.pairs()[:3])
        assert measurement.num_queries == 3
        assert measurement.kind == "profile"
        assert measurement.total_seconds >= 0

    def test_empty_batch_does_not_crash(self, basic_index):
        measurement = measure_cost_queries(basic_index, [])
        assert measurement.num_queries == 0
        assert measurement.mean_ms < 0.01  # only timer overhead, no division error
