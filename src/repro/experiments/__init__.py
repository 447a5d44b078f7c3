"""Experiment harness: one runner per table/figure of the paper's evaluation."""

from repro.experiments.metrics import (
    METHODS,
    BuildMeasurement,
    QueryMeasurement,
    build_method,
    measure_build,
    measure_cost_queries,
    measure_cost_queries_batch,
    measure_profile_queries,
)
from repro.experiments.reporting import format_series, format_table, rows_to_csv, write_csv
from repro.experiments.runner import (
    clear_build_cache,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_simplification_ablation,
    run_table2,
    run_table3,
    run_table4,
    run_utility_ablation,
)

__all__ = [
    "METHODS",
    "BuildMeasurement",
    "QueryMeasurement",
    "build_method",
    "measure_build",
    "measure_cost_queries",
    "measure_cost_queries_batch",
    "measure_profile_queries",
    "format_table",
    "format_series",
    "rows_to_csv",
    "write_csv",
    "clear_build_cache",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_utility_ablation",
    "run_simplification_ablation",
]
