"""Fig. 8 — query efficiency vs the number of interpolation points ``c``.

Eight panels in the paper: travel-cost query time and cost-function query time
on CAL, SF, COL and FLA, sweeping c from 2 to 6.  The benchmarked operations
are the two query types per (dataset, method, c) combination; the registered
report prints the same series the figure plots.

The module also benchmarks the **batch query engine**
(``engine.batch_query``): the same scalar workload submitted as one
vectorized call instead of a per-query Python loop.  The batch workload uses
the paper's 10 departure timestamps per OD pair (the loop/batch comparison is
run on identical queries and asserts bit-identical costs).

By default a reduced sweep (CAL + SF, c in {2, 3, 5}) is run; set
``REPRO_BENCH_FULL=1`` for the paper's full grid.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.experiments import run_fig8

from harness import (
    BATCH_INTERVALS,
    C_VALUES,
    FIG8_DATASETS,
    NUM_PAIRS,
    PROFILE_PAIRS,
    built_index,
    register_report,
    workload_for,
)


def _methods_for(dataset: str) -> tuple[str, ...]:
    # Panels (a)-(b) of the paper compare the baselines on CAL; the other
    # panels compare TD-G-tree with the two shortcut-selected indexes.
    if dataset == "CAL":
        return ("TD-G-tree", "TD-basic", "TD-H2H")
    return ("TD-G-tree", "TD-appro", "TD-dp")


CONFIGS = [
    (dataset, method, c)
    for dataset in FIG8_DATASETS
    for c in C_VALUES
    for method in _methods_for(dataset)
]


@pytest.mark.parametrize("dataset,method,c", CONFIGS)
def test_cost_query_vs_c(benchmark, dataset, method, c):
    """Benchmark: travel-cost query latency for one (dataset, method, c) cell."""
    build = built_index(method, dataset, c)
    workload = list(workload_for(dataset, c))
    state = {"i": 0}

    def run_one():
        query = workload[state["i"] % len(workload)]
        state["i"] += 1
        return build.index.query(query.source, query.target, query.departure)

    result = benchmark(run_one)
    benchmark.extra_info.update({"dataset": dataset, "method": method, "c": c})
    assert result.cost >= 0


def _workload_arrays(dataset: str, c: int, *, num_intervals: int):
    workload = workload_for(dataset, c, num_intervals=num_intervals)
    queries = list(workload)
    return (
        np.array([q.source for q in queries], dtype=np.int64),
        np.array([q.target for q in queries], dtype=np.int64),
        np.array([q.departure for q in queries], dtype=np.float64),
    )


@pytest.mark.parametrize(
    "dataset,method,c",
    [cfg for cfg in CONFIGS if cfg[1] != "TD-G-tree" and cfg[2] == C_VALUES[0]],
)
def test_batch_cost_query_throughput(benchmark, dataset, method, c):
    """Benchmark: the whole scalar workload served by one batch_query call."""
    build = built_index(method, dataset, c)
    sources, targets, departures = _workload_arrays(
        dataset, c, num_intervals=BATCH_INTERVALS
    )
    build.index.batch_query(sources, targets, departures)  # warm label caches

    result = benchmark(lambda: build.index.batch_query(sources, targets, departures))
    benchmark.extra_info.update(
        {
            "dataset": dataset,
            "method": method,
            "c": c,
            "num_queries": int(sources.size),
        }
    )
    assert np.all(result.costs >= 0)


def test_report_batch_vs_loop_cal():
    """Batch engine acceptance: >= 3x throughput over the per-call loop on CAL.

    Runs the paper-style workload (NUM_PAIRS OD pairs x 10 departure
    timestamps) through both entry points for every CAL index method, asserts
    the costs are bit-identical, registers the speedup table, and enforces the
    3x target for the batch engine.
    """
    c = C_VALUES[0]
    sources, targets, departures = _workload_arrays(
        "CAL", c, num_intervals=BATCH_INTERVALS
    )
    rows = []
    for method in _methods_for("CAL"):
        build = built_index(method, "CAL", c)
        index = build.index
        if not index.capabilities().batch:
            continue
        index.batch_query(sources, targets, departures)  # warm label caches
        loop_best = batch_best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            loop_costs = [
                index.query(int(s), int(t), float(d)).cost
                for s, t, d in zip(sources, targets, departures)
            ]
            loop_best = min(loop_best, time.perf_counter() - started)
            started = time.perf_counter()
            batch_result = index.batch_query(sources, targets, departures)
            batch_best = min(batch_best, time.perf_counter() - started)
        assert np.array_equal(np.asarray(loop_costs), batch_result.costs)
        rows.append(
            {
                "dataset": "CAL",
                "method": method,
                "c": c,
                "num_queries": int(sources.size),
                "loop_ms": loop_best * 1000.0,
                "batch_ms": batch_best * 1000.0,
                "speedup": loop_best / batch_best,
            }
        )
    register_report(
        "fig8_batch_speedup",
        rows,
        title=(
            "Batch query engine vs per-call loop on CAL "
            f"({NUM_PAIRS} pairs x {BATCH_INTERVALS} departures, best of 3)"
        ),
    )
    assert rows, "no CAL method exposes batch_query"
    for row in rows:
        assert row["speedup"] >= 3.0, (
            f"{row['method']}: batch speedup {row['speedup']:.2f}x below the 3x target"
        )


@pytest.mark.parametrize(
    "dataset,method,c",
    [cfg for cfg in CONFIGS if cfg[2] == C_VALUES[len(C_VALUES) // 2]],
)
def test_cost_function_query_mid_c(benchmark, dataset, method, c):
    """Benchmark: cost-function query latency at the middle c value.

    Profile queries are two to three orders of magnitude more expensive than
    scalar ones, so only one c value per (dataset, method) is micro-benchmarked
    here; the full c sweep for both query types is produced by the report.
    """
    build = built_index(method, dataset, c)
    pairs = workload_for(dataset, c).pairs()[:PROFILE_PAIRS]
    state = {"i": 0}

    def run_one():
        source, target = pairs[state["i"] % len(pairs)]
        state["i"] += 1
        return build.index.profile(source, target)

    benchmark.pedantic(run_one, rounds=max(2, PROFILE_PAIRS // 2), iterations=1)
    benchmark.extra_info.update({"dataset": dataset, "method": method, "c": c})


def test_report_fig8(benchmark):
    """Generate and register the Fig. 8 series (both query types, full c sweep)."""
    rows = benchmark.pedantic(
        lambda: run_fig8(
            datasets=FIG8_DATASETS,
            c_values=C_VALUES,
            num_pairs=NUM_PAIRS,
            num_intervals=4,
            profile_pairs=PROFILE_PAIRS,
        ),
        rounds=1,
        iterations=1,
    )
    register_report(
        "fig8_query_efficiency",
        rows,
        title="Fig. 8: query time (ms) vs c — travel-cost and cost-function queries",
    )
    # Qualitative shape: the shortcut-based indexes beat TD-basic (CAL) and are
    # competitive with or faster than TD-G-tree on the cost-function queries.
    cal_rows = [r for r in rows if r["dataset"] == "CAL" and r["c"] == C_VALUES[0]]
    if cal_rows:
        by_method = {r["method"]: r for r in cal_rows}
        assert (
            by_method["TD-H2H"]["profile_query_ms"]
            < by_method["TD-basic"]["profile_query_ms"]
        )
