"""Fig. 10 — incremental index update cost vs number of changed edges.

The paper perturbs 10 … 100 000 edges of SF and reports the time to bring the
TD-appro index back in sync.  The scaled reproduction perturbs a proportional
number of edges of the scaled SF network.  Benchmarked operation: one
``update_edges`` call per update size (each on a freshly built index, because
updates mutate the index in place).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import create_engine
from repro.datasets import get_spec, load_dataset
from repro.experiments import run_fig10
from repro.graph.weights import WeightGenerator

from harness import FULL_SWEEP, register_report

DATASET = "SF"
C = 3
UPDATE_COUNTS = (2, 10, 50, 200, 500) if FULL_SWEEP else (2, 20, 100)


def _fresh_engine_and_changes(count: int, seed: int):
    graph = load_dataset(DATASET, num_points=C)
    engine = create_engine(
        "td-appro?max_points=16",
        graph,
        budget_fraction=get_spec(DATASET).default_budget_fraction,
    )
    rng = np.random.default_rng(seed)
    perturber = WeightGenerator(C, seed=seed)
    edges = list(graph.edges())
    chosen = rng.choice(len(edges), size=min(count, len(edges)), replace=False)
    changes = {}
    for edge_index in chosen:
        u, v, weight = edges[int(edge_index)]
        changes[(u, v)] = perturber.perturbed(weight)
    return engine, changes


@pytest.mark.parametrize("count", UPDATE_COUNTS)
def test_index_update(benchmark, count):
    """Benchmark: repair the TD-appro index after ``count`` edge-weight changes."""
    engine, changes = _fresh_engine_and_changes(count, seed=97 + count)

    report = benchmark.pedantic(
        lambda: engine.update_edges(changes), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {
            "num_updated_edges": len(changes),
            "dirty_vertices": report.num_dirty_vertices,
            "refreshed_shortcut_nodes": report.num_refreshed_shortcut_nodes,
        }
    )
    assert report.num_changed_edges == len(changes)


def test_report_fig10(benchmark):
    """Generate and register the Fig. 10 series (update cost vs #edges)."""
    rows = benchmark.pedantic(
        lambda: run_fig10(dataset=DATASET, update_counts=UPDATE_COUNTS, num_points=C),
        rounds=1,
        iterations=1,
    )
    register_report(
        "fig10_update",
        rows,
        title="Fig. 10: incremental update cost (s) vs number of changed edges (SF)",
    )
    # The update must stay within 1.5x a full rebuild (repair is only worth
    # keeping while it undercuts one) and must touch more labels as more
    # edges change.
    assert rows[-1]["dirty_vertices"] >= rows[0]["dirty_vertices"]
    for row in rows:
        assert row["update_seconds"] <= 1.5 * row["full_rebuild_seconds"]
