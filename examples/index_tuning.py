#!/usr/bin/env python
"""Index tuning: explore the memory/latency trade-off of the budget ``N``.

The paper's Fig. 11 shows that a larger shortcut budget buys faster queries at
the cost of more memory.  This example sweeps the budget on one dataset,
compares the exact DP selection (Algorithm 4) with the 0.5-approximation
(Algorithm 5), and prints a small sizing table an operator could use to pick a
configuration for their latency target.

Run it with::

    python examples/index_tuning.py
"""

from __future__ import annotations

import time

from repro import create_engine
from repro.datasets import generate_queries, load_dataset
from repro.experiments import format_table, measure_cost_queries


def main() -> None:
    graph = load_dataset("SF", num_points=3)
    workload = generate_queries(graph, num_pairs=30, num_intervals=4, seed=5, dataset="SF")

    rows = []
    for spec in ("td-appro", "td-dp"):
        for fraction in (0.1, 0.25, 0.5):
            started = time.perf_counter()
            engine = create_engine(
                spec, graph, budget_fraction=fraction, max_points=16
            )
            build_seconds = time.perf_counter() - started
            latency = measure_cost_queries(engine, workload)
            selection = engine.index.selection
            rows.append(
                {
                    "strategy": "TD-dp" if spec == "td-dp" else "TD-appro",
                    "budget_fraction": fraction,
                    "budget_N_points": selection.budget,
                    "selected_pairs": len(selection.selected),
                    "achieved_utility": round(selection.total_utility, 1),
                    "build_s": build_seconds,
                    "memory_mb": engine.memory_breakdown().total_megabytes,
                    "query_ms": latency.mean_ms,
                }
            )

    print(format_table(rows, title="Shortcut budget sizing on the scaled SF network"))
    approx = [r for r in rows if r["strategy"] == "TD-appro"]
    exact = [r for r in rows if r["strategy"] == "TD-dp"]
    for a, e in zip(approx, exact):
        if e["achieved_utility"] > 0:
            ratio = a["achieved_utility"] / e["achieved_utility"]
            print(
                f"budget {a['budget_fraction']}: greedy achieves {ratio:.2f}x of the DP utility "
                f"(theory guarantees at least 0.5x)"
            )


if __name__ == "__main__":
    main()
