"""Fig. 11 — the effect of the shortcut budget ``N`` on FLA.

The paper sweeps N from 10M to 50M interpolation points and plots query cost
against memory cost.  At reduced scale the budget is expressed as a fraction
of the total candidate-shortcut weight.  Benchmarked operation: travel-cost
queries under the smallest and the largest budget.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_fig11

from harness import FULL_SWEEP, NUM_PAIRS, built_index, register_report, workload_for

DATASET = "FLA" if FULL_SWEEP else "SF"
C = 3
FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5) if FULL_SWEEP else (0.1, 0.3, 0.5)


@pytest.mark.parametrize("fraction", (FRACTIONS[0], FRACTIONS[-1]))
def test_cost_query_under_budget(benchmark, fraction):
    """Benchmark: query latency of TD-appro under a small vs a large budget."""
    build = built_index("TD-appro", DATASET, C, budget_fraction=fraction)
    workload = list(workload_for(DATASET, C))
    state = {"i": 0}

    def run_one():
        query = workload[state["i"] % len(workload)]
        state["i"] += 1
        return build.index.query(query.source, query.target, query.departure)

    result = benchmark(run_one)
    benchmark.extra_info.update(
        {
            "dataset": DATASET,
            "budget_fraction": fraction,
            "budget_N": build.index.statistics().budget,
            "memory_mb": round(build.memory_mb, 3),
        }
    )
    assert result.cost >= 0


def test_report_fig11(benchmark):
    """Generate and register the Fig. 11 series (query cost and memory vs N)."""
    rows = benchmark.pedantic(
        lambda: run_fig11(
            dataset=DATASET,
            budget_fractions=FRACTIONS,
            num_pairs=NUM_PAIRS,
            num_intervals=4,
            profile_pairs=5,
        ),
        rounds=1,
        iterations=1,
    )
    register_report(
        "fig11_budget",
        rows,
        title=f"Fig. 11: query cost and memory vs budget N (TD-appro on {DATASET})",
    )
    # Memory must grow monotonically with the budget; the profile-query time of
    # the largest budget must not exceed the smallest budget's.
    memories = [row["memory_mb"] for row in rows]
    assert memories == sorted(memories)
    assert rows[-1]["profile_query_ms"] <= rows[0]["profile_query_ms"] * 1.2
