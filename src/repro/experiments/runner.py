"""Experiment runners — one function per table/figure of the paper.

Every runner returns a list of plain dict rows (easy to assert on, print, or
dump to CSV) and accepts knobs that trade fidelity for wall-clock time:

* ``num_pairs`` / ``num_intervals`` — workload size (paper: 1 000 × 10),
* ``profile_pairs`` — how many pairs get the expensive cost-*function* query,
* ``c_values`` — the interpolation-point sweep (paper: 2..6),
* ``datasets`` — which catalog entries to run.

Built indexes are cached per ``(dataset, c, method)`` within the process so
that e.g. the Fig. 8 (query time) and Fig. 9 (construction cost) runners reuse
the same builds, exactly like a single experimental campaign would.

Method names are the paper's (``TD-appro``, ``TD-G-tree``, ...), resolved
through :data:`repro.experiments.metrics.METHODS` — which is derived from the
:mod:`repro.api` engine registry, so a newly registered engine with a
``paper_name`` shows up in these runners without touching this module.  Each
built method is a :class:`repro.api.Engine`; optional measurements (profile,
batch) are gated on its capability flags instead of ``hasattr`` probing.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.datasets.catalog import get_spec, load_dataset
from repro.datasets.queries import generate_pairs, generate_queries
from repro.experiments.metrics import (
    BuildMeasurement,
    measure_build,
    measure_cost_queries,
    measure_cost_queries_batch,
    measure_profile_queries,
)

__all__ = [
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

#: Cache of BuildMeasurement keyed by (dataset, c, method, budget_fraction).
_BUILD_CACHE: dict[tuple[str, int, str, float | None], BuildMeasurement] = {}


def clear_build_cache() -> None:
    """Drop all cached index builds (used between test sessions)."""
    _BUILD_CACHE.clear()


def _built(
    method: str,
    dataset: str,
    num_points: int,
    *,
    budget_fraction: float | None = None,
    **kwargs,
) -> BuildMeasurement:
    key = (dataset, num_points, method, budget_fraction)
    if key not in _BUILD_CACHE:
        graph = load_dataset(dataset, num_points=num_points)
        build_kwargs = dict(kwargs)
        if budget_fraction is not None and method in ("TD-dp", "TD-appro"):
            build_kwargs["budget_fraction"] = budget_fraction
        _BUILD_CACHE[key] = measure_build(
            method, graph, dataset=dataset, num_points=num_points, **build_kwargs
        )
    return _BUILD_CACHE[key]


def _default_fraction(dataset: str) -> float:
    return get_spec(dataset).default_budget_fraction


# ----------------------------------------------------------------------
# Table 2 — dataset statistics
# ----------------------------------------------------------------------
def run_table2(
    datasets: Sequence[str] = ("CAL", "SF", "COL", "FLA", "W-USA"),
    *,
    num_points: int = 3,
) -> list[dict]:
    """Dataset statistics: vertices, edges, treeheight, treewidth, default N.

    The paper's columns are reported twice: once for the original road network
    (from Table 2 verbatim) and once for the scaled stand-in actually used.
    """
    rows = []
    for name in datasets:
        spec = get_spec(name)
        build = _built("TD-basic", name, num_points)
        index = build.index
        stats = index.statistics()
        catalog_build = _built(
            "TD-appro", name, num_points, budget_fraction=_default_fraction(name)
        )
        rows.append(
            {
                "dataset": name,
                "paper_vertices": spec.paper_vertices,
                "paper_edges": spec.paper_edges,
                "paper_budget_N": spec.paper_budget,
                "scaled_vertices": stats.num_vertices,
                "scaled_edges": stats.num_edges,
                "treeheight": stats.treeheight,
                "treewidth": stats.treewidth,
                "scaled_budget_N": catalog_build.index.statistics().budget,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Tables 3 and 4 — query cost / construction / memory on CAL and W-USA
# ----------------------------------------------------------------------
def _method_summary_rows(
    dataset: str,
    methods: Sequence[str],
    *,
    num_points: int,
    num_pairs: int,
    num_intervals: int,
    profile_pairs: int,
    skip: Iterable[str] = (),
) -> list[dict]:
    graph = load_dataset(dataset, num_points=num_points)
    workload = generate_queries(
        graph,
        num_pairs=num_pairs,
        num_intervals=num_intervals,
        seed=get_spec(dataset).seed,
        dataset=dataset,
    )
    pairs = workload.pairs()[:profile_pairs]
    rows = []
    for method in methods:
        if method in skip:
            rows.append(
                {
                    "method": method,
                    "dataset": dataset,
                    "cost_query_ms": "N/A",
                    "profile_query_ms": "N/A",
                    "construction_s": "N/A",
                    "memory_mb": "N/A",
                }
            )
            continue
        build = _built(
            method,
            dataset,
            num_points,
            budget_fraction=_default_fraction(dataset),
        )
        cost = measure_cost_queries(
            build.index, workload, method=method, dataset=dataset, num_points=num_points
        )
        if build.index.capabilities().profile:
            profile = measure_profile_queries(
                build.index, pairs, method=method, dataset=dataset, num_points=num_points
            )
            profile_ms: float | str = profile.mean_ms
        else:
            profile_ms = "N/A"
        rows.append(
            {
                "method": method,
                "dataset": dataset,
                "cost_query_ms": cost.mean_ms,
                "profile_query_ms": profile_ms,
                "construction_s": build.build_seconds,
                "memory_mb": build.memory_mb,
            }
        )
    return rows


def run_table3(
    *,
    num_points: int = 3,
    num_pairs: int = 60,
    num_intervals: int = 5,
    profile_pairs: int = 10,
    methods: Sequence[str] = ("TD-G-tree", "TD-H2H", "TD-basic"),
) -> list[dict]:
    """Table 3: query cost, construction time and memory of the baselines on CAL."""
    return _method_summary_rows(
        "CAL",
        methods,
        num_points=num_points,
        num_pairs=num_pairs,
        num_intervals=num_intervals,
        profile_pairs=profile_pairs,
    )


def run_table4(
    *,
    num_points: int = 2,
    num_pairs: int = 40,
    num_intervals: int = 5,
    profile_pairs: int = 6,
    methods: Sequence[str] = ("TD-G-tree", "TD-H2H", "TD-basic"),
    include_h2h: bool = False,
) -> list[dict]:
    """Table 4: the same comparison on the largest dataset (W-USA, c=2).

    The paper reports TD-H2H as N/A on W-USA because its index exceeds memory;
    at reduced scale it *can* be built, so by default it is skipped to mirror
    the paper (pass ``include_h2h=True`` to measure it anyway).
    """
    skip = () if include_h2h else ("TD-H2H",)
    return _method_summary_rows(
        "W-USA",
        methods,
        num_points=num_points,
        num_pairs=num_pairs,
        num_intervals=num_intervals,
        profile_pairs=profile_pairs,
        skip=skip,
    )


# ----------------------------------------------------------------------
# Fig. 8 — query efficiency vs c
# ----------------------------------------------------------------------
def run_fig8(
    datasets: Sequence[str] = ("CAL", "SF", "COL", "FLA"),
    c_values: Sequence[int] = (2, 3, 4, 5, 6),
    *,
    num_pairs: int = 40,
    num_intervals: int = 5,
    profile_pairs: int = 8,
    methods: Sequence[str] | None = None,
) -> list[dict]:
    """Fig. 8: travel-cost and cost-function query time vs ``c``.

    On CAL the paper compares TD-G-tree / TD-basic / TD-H2H (panels a-b); on
    the larger datasets it compares TD-G-tree / TD-appro / TD-dp (panels c-h).
    ``methods=None`` applies that same split automatically.

    Methods exposing the batch API additionally serve the same workload
    through one :meth:`repro.api.Engine.batch_query` call; the amortised per-query
    latency and the speedup over the per-call loop are reported in the
    ``batch_cost_query_ms`` / ``batch_speedup`` columns.
    """
    rows = []
    for dataset in datasets:
        dataset_methods = methods
        if dataset_methods is None:
            dataset_methods = (
                ("TD-G-tree", "TD-basic", "TD-H2H")
                if dataset == "CAL"
                else ("TD-G-tree", "TD-appro", "TD-dp")
            )
        for c in c_values:
            graph = load_dataset(dataset, num_points=c)
            workload = generate_queries(
                graph,
                num_pairs=num_pairs,
                num_intervals=num_intervals,
                seed=get_spec(dataset).seed + c,
                dataset=dataset,
            )
            pairs = workload.pairs()[:profile_pairs]
            for method in dataset_methods:
                build = _built(
                    method,
                    dataset,
                    c,
                    budget_fraction=_default_fraction(dataset),
                )
                cost = measure_cost_queries(build.index, workload)
                batch_ms: float | str = "N/A"
                speedup: float | str = "N/A"
                if build.index.capabilities().batch:
                    batch = measure_cost_queries_batch(build.index, workload)
                    batch_ms = batch.mean_ms
                    if batch.mean_ms > 0:
                        speedup = cost.mean_ms / batch.mean_ms
                profile_ms: float | str = "N/A"
                if build.index.capabilities().profile:
                    profile_ms = measure_profile_queries(build.index, pairs).mean_ms
                rows.append(
                    {
                        "dataset": dataset,
                        "method": method,
                        "c": c,
                        "cost_query_ms": cost.mean_ms,
                        "batch_cost_query_ms": batch_ms,
                        "batch_speedup": speedup,
                        "profile_query_ms": profile_ms,
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Fig. 9 — construction time and memory vs c
# ----------------------------------------------------------------------
def run_fig9(
    datasets: Sequence[str] = ("SF", "COL", "FLA"),
    c_values: Sequence[int] = (2, 3, 4, 5, 6),
    *,
    methods: Sequence[str] = ("TD-G-tree", "TD-appro", "TD-dp"),
) -> list[dict]:
    """Fig. 9: index construction time and memory footprint vs ``c``."""
    rows = []
    for dataset in datasets:
        for c in c_values:
            for method in methods:
                build = _built(
                    method,
                    dataset,
                    c,
                    budget_fraction=_default_fraction(dataset),
                )
                rows.append(
                    {
                        "dataset": dataset,
                        "method": method,
                        "c": c,
                        "construction_s": build.build_seconds,
                        "memory_mb": build.memory_mb,
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Fig. 10 — index update cost
# ----------------------------------------------------------------------
def run_fig10(
    dataset: str = "SF",
    update_counts: Sequence[int] = (2, 10, 50, 200, 500),
    *,
    num_points: int = 3,
    seed: int = 7,
) -> list[dict]:
    """Fig. 10: incremental update cost of TD-appro vs number of changed edges.

    The paper updates 10 … 100 000 edges of SF; the counts are scaled to the
    stand-in network (its edge count is ~3 orders of magnitude smaller).
    """
    import numpy as np

    from repro.graph.weights import WeightGenerator

    rows = []
    for count in update_counts:
        graph = load_dataset(dataset, num_points=num_points)
        build = measure_build(
            "TD-appro",
            graph,
            dataset=dataset,
            num_points=num_points,
            budget_fraction=_default_fraction(dataset),
        )
        index = build.index
        rng = np.random.default_rng(seed + count)
        perturber = WeightGenerator(num_points, seed=seed + count)
        edges = list(graph.edges())
        chosen = rng.choice(len(edges), size=min(count, len(edges)), replace=False)
        changes = {}
        for edge_idx in chosen:
            u, v, weight = edges[int(edge_idx)]
            changes[(u, v)] = perturber.perturbed(weight)
        report = index.update_edges(changes)
        rows.append(
            {
                "dataset": dataset,
                "num_updated_edges": int(len(changes)),
                "update_seconds": report.seconds,
                "dirty_vertices": report.num_dirty_vertices,
                "refreshed_shortcut_nodes": report.num_refreshed_shortcut_nodes,
                "full_rebuild_seconds": build.build_seconds,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 11 — effect of the budget N
# ----------------------------------------------------------------------
def run_fig11(
    dataset: str = "FLA",
    budget_fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5),
    *,
    num_points: int = 3,
    num_pairs: int = 40,
    num_intervals: int = 5,
    profile_pairs: int = 8,
) -> list[dict]:
    """Fig. 11: query time and memory of TD-appro as the budget ``N`` grows."""
    rows = []
    graph = load_dataset(dataset, num_points=num_points)
    workload = generate_queries(
        graph,
        num_pairs=num_pairs,
        num_intervals=num_intervals,
        seed=get_spec(dataset).seed,
        dataset=dataset,
    )
    pairs = workload.pairs()[:profile_pairs]
    for fraction in budget_fractions:
        build = _built(
            "TD-appro",
            dataset,
            num_points,
            budget_fraction=fraction,
        )
        cost = measure_cost_queries(build.index, workload)
        profile = measure_profile_queries(build.index, pairs)
        stats = build.index.statistics()
        rows.append(
            {
                "dataset": dataset,
                "budget_fraction": fraction,
                "budget_N": stats.budget,
                "cost_query_ms": cost.mean_ms,
                "profile_query_ms": profile.mean_ms,
                "memory_mb": build.memory_mb,
                "selected_pairs": stats.num_selected_pairs,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ----------------------------------------------------------------------
def run_utility_ablation(
    dataset: str = "CAL",
    *,
    num_points: int = 3,
    budget_fraction: float = 0.3,
    num_pairs: int = 40,
    num_intervals: int = 5,
) -> list[dict]:
    """Ablation: how much the utility definition (Def. 7) matters.

    Compares the paper's utility (height gap × treewidth × coverage
    probability) against two strawmen — coverage-only and uniform utilities —
    by re-running the greedy selection with rewritten utilities and measuring
    the resulting query time under the same budget.
    """
    from repro.api import TDTreeEngine
    from repro.core.index import TDTreeIndex
    from repro.core.selection import budget_from_fraction, select_greedy
    from repro.core.shortcuts import build_shortcut_catalog
    from repro.core.tree_decomposition import decompose

    graph = load_dataset(dataset, num_points=num_points)
    workload = generate_queries(
        graph,
        num_pairs=num_pairs,
        num_intervals=num_intervals,
        seed=get_spec(dataset).seed,
        dataset=dataset,
    )
    tree = decompose(graph, max_points=16)
    catalog = build_shortcut_catalog(tree, max_points=16)
    budget = budget_from_fraction(catalog, budget_fraction)

    def index_with(utilities: dict[tuple[int, int], float], label: str) -> dict:
        for pair in catalog:
            pair.utility = utilities[pair.key]
        selection = select_greedy(catalog, budget)
        shortcuts = {key: catalog.pairs[key] for key in selection.selected}
        index = TDTreeIndex(
            graph,
            tree,
            shortcuts,
            strategy="approx",
            selection=selection,
            catalog_size=len(catalog),
            max_points=16,
        )
        cost = measure_cost_queries(TDTreeEngine(index, name="td-appro"), workload)
        return {
            "dataset": dataset,
            "utility": label,
            "budget_N": budget,
            "selected_pairs": len(shortcuts),
            "cost_query_ms": cost.mean_ms,
        }

    paper_utilities = {pair.key: pair.utility for pair in catalog}
    coverage_only = {
        pair.key: pair.utility / max(tree.height(pair.lower) - tree.height(pair.upper), 1)
        for pair in catalog
    }
    uniform = {pair.key: 1.0 for pair in catalog}

    rows = [
        index_with(paper_utilities, "paper (height-gap x coverage)"),
        index_with(coverage_only, "coverage only"),
        index_with(uniform, "uniform"),
    ]
    # Restore the paper utilities so the cached catalog stays consistent.
    for pair in catalog:
        pair.utility = paper_utilities[pair.key]
    return rows


def run_simplification_ablation(
    dataset: str = "CAL",
    max_points_values: Sequence[int | None] = (8, 16, 32, None),
    *,
    num_points: int = 3,
    num_pairs: int = 30,
    num_intervals: int = 4,
    accuracy_pairs: int = 15,
) -> list[dict]:
    """Ablation: PLF simplification cap vs index size, speed and accuracy."""
    from repro.api import create_engine
    from repro.baselines.td_dijkstra import earliest_arrival

    graph = load_dataset(dataset, num_points=num_points)
    workload = generate_queries(
        graph,
        num_pairs=num_pairs,
        num_intervals=num_intervals,
        seed=get_spec(dataset).seed,
        dataset=dataset,
    )
    accuracy_queries = list(workload)[: accuracy_pairs]
    references = {
        (q.source, q.target, q.departure): earliest_arrival(
            graph, q.source, q.target, q.departure
        ).cost
        for q in accuracy_queries
    }
    rows = []
    for cap in max_points_values:
        import time

        started = time.perf_counter()
        engine = create_engine(
            "td-appro", graph, budget_fraction=0.3, max_points=cap
        )
        build_seconds = time.perf_counter() - started
        cost = measure_cost_queries(engine, workload)
        max_rel_error = 0.0
        for query in accuracy_queries:
            got = engine.query(query.source, query.target, query.departure).cost
            reference = references[(query.source, query.target, query.departure)]
            if reference > 0:
                max_rel_error = max(max_rel_error, abs(got - reference) / reference)
        rows.append(
            {
                "dataset": dataset,
                "max_points": "exact" if cap is None else cap,
                "construction_s": build_seconds,
                "memory_mb": engine.memory_breakdown().total_megabytes,
                "cost_query_ms": cost.mean_ms,
                "max_relative_error": max_rel_error,
            }
        )
    return rows
