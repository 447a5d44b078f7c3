"""Measurement helpers shared by all experiment runners.

The compared methods are no longer declared here: :data:`METHODS` is derived
from the :mod:`repro.api` engine registry — every registered engine that
carries a ``paper_name`` (the name used in the paper's evaluation tables)
becomes a row source for the runners.  Registering a third-party engine with
``register_engine(..., paper_name="My-method")`` is therefore enough to get
it measured by every table/figure runner next to the built-in nine.

Builders returned by :func:`build_method` are :class:`repro.api.Engine`
adapters: one typed ``query`` / ``profile`` / ``batch_query`` surface across
the index configurations and the index-free baselines, with capability flags
replacing the old ``hasattr`` probing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.api import Engine, EngineEntry, create_engine, registered_engines
from repro.datasets.queries import Query
from repro.exceptions import DatasetError
from repro.graph.td_graph import TDGraph

__all__ = [
    "METHODS",
    "BuildMeasurement",
    "QueryMeasurement",
    "build_method",
    "measure_build",
    "measure_cost_queries",
    "measure_cost_queries_batch",
    "measure_profile_queries",
]

#: The experiment campaign caps stored functions at 16 interpolation points
#: (the historical harness default) unless a runner overrides it.
_EXPERIMENT_DEFAULTS: dict[str, object] = {"max_points": 16}


def _registry_factory(entry: EngineEntry) -> Callable[..., Engine]:
    """Wrap a registry entry as a tolerant experiment builder.

    The runners pass one uniform kwargs dict to every method (budget
    fractions included); options an engine does not take are dropped here —
    the *strict* surface is :func:`repro.api.create_engine`, this wrapper
    mirrors how the paper's harness applies each knob only where it exists.
    A ``**options`` factory accepts everything, so nothing is dropped for it.
    """
    takes_anything = entry.accepts_any_option()
    accepted = set(entry.accepted_options())

    def factory(graph: TDGraph, **kwargs) -> Engine:
        options = dict(_EXPERIMENT_DEFAULTS)
        options.update(kwargs)
        if not takes_anything:
            options = {k: v for k, v in options.items() if k in accepted}
        return create_engine(entry.name, graph, **options)

    factory.__name__ = f"build_{entry.name.replace('-', '_')}"
    return factory


class _MethodTable(Mapping[str, Callable[..., Engine]]):
    """Live paper-name -> builder view of the engine registry.

    Reading through to the registry (rather than snapshotting at import
    time) means an engine registered *after* this module was imported —
    directly or via a ``repro.engines`` entry point — shows up in the
    experiment runners immediately, as the docs promise.  The built table is
    cached against the registry's mutation counter, so the signature
    inspection only re-runs when the registry actually changed.
    """

    def __init__(self) -> None:
        self._cache: tuple[int, dict[str, Callable[..., Engine]]] | None = None

    def _snapshot(self) -> dict[str, Callable[..., Engine]]:
        from repro.api.registry import registry_version

        cached = self._cache
        if cached is not None and cached[0] == registry_version():
            return cached[1]
        table = {
            entry.paper_name: _registry_factory(entry)
            for entry in registered_engines()
            if entry.paper_name is not None
        }
        # Read the version *after* building: registered_engines() may have
        # scanned entry points and registered more engines along the way.
        self._cache = (registry_version(), table)
        return table

    def __getitem__(self, name: str) -> Callable[..., Engine]:
        return self._snapshot()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._snapshot())

    def __len__(self) -> int:
        return len(self._snapshot())

    def __repr__(self) -> str:
        return f"_MethodTable({list(self._snapshot())})"


#: Paper-table method name -> engine builder, derived live from the registry.
METHODS: Mapping[str, Callable[..., Engine]] = _MethodTable()


@dataclass
class BuildMeasurement:
    """Construction time and memory of one built index."""

    method: str
    dataset: str
    num_points: int
    build_seconds: float
    memory_mb: float
    index: object = field(repr=False, default=None)


@dataclass
class QueryMeasurement:
    """Average latency over a query batch."""

    method: str
    dataset: str
    num_points: int
    kind: str  # "cost" or "profile"
    num_queries: int
    mean_ms: float
    total_seconds: float


def build_method(name: str, graph: TDGraph, **kwargs):
    """Build the method registered under ``name`` over ``graph``."""
    if name not in METHODS:
        raise DatasetError(f"unknown method {name!r}; available: {', '.join(METHODS)}")
    return METHODS[name](graph, **kwargs)


def measure_build(
    name: str,
    graph: TDGraph,
    *,
    dataset: str = "",
    num_points: int = 3,
    **kwargs,
) -> BuildMeasurement:
    """Build a method and record wall-clock time plus modelled memory."""
    started = time.perf_counter()
    index = build_method(name, graph, **kwargs)
    seconds = time.perf_counter() - started
    return BuildMeasurement(
        method=name,
        dataset=dataset,
        num_points=num_points,
        build_seconds=seconds,
        memory_mb=index.memory_breakdown().total_megabytes,
        index=index,
    )


def measure_cost_queries(
    index,
    queries: Iterable[Query],
    *,
    method: str = "",
    dataset: str = "",
    num_points: int = 3,
) -> QueryMeasurement:
    """Average latency of scalar travel-cost queries over a workload."""
    batch = list(queries)
    started = time.perf_counter()
    for query in batch:
        index.query(query.source, query.target, query.departure)
    total = time.perf_counter() - started
    return QueryMeasurement(
        method=method,
        dataset=dataset,
        num_points=num_points,
        kind="cost",
        num_queries=len(batch),
        mean_ms=total * 1000.0 / max(len(batch), 1),
        total_seconds=total,
    )


def measure_cost_queries_batch(
    index,
    queries: Iterable[Query],
    *,
    method: str = "",
    dataset: str = "",
    num_points: int = 3,
) -> QueryMeasurement:
    """Latency of the same scalar workload served through the batch API.

    The whole workload is submitted as one :meth:`repro.api.Engine.batch_query`
    call (the serving pattern the batch engine exists for); the reported
    ``mean_ms`` is the amortised per-query latency, directly comparable to
    :func:`measure_cost_queries`.  A warm-up call is made first so the
    one-time label packing/plan building is excluded — the scalar loop's
    numbers equally benefit from caches warmed by earlier measurements.
    """
    batch = list(queries)
    sources = np.array([q.source for q in batch], dtype=np.int64)
    targets = np.array([q.target for q in batch], dtype=np.int64)
    departures = np.array([q.departure for q in batch], dtype=np.float64)
    index.batch_query(sources, targets, departures)  # warm-up
    started = time.perf_counter()
    index.batch_query(sources, targets, departures)
    total = time.perf_counter() - started
    return QueryMeasurement(
        method=method,
        dataset=dataset,
        num_points=num_points,
        kind="cost-batch",
        num_queries=len(batch),
        mean_ms=total * 1000.0 / max(len(batch), 1),
        total_seconds=total,
    )


def measure_profile_queries(
    index,
    pairs: Sequence[tuple[int, int]],
    *,
    method: str = "",
    dataset: str = "",
    num_points: int = 3,
) -> QueryMeasurement:
    """Average latency of shortest-travel-cost-function queries over pairs."""
    started = time.perf_counter()
    for source, target in pairs:
        index.profile(source, target)
    total = time.perf_counter() - started
    return QueryMeasurement(
        method=method,
        dataset=dataset,
        num_points=num_points,
        kind="profile",
        num_queries=len(pairs),
        mean_ms=total * 1000.0 / max(len(pairs), 1),
        total_seconds=total,
    )
