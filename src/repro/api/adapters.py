"""Built-in engines: adapters putting every method behind the one protocol.

Nine engines ship with the library, mirroring the paper's evaluation:

=================== ========================================================
spec name            method
=================== ========================================================
``td-basic``         tree decomposition only (TD-basic)
``td-dp``            shortcuts via the exact DP selection (TD-dp)
``td-appro``         shortcuts via the 0.5-approximation (TD-appro)
``td-full``          every candidate shortcut materialised
``td-h2h``           TD-H2H (same labels as ``td-full``, baseline defaults)
``td-dijkstra``      index-free time-dependent Dijkstra (TD-Dijkstra)
``td-astar``         goal-directed A*, free-flow lower bounds (TD-A*)
``td-astar-landmarks``  A* with ALT landmark bounds
``tdg-tree``         TD-G-tree hierarchical border matrices (TD-G-tree)
=================== ========================================================

Each adapter normalises its method's native results (`EarliestArrivalResult`,
`DijkstraResult`, `GTreeResult`, plain functions) into the shared
:class:`~repro.api.Route` / :class:`~repro.api.RouteMatrix` /
:class:`~repro.api.RouteProfile` types and advertises exactly what it can do
through :class:`~repro.api.EngineCapabilities`.  The wrapped native object
stays reachable through the explicit ``.index`` handle.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping

import numpy as np

from repro.api.engine import Engine
from repro.api.registry import parse_engine_spec, register_engine
from repro.api.types import (
    DEFAULT_QUERY_OPTIONS,
    EngineCapabilities,
    QueryOptions,
    Route,
    RouteMatrix,
    RouteProfile,
)
from repro.baselines.td_astar import TDAStar
from repro.baselines.td_dijkstra import TDDijkstra
from repro.baselines.tdg_tree import TDGTree
from repro.core.index import IndexStatistics, TDTreeIndex
from repro.exceptions import EngineSpecError, StaleRouteError, UnsupportedCapabilityError
from repro.graph.td_graph import TDGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.update import UpdateReport
    from repro.functions.piecewise import PiecewiseLinearFunction
    from repro.utils.memory import MemoryBreakdown

__all__ = [
    "EngineAdapter",
    "TDTreeEngine",
    "TDDijkstraEngine",
    "TDAStarEngine",
    "TDGTreeEngine",
]


class EngineAdapter:
    """Shared scaffolding of the built-in engines.

    Subclasses set :attr:`CAPABILITIES` and implement :meth:`query` plus the
    ``_*_impl`` hooks for whatever they advertise; the public ``profile`` /
    ``batch_query`` / ``update_edges`` wrappers enforce the capability flags
    so an unadvertised call always raises
    :class:`~repro.exceptions.UnsupportedCapabilityError`.
    """

    CAPABILITIES: ClassVar[EngineCapabilities] = EngineCapabilities()

    def __init__(self, index: Any, name: str) -> None:
        #: The wrapped native object (a ``TDTreeIndex`` or baseline instance).
        self.index = index
        #: Registry spec name this engine was created under.
        self.name = name
        #: The underlying road network.
        self.graph: TDGraph = index.graph

    # -- protocol ------------------------------------------------------
    def capabilities(self) -> EngineCapabilities:
        """The engine's capability flags."""
        return self.CAPABILITIES

    def query(
        self,
        source: int,
        target: int,
        departure: float,
        *,
        options: QueryOptions | None = None,
    ) -> Route:
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def profile(self, source: int, target: int) -> RouteProfile:
        """Whole travel-cost-function query (gated on ``capabilities().profile``)."""
        self._require("profile")
        return self._profile_impl(int(source), int(target))

    def batch_query(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        departures: np.ndarray,
        *,
        options: QueryOptions | None = None,
    ) -> RouteMatrix:
        """Vectorized scalar queries (gated on ``capabilities().batch``)."""
        self._require("batch")
        return self._batch_impl(
            sources, targets, departures, options or DEFAULT_QUERY_OPTIONS
        )

    def update_edges(
        self, changes: Mapping[tuple[int, int], "PiecewiseLinearFunction"]
    ) -> "UpdateReport":
        """Apply edge-weight changes (gated on ``capabilities().update``)."""
        self._require("update")
        return self._update_impl(changes)

    def memory_breakdown(self) -> "MemoryBreakdown":
        """Analytic memory footprint of the wrapped method."""
        return self.index.memory_breakdown()

    # -- hooks ---------------------------------------------------------
    def _profile_impl(self, source: int, target: int) -> RouteProfile:
        raise UnsupportedCapabilityError(self.name, "profile")  # pragma: no cover

    def _batch_impl(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        departures: np.ndarray,
        options: QueryOptions,
    ) -> RouteMatrix:
        raise UnsupportedCapabilityError(self.name, "batch")  # pragma: no cover

    def _update_impl(
        self, changes: Mapping[tuple[int, int], "PiecewiseLinearFunction"]
    ) -> "UpdateReport":
        raise UnsupportedCapabilityError(self.name, "update")  # pragma: no cover

    # -- plumbing ------------------------------------------------------
    def _require(self, capability: str) -> None:
        if not getattr(self.CAPABILITIES, capability):
            raise UnsupportedCapabilityError(self.name, capability)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"vertices={self.graph.num_vertices})"
        )


class _WeakEpochHook:
    """Index invalidation hook that does not keep the engine wrapper alive.

    Wrapping a long-lived index (the documented snapshot-serving pattern)
    must not pin every wrapper ever created: the hook holds only weak
    references and unregisters itself from the index once its engine died —
    the same discipline :class:`repro.serving.QueryService` applies to its
    cache hook.
    """

    __slots__ = ("_engine_ref", "_index_ref")

    def __init__(self, engine: "TDTreeEngine", index: TDTreeIndex) -> None:
        self._engine_ref = weakref.ref(engine)
        self._index_ref = weakref.ref(index)

    def __call__(self) -> None:
        engine = self._engine_ref()
        if engine is not None:
            engine._epoch += 1
            return
        index = self._index_ref()
        if index is not None:
            index.unregister_invalidation_hook(self)


# ----------------------------------------------------------------------
# Tree-decomposition engines (td-basic / td-dp / td-appro / td-full / td-h2h)
# ----------------------------------------------------------------------
class TDTreeEngine(EngineAdapter):
    """Adapter over a built :class:`~repro.core.index.TDTreeIndex`.

    Built by the ``td-*`` factories, and by ``create_engine("snapshot:<dir>")``
    around an index loaded from a snapshot.

    Lazy path reconstruction re-runs the query, so it is only valid while the
    index still answers like it did at query time: every ``update_edges``
    bumps an epoch, and a stale route's ``path()`` raises
    :class:`~repro.exceptions.StaleRouteError` instead of returning a path
    from the updated network that no longer realises the recorded cost.
    ``QueryOptions(want_path=True)`` records provenance at query time and is
    immune.
    """

    CAPABILITIES = EngineCapabilities(profile=True, batch=True, update=True, paths=True)

    index: TDTreeIndex

    def __init__(self, index: TDTreeIndex, name: str) -> None:
        super().__init__(index, name)
        #: Bumped whenever an update changes query answers (see query()).
        self._epoch = 0
        index.register_invalidation_hook(_WeakEpochHook(self, index))

    def query(
        self,
        source: int,
        target: int,
        departure: float,
        *,
        options: QueryOptions | None = None,
    ) -> Route:
        opts = options or DEFAULT_QUERY_OPTIONS
        source, target, departure = int(source), int(target), float(departure)
        result = self.index._query(source, target, departure, need_path=opts.want_path)
        if opts.want_path:
            # Resolve now: hop expansion reads the live tree labels, so only
            # a path materialised at query time is immune to later updates.
            return Route(
                engine=self.name,
                source=source,
                target=target,
                departure=departure,
                cost=float(result.cost),
                _path=result.path(),
            )
        # Lazy: only pay the path traversal if the path is read — guarded by
        # the epoch so a post-update read raises StaleRouteError instead of
        # returning a path from a different network.
        epoch = self._epoch
        return Route(
            engine=self.name,
            source=source,
            target=target,
            departure=departure,
            cost=float(result.cost),
            _path_factory=lambda: self._checked_path(epoch, source, target, departure),
        )

    def _profile_impl(self, source: int, target: int) -> RouteProfile:
        result = self.index._profile(source, target)
        epoch = self._epoch
        return RouteProfile(
            engine=self.name,
            source=source,
            target=target,
            function=result.function,
            _path_factory=lambda d: self._checked_path(epoch, source, target, float(d)),
        )

    def _batch_impl(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        departures: np.ndarray,
        options: QueryOptions,
    ) -> RouteMatrix:
        result = self.index._batch_query(sources, targets, departures)
        epoch = self._epoch
        matrix = RouteMatrix(
            engine=self.name,
            sources=result.sources,
            targets=result.targets,
            departures=result.departures,
            costs=result.costs,
            _path_factory=lambda s, t, d: self._checked_path(epoch, s, t, d),
        )
        if options.want_path:
            # Record provenance at query time: every row's path is resolved
            # now, so later path(i) reads are immune to index updates.
            for i in range(len(matrix)):
                matrix.path(i)
        return matrix

    def _update_impl(
        self, changes: Mapping[tuple[int, int], "PiecewiseLinearFunction"]
    ) -> "UpdateReport":
        return self.index.update_edges(dict(changes))

    def _checked_path(
        self, epoch: int, source: int, target: int, departure: float
    ) -> list[int]:
        """Reconstruct a path lazily, refusing if the index changed since."""
        if epoch != self._epoch:
            raise StaleRouteError(self.name)
        return self._scalar_path(source, target, departure)

    def _scalar_path(self, source: int, target: int, departure: float) -> list[int]:
        return self.index._query(source, target, departure, need_path=True).path()

    def statistics(self) -> IndexStatistics:
        """Index statistics (:class:`~repro.core.index.IndexStatistics`)."""
        return self.index.statistics()

    # The serving layer registers its cache-invalidation hooks through the
    # engine, so updates applied via either surface drop stale answers.
    def register_invalidation_hook(self, hook: Callable[[], None]) -> None:
        self.index.register_invalidation_hook(hook)

    def unregister_invalidation_hook(self, hook: Callable[[], None]) -> None:
        self.index.unregister_invalidation_hook(hook)


# ----------------------------------------------------------------------
# Baseline engines
# ----------------------------------------------------------------------
class _GraphSearchEngine(EngineAdapter):
    """Shared adapter for engines whose backend runs a graph search.

    TD-Dijkstra and TD-A* both return a
    :class:`~repro.baselines.td_dijkstra.DijkstraResult` whose path was
    materialised by the search itself; normalising that into a :class:`Route`
    lives here once.
    """

    def query(
        self,
        source: int,
        target: int,
        departure: float,
        *,
        options: QueryOptions | None = None,
    ) -> Route:
        result = self.index.query(int(source), int(target), float(departure))
        # The search walked the graph anyway: the path is already known.
        return Route(
            engine=self.name,
            source=result.source,
            target=result.target,
            departure=result.departure,
            cost=float(result.cost),
            _path=list(result.path),
        )


class TDDijkstraEngine(_GraphSearchEngine):
    """Index-free exact reference: time-dependent Dijkstra."""

    CAPABILITIES = EngineCapabilities(profile=True, batch=False, update=False, paths=True)

    index: TDDijkstra

    def _profile_impl(self, source: int, target: int) -> RouteProfile:
        function = self.index.profile(source, target)
        return RouteProfile(
            engine=self.name,
            source=source,
            target=target,
            function=function,
            _path_factory=lambda d: list(
                self.index.query(source, target, float(d)).path
            ),
        )


class TDAStarEngine(_GraphSearchEngine):
    """Goal-directed A* (exact); heuristic chosen at build time."""

    CAPABILITIES = EngineCapabilities(profile=False, batch=False, update=False, paths=True)

    index: TDAStar


class TDGTreeEngine(EngineAdapter):
    """TD-G-tree hierarchical border-matrix index (no path reconstruction)."""

    CAPABILITIES = EngineCapabilities(profile=True, batch=False, update=False, paths=False)

    index: TDGTree

    def query(
        self,
        source: int,
        target: int,
        departure: float,
        *,
        options: QueryOptions | None = None,
    ) -> Route:
        result = self.index.query(int(source), int(target), float(departure))
        return Route(
            engine=self.name,
            source=result.source,
            target=result.target,
            departure=result.departure,
            cost=float(result.cost),
        )

    def _profile_impl(self, source: int, target: int) -> RouteProfile:
        function = self.index.profile(source, target)
        return RouteProfile(
            engine=self.name, source=source, target=target, function=function
        )


# ----------------------------------------------------------------------
# Registry entries (typed factories: the keyword-only parameters are the
# accepted-option declarations create_engine validates specs against)
# ----------------------------------------------------------------------
def _td_tree_factory(
    graph: TDGraph,
    *,
    name: str,
    strategy: str,
    budget: int | None = None,
    budget_fraction: float | None = None,
    max_points: int | None = 32,
    tolerance: float = 0.0,
    validate: bool = True,
    use_batch_kernels: bool = True,
) -> TDTreeEngine:
    index = TDTreeIndex._build(
        graph,
        strategy=strategy,
        budget=budget,
        budget_fraction=budget_fraction,
        max_points=max_points,
        tolerance=tolerance,
        validate=validate,
        use_batch_kernels=use_batch_kernels,
    )
    # Several engines share a build strategy (td-full and td-h2h are both
    # "full"), so the name is what a snapshot must carry to come back as the
    # same engine.
    index.engine_spec = name
    return TDTreeEngine(index, name=name)


@register_engine(
    "td-basic",
    description="TFP tree decomposition only, no shortcuts (TD-basic)",
    paper_name="TD-basic",
)
def build_td_basic(
    graph: TDGraph,
    *,
    max_points: int | None = 32,
    tolerance: float = 0.0,
    validate: bool = True,
    use_batch_kernels: bool = True,
) -> Engine:
    """Build the shortcut-free index engine."""
    return _td_tree_factory(
        graph,
        name="td-basic",
        strategy="basic",
        max_points=max_points,
        tolerance=tolerance,
        validate=validate,
        use_batch_kernels=use_batch_kernels,
    )


@register_engine(
    "td-dp",
    description="budgeted shortcuts chosen by the exact DP selection (TD-dp)",
    paper_name="TD-dp",
)
def build_td_dp(
    graph: TDGraph,
    *,
    budget: int | None = None,
    budget_fraction: float | None = None,
    max_points: int | None = 32,
    tolerance: float = 0.0,
    validate: bool = True,
    use_batch_kernels: bool = True,
) -> Engine:
    """Build the exact-DP shortcut-selection engine."""
    return _td_tree_factory(
        graph,
        name="td-dp",
        strategy="dp",
        budget=budget,
        budget_fraction=budget_fraction,
        max_points=max_points,
        tolerance=tolerance,
        validate=validate,
        use_batch_kernels=use_batch_kernels,
    )


@register_engine(
    "td-appro",
    description="budgeted shortcuts via the 0.5-approximation (TD-appro)",
    paper_name="TD-appro",
)
def build_td_appro(
    graph: TDGraph,
    *,
    budget: int | None = None,
    budget_fraction: float | None = None,
    max_points: int | None = 32,
    tolerance: float = 0.0,
    validate: bool = True,
    use_batch_kernels: bool = True,
) -> Engine:
    """Build the greedy 0.5-approximation engine (the paper's headline method)."""
    return _td_tree_factory(
        graph,
        name="td-appro",
        strategy="approx",
        budget=budget,
        budget_fraction=budget_fraction,
        max_points=max_points,
        tolerance=tolerance,
        validate=validate,
        use_batch_kernels=use_batch_kernels,
    )


@register_engine(
    "td-full",
    description="every candidate shortcut materialised (budget-free)",
)
def build_td_full(
    graph: TDGraph,
    *,
    max_points: int | None = 32,
    tolerance: float = 0.0,
    validate: bool = True,
    use_batch_kernels: bool = True,
) -> Engine:
    """Build the full-shortcut engine (largest memory, fastest queries)."""
    return _td_tree_factory(
        graph,
        name="td-full",
        strategy="full",
        max_points=max_points,
        tolerance=tolerance,
        validate=validate,
        use_batch_kernels=use_batch_kernels,
    )


@register_engine(
    "td-h2h",
    description="TD-H2H baseline: full shortcuts with the paper's defaults",
    paper_name="TD-H2H",
)
def build_td_h2h(
    graph: TDGraph,
    *,
    max_points: int | None = 16,
    tolerance: float = 0.0,
    validate: bool = True,
    use_batch_kernels: bool = True,
) -> Engine:
    """Build the TD-H2H baseline (same labels as ``td-full``, 16-point cap)."""
    return _td_tree_factory(
        graph,
        name="td-h2h",
        strategy="full",
        max_points=max_points,
        tolerance=tolerance,
        validate=validate,
        use_batch_kernels=use_batch_kernels,
    )


@register_engine(
    "td-dijkstra",
    description="index-free time-dependent Dijkstra (exact reference)",
    paper_name="TD-Dijkstra",
)
def build_td_dijkstra(graph: TDGraph) -> Engine:
    """Build the index-free reference engine (no options: no preprocessing)."""
    return TDDijkstraEngine(TDDijkstra(graph), name="td-dijkstra")


@register_engine(
    "td-astar",
    description="goal-directed A* with free-flow or landmark lower bounds",
    paper_name="TD-A*",
)
def build_td_astar(
    graph: TDGraph,
    *,
    heuristic: str = "min-cost",
    num_landmarks: int = 8,
    seed: int = 0,
) -> Engine:
    """Build the A* engine (``heuristic``: ``min-cost`` or ``landmarks``)."""
    return TDAStarEngine(
        TDAStar.build(
            graph, heuristic=heuristic, num_landmarks=num_landmarks, seed=seed
        ),
        name="td-astar",
    )


@register_engine(
    "td-astar-landmarks",
    description="A* with ALT landmark lower bounds (cheaper prepare, weaker bound)",
)
def build_td_astar_landmarks(
    graph: TDGraph,
    *,
    num_landmarks: int = 8,
    seed: int = 0,
) -> Engine:
    """Build the landmark-heuristic A* engine."""
    return TDAStarEngine(
        TDAStar.build(
            graph, heuristic="landmarks", num_landmarks=num_landmarks, seed=seed
        ),
        name="td-astar-landmarks",
    )


#: td-* build strategy -> registry spec name, used to name engines rehydrated
#: from snapshots whose manifest predates the ``engine_spec`` field.
_STRATEGY_SPEC_NAMES = {
    "basic": "td-basic",
    "dp": "td-dp",
    "approx": "td-appro",
    "full": "td-full",
}


@register_engine(
    "snapshot",
    description="rehydrate a saved index snapshot (spec form: snapshot:<directory>)",
    graph_optional=True,
)
def build_snapshot_engine(
    graph: TDGraph | None = None,
    *,
    path: str,
    name: str | None = None,
    mmap_mode: str | None = None,
) -> Engine:
    """Load the snapshot directory ``path`` into a servable engine.

    The spec form is ``"snapshot:<directory>"`` — the scheme argument becomes
    the ``path`` option.  The engine is named after the manifest's
    ``engine_spec`` (recorded by :func:`repro.persistence.save_index` when
    the spec is known), falling back to the build strategy for manifests
    written before that field existed; pass ``name=...`` to override.
    Snapshots embed their graph, so passing one is a usage error, not a
    merge.

    ``mmap_mode="r"`` (spec form ``"snapshot:<dir>?mmap_mode=r"``) maps the
    array buffers instead of copying them, so co-resident processes serving
    the same snapshot share one physical copy — the replica workers of
    :class:`~repro.serving.replica.ReplicaPool` rehydrate this way.
    """
    from repro.persistence import load_index, read_manifest

    if graph is not None:
        raise EngineSpecError(
            "snapshot engines embed their own graph; build with "
            "create_engine('snapshot:<path>', graph=None)"
        )
    manifest = read_manifest(path)
    if name is None:
        recorded = manifest.get("engine_spec")
        if recorded:
            name = parse_engine_spec(str(recorded))[0]
        else:
            name = _STRATEGY_SPEC_NAMES.get(
                str(manifest.get("strategy", "")), "td-snapshot"
            )
    return TDTreeEngine(load_index(path, mmap_mode=mmap_mode), name=name)


@register_engine(
    "faulty",
    description="fault-injection wrapper over any engine (spec form: faulty:<inner-spec>)",
    graph_optional=True,
)
def build_faulty_engine(
    graph: TDGraph | None = None,
    *,
    path: str,
    fail_batch: int = 0,
    crash_batch: int = 0,
    poison_from: int = 0,
    latency_every: int = 0,
    latency_ms: float = 0.0,
    seed: int = 0,
    **inner_options: Any,
) -> Engine:
    """Wrap the inner engine spec ``path`` in a deterministic fault injector.

    The spec form is ``"faulty:<inner-spec>"`` — e.g.
    ``"faulty:td-appro?crash_batch=3&budget_fraction=0.4"``.  The fault
    options configure the :class:`~repro.serving.faults.FaultPlan`; every
    other option is forwarded to the inner engine's factory.  ``graph`` is
    optional only because the inner spec may be (``"faulty:snapshot:/dir"``);
    graph-requiring inner engines still demand one.
    """
    from repro.api import create_engine
    from repro.serving.faults import FaultPlan, FaultyEngine

    inner = create_engine(path, graph, **inner_options)
    plan = FaultPlan(
        fail_batch=int(fail_batch),
        crash_batch=int(crash_batch),
        poison_from=int(poison_from),
        latency_every=int(latency_every),
        latency_ms=float(latency_ms),
        seed=int(seed),
    )
    return FaultyEngine(inner, plan)


@register_engine(
    "tdg-tree",
    description="TD-G-tree hierarchical border-matrix index (VLDB'19 baseline)",
    paper_name="TD-G-tree",
)
def build_tdg_tree(
    graph: TDGraph,
    *,
    leaf_size: int = 24,
    max_points: int | None = 16,
) -> Engine:
    """Build the TD-G-tree baseline engine."""
    return TDGTreeEngine(
        TDGTree.build(graph, leaf_size=leaf_size, max_points=max_points),
        name="tdg-tree",
    )
