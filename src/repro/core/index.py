"""The index behind the ``td-*`` engines: :class:`TDTreeIndex`.

A :class:`TDTreeIndex` bundles the TFP tree decomposition, the (optionally
selected) shortcuts and the query algorithms behind one object with four
construction strategies that map one-to-one onto the algorithms compared in
the paper's evaluation:

========== ==================================================================
strategy    meaning
========== ==================================================================
``basic``   tree decomposition only, no shortcuts (``TD-basic``)
``dp``      shortcuts chosen by the exact DP selection (``TD-dp``)
``approx``  shortcuts chosen by the 0.5-approximation (``TD-appro``)
``full``    every candidate shortcut materialised (``TD-H2H``)
========== ==================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import IndexBuildError, IndexNotBuiltError, SelectionError
from repro.functions.piecewise import PiecewiseLinearFunction
from repro.graph.td_graph import TDGraph
from repro.graph.validation import validate_graph
from repro.obs.metrics import get_registry
from repro.utils.memory import DEFAULT_MEMORY_MODEL, MemoryBreakdown, MemoryModel
from repro.utils.timing import Timer
from repro.core.query import (
    BatchQueryResult,
    EarliestArrivalResult,
    ProfileResult,
    basic_cost_query,
    basic_profile_query,
    batch_cost_query,
    shortcut_cost_query,
    shortcut_profile_query,
)
from repro.core.selection import (
    SelectionResult,
    budget_from_fraction,
    select_all,
    select_dp,
    select_greedy,
    select_none,
)
from repro.core.shortcuts import ShortcutCatalog, ShortcutPair, build_shortcut_catalog
from repro.core.tree_decomposition import TFPTreeDecomposition, decompose

__all__ = ["TDTreeIndex", "IndexStatistics", "BUILD_STRATEGIES"]

#: Valid values of the ``strategy`` build parameter.
BUILD_STRATEGIES = ("basic", "dp", "approx", "full")


def _phase_seconds(timer: Timer, tree: TFPTreeDecomposition) -> dict[str, float]:
    """Timer phases plus the elimination engine's sub-phase breakdown.

    Sub-phase keys use a ``decomposition/...`` prefix; they detail where the
    decomposition phase went (structural round assembly vs batch kernels) and
    are excluded from :attr:`IndexStatistics.total_build_seconds`.
    """
    seconds = timer.as_dict()
    stats = getattr(tree, "elimination_stats", None)
    if stats is not None:
        seconds["decomposition/assembly"] = stats.assembly_seconds
        seconds["decomposition/kernels"] = stats.kernel_seconds
    return seconds


def _publish_build_metrics(index: "TDTreeIndex") -> None:
    """Publish one build's telemetry into the process metrics registry.

    Builds and serving share one vocabulary (see :mod:`repro.obs`): phase
    timings land as ``repro_build_phase_seconds{phase,strategy}`` gauges,
    the analytic footprint as ``repro_build_index_bytes`` /
    ``repro_build_bytes_per_vertex``, and the batched elimination engine's
    working-pool high-water marks as ``repro_build_pool_*``.  Gauges are
    last-build-wins per strategy label — the registry reports the most
    recent build, :class:`IndexStatistics` the specific one.
    """
    registry = get_registry()
    strategy = index.strategy
    phase_gauge = registry.gauge(
        "repro_build_phase_seconds",
        "Wall-clock seconds per index build phase (last build wins).",
        ("phase", "strategy"),
    )
    total = 0.0
    for phase, seconds in index._build_seconds.items():
        phase_gauge.set(seconds, phase=phase, strategy=strategy)
        if "/" not in phase:
            total += seconds
    registry.gauge(
        "repro_build_seconds",
        "Total wall-clock seconds of the last index build.",
        ("strategy",),
    ).set(total, strategy=strategy)
    breakdown = index.memory_breakdown()
    registry.gauge(
        "repro_build_index_bytes",
        "Analytic memory footprint of the last built index.",
        ("strategy",),
    ).set(float(breakdown.total_bytes), strategy=strategy)
    registry.gauge(
        "repro_build_bytes_per_vertex",
        "Analytic index bytes per graph vertex for the last build.",
        ("strategy",),
    ).set(breakdown.total_bytes / max(index.graph.num_vertices, 1), strategy=strategy)
    stats = getattr(index.tree, "elimination_stats", None)
    if stats is not None:
        registry.gauge(
            "repro_build_pool_functions",
            "Functions stored in the elimination working pool "
            "(original edges plus fill results).",
            ("strategy",),
        ).set(float(stats.pool_functions), strategy=strategy)
        registry.gauge(
            "repro_build_pool_peak_chunks",
            "High-water mark of live elimination-pool chunks before "
            "compaction.",
            ("strategy",),
        ).set(float(stats.pool_peak_chunks), strategy=strategy)


@dataclass
class IndexStatistics:
    """Summary of a built index (used by the experiment tables)."""

    strategy: str
    num_vertices: int
    num_edges: int
    treewidth: int
    treeheight: int
    num_candidate_pairs: int
    num_selected_pairs: int
    selected_weight: int
    budget: int | None
    #: Per-phase wall-clock seconds.  Keys containing ``/`` are sub-phase
    #: breakdowns (e.g. ``decomposition/kernels`` inside ``decomposition``)
    #: and are excluded from :attr:`total_build_seconds` to avoid double
    #: counting.  The same numbers are published to the :mod:`repro.obs`
    #: metrics registry as ``repro_build_phase_seconds{phase,strategy}``.
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def total_build_seconds(self) -> float:
        return sum(v for k, v in self.phase_seconds.items() if "/" not in k)


class TDTreeIndex:
    """Time-dependent shortest-path index with selected shortcuts.

    Indexes are built through the engine registry, which wraps them in a
    :class:`~repro.api.TDTreeEngine`; the constructor itself only wires
    pre-built components together (which is what :meth:`_build`, the update
    machinery and the snapshot loader use).

    Examples
    --------
    >>> from repro.api import create_engine
    >>> from repro.graph import grid_network
    >>> graph = grid_network(4, 4, seed=7)
    >>> engine = create_engine("td-appro?budget_fraction=0.4", graph)
    >>> engine.index.strategy, engine.query(0, 15, departure=8 * 3600).cost > 0
    ('approx', True)
    """

    def __init__(
        self,
        graph: TDGraph,
        tree: TFPTreeDecomposition,
        shortcuts: dict[tuple[int, int], ShortcutPair],
        *,
        strategy: str,
        selection: SelectionResult,
        catalog_size: int,
        build_seconds: dict[str, float] | None = None,
        max_points: int | None = 32,
        tolerance: float = 0.0,
    ) -> None:
        self.graph = graph
        self.tree = tree
        self.shortcuts = shortcuts
        self.strategy = strategy
        self.selection = selection
        self.max_points = max_points
        self.tolerance = tolerance
        self._catalog_size = catalog_size
        self._build_seconds = dict(build_seconds or {})
        #: Per-OD-pair memo of the batch query engine; cleared on updates.
        self._batch_query_cache: dict = {}
        #: Registry spec this index realises (the engine name when built via
        #: ``create_engine``, the manifest's spec when loaded); :meth:`save`
        #: records it unless told otherwise.  ``None`` when unknown.
        self.engine_spec: str | None = None
        #: Callbacks fired after the update machinery rewrote labels or
        #: shortcuts (serving layers register their cache invalidation here).
        self._invalidation_hooks: list = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def _build(
        cls,
        graph: TDGraph,
        *,
        strategy: str = "approx",
        budget: int | None = None,
        budget_fraction: float | None = None,
        max_points: int | None = 32,
        tolerance: float = 0.0,
        validate: bool = True,
        use_batch_kernels: bool = True,
    ) -> "TDTreeIndex":
        """Build an index over ``graph``.

        Parameters
        ----------
        graph:
            The time-dependent road network.
        strategy:
            One of :data:`BUILD_STRATEGIES`; see the module docstring.
        budget:
            Memory budget ``N`` in interpolation points for the ``dp`` and
            ``approx`` strategies.  Ignored by ``basic`` and ``full``.
        budget_fraction:
            Alternative way to state the budget as a fraction of the total
            candidate-shortcut weight (used by the scaled datasets).  Exactly
            one of ``budget``/``budget_fraction`` may be given; when neither is
            given a default fraction of 0.3 is used.
        max_points:
            Cap on interpolation points per stored function; ``None`` keeps
            everything exact (slower, larger, but useful for verification).
        tolerance:
            Vertical tolerance of the lossless simplification.
        validate:
            Run :func:`repro.graph.validate_graph` first and raise on FIFO or
            connectivity violations.
        use_batch_kernels:
            Build both the decomposition and the shortcut catalog with the
            vectorized batch kernels (the default).  ``False`` selects the
            scalar reference paths; the resulting index is bit-identical, so
            the flag exists for equivalence tests and benchmarks.
        """
        if strategy not in BUILD_STRATEGIES:
            raise IndexBuildError(
                f"unknown strategy {strategy!r}; expected one of {BUILD_STRATEGIES}"
            )
        if budget is not None and budget_fraction is not None:
            raise SelectionError("give either budget or budget_fraction, not both")
        if validate:
            validate_graph(graph).raise_if_invalid()

        timer = Timer()
        with timer.measure("decomposition"):
            tree = decompose(
                graph,
                max_points=max_points,
                tolerance=tolerance,
                use_batch_kernels=use_batch_kernels,
            )

        if strategy == "basic":
            selection = select_none(ShortcutCatalog({}))
            index = cls(
                graph,
                tree,
                {},
                strategy=strategy,
                selection=selection,
                catalog_size=0,
                build_seconds=_phase_seconds(timer, tree),
                max_points=max_points,
                tolerance=tolerance,
            )
            _publish_build_metrics(index)
            return index

        with timer.measure("shortcut_candidates"):
            catalog = build_shortcut_catalog(
                tree,
                max_points=max_points,
                tolerance=tolerance,
                compute_utilities=strategy in ("dp", "approx"),
                use_batch_kernels=use_batch_kernels,
            )

        with timer.measure("selection"):
            if strategy == "full":
                selection = select_all(catalog)
            else:
                if budget is None:
                    fraction = 0.3 if budget_fraction is None else budget_fraction
                    budget = budget_from_fraction(catalog, fraction)
                if strategy == "dp":
                    selection = select_dp(catalog, budget)
                else:
                    selection = select_greedy(catalog, budget)

        with timer.measure("materialisation"):
            shortcuts = {
                key: catalog.pairs[key] for key in selection.selected
            }

        index = cls(
            graph,
            tree,
            shortcuts,
            strategy=strategy,
            selection=selection,
            catalog_size=len(catalog),
            build_seconds=_phase_seconds(timer, tree),
            max_points=max_points,
            tolerance=tolerance,
        )
        _publish_build_metrics(index)
        return index

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _query(
        self,
        source: int,
        target: int,
        departure: float,
        *,
        need_path: bool = False,
    ) -> EarliestArrivalResult:
        """Travel cost query: minimum cost from ``source`` at ``departure``.

        With ``need_path=True`` the result records enough provenance to expand
        the answer into original road segments via
        :meth:`EarliestArrivalResult.path` (slightly slower, because answers
        served purely from shortcuts re-run the tree traversal to obtain hops).
        """
        self._check_built()
        if self.shortcuts:
            result = shortcut_cost_query(
                self.tree,
                self.shortcuts,
                source,
                target,
                departure,
                record_hops=need_path,
            )
            if need_path and not result.hops and source != target:
                return basic_cost_query(
                    self.tree, source, target, departure, record_hops=True
                )
            return result
        return basic_cost_query(
            self.tree, source, target, departure, record_hops=need_path
        )

    def _batch_query(self, sources, targets, departures) -> BatchQueryResult:
        """Answer many scalar travel-cost queries in one vectorized pass.

        ``sources``/``targets``/``departures`` are aligned arrays (one query
        per row).  The costs are bit-identical to calling :meth:`_query` in a
        loop — the batch engine only amortises the per-function Python
        overhead of the tree sweeps — which makes this the right entry point
        for serving batched query traffic and for the throughput benchmarks.
        """
        self._check_built()
        return batch_cost_query(
            self.tree,
            sources,
            targets,
            departures,
            shortcuts=self.shortcuts if self.shortcuts else None,
            cache=self._batch_query_cache,
        )

    def _profile(self, source: int, target: int) -> ProfileResult:
        """Shortest travel cost function query: the whole profile ``f_{s,d}(t)``."""
        self._check_built()
        if self.shortcuts:
            return shortcut_profile_query(
                self.tree, self.shortcuts, source, target, max_points=self.max_points
            )
        return basic_profile_query(
            self.tree, source, target, max_points=self.max_points
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def update_edges(self, changes: dict[tuple[int, int], PiecewiseLinearFunction]):
        """Update edge weights in place; see :func:`repro.core.update.apply_edge_updates`."""
        from repro.core.update import apply_edge_updates

        return apply_edge_updates(self, changes)

    def clone(self) -> "TDTreeIndex":
        """A private copy that :meth:`update_edges` can repair.

        Repair stores new objects into the graph adjacency, the label dicts
        and the shortcuts dict and never edits a function or pair in place,
        so only those containers are copied (see
        :meth:`TFPTreeDecomposition.clone`); every function, pair, bag and
        structural table is shared.  The clone starts with an empty batch
        query memo and no invalidation hooks; repairing it leaves this index
        answering exactly as before.
        """
        self._check_built()
        cloned = TDTreeIndex(
            self.graph.copy(),
            self.tree.clone(),
            dict(self.shortcuts),
            strategy=self.strategy,
            selection=self.selection,
            catalog_size=self._catalog_size,
            build_seconds=self._build_seconds,
            max_points=self.max_points,
            tolerance=self.tolerance,
        )
        cloned.engine_spec = self.engine_spec
        return cloned

    def register_invalidation_hook(self, hook) -> None:
        """Register ``hook()`` to run whenever an update changes query answers.

        The update machinery (:func:`repro.core.update.apply_edge_updates`)
        fires every registered hook after it repaired labels and shortcuts;
        serving layers use this to drop memoised query results
        (:class:`repro.serving.QueryService` wires its result cache in here).
        """
        if not callable(hook):
            raise TypeError("invalidation hooks must be callable")
        self._invalidation_hooks.append(hook)

    def unregister_invalidation_hook(self, hook) -> None:
        """Remove a previously registered hook (no-op when absent)."""
        try:
            self._invalidation_hooks.remove(hook)
        except ValueError:
            pass

    def notify_invalidation(self) -> None:
        """Fire every registered invalidation hook (called by the update path)."""
        for hook in list(self._invalidation_hooks):
            hook()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path, *, engine_spec: "str | None" = None) -> "str":
        """Snapshot the built index to the directory ``path``.

        See :mod:`repro.persistence.snapshot` for the format (``.npz`` buffers
        plus a versioned JSON manifest).  ``engine_spec`` records the
        registry spec the index realises, making the snapshot servable via
        ``create_engine("snapshot:<path>")`` under its original engine name;
        it defaults to :attr:`engine_spec`.  Returns the directory path.
        """
        from repro.persistence import save_index

        self._check_built()
        if engine_spec is None:
            engine_spec = self.engine_spec
        return str(save_index(self, path, engine_spec=engine_spec))

    @classmethod
    def load(cls, path, *, mmap_mode: "str | None" = None) -> "TDTreeIndex":
        """Load a snapshot written by :meth:`save`.

        The loaded index is bit-identical to the saved one for every query
        flavour, and loading skips decomposition/selection entirely — one to
        two orders of magnitude cheaper than :meth:`_build`.

        ``mmap_mode="r"`` (or ``"c"`` for copy-on-write) memory-maps the
        snapshot's array buffers instead of copying them onto the heap, so
        concurrent processes loading the same snapshot share one physical
        copy of the PLF payload via the page cache — see
        :func:`repro.persistence.load_index`.
        """
        from repro.persistence import load_index

        return load_index(path, mmap_mode=mmap_mode)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def memory_breakdown(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> MemoryBreakdown:
        """Analytic memory footprint of the index (labels + shortcuts + structure)."""
        self._check_built()
        shortcut_points = sum(pair.weight for pair in self.shortcuts.values())
        return MemoryBreakdown(
            label_points=self.tree.label_point_count(),
            label_functions=self.tree.label_function_count(),
            shortcut_points=shortcut_points,
            shortcut_functions=2 * len(self.shortcuts),
            structure_nodes=self.tree.num_nodes,
            model=model,
        )

    def statistics(self) -> IndexStatistics:
        """Index statistics for the experiment tables."""
        self._check_built()
        return IndexStatistics(
            strategy=self.strategy,
            num_vertices=self.graph.num_vertices,
            num_edges=self.graph.num_edges,
            treewidth=self.tree.treewidth,
            treeheight=self.tree.treeheight,
            num_candidate_pairs=self._catalog_size,
            num_selected_pairs=len(self.shortcuts),
            selected_weight=sum(pair.weight for pair in self.shortcuts.values()),
            budget=self.selection.budget,
            phase_seconds=dict(self._build_seconds),
        )

    def _check_built(self) -> None:
        if self.tree is None:  # pragma: no cover - defensive
            raise IndexNotBuiltError("the index has not been built")

    def __repr__(self) -> str:
        return (
            f"TDTreeIndex(strategy={self.strategy!r}, vertices={self.graph.num_vertices}, "
            f"shortcut_pairs={len(self.shortcuts)})"
        )
