"""Incremental index maintenance under edge-weight updates (Sec. 5.2, Fig. 10).

Traffic conditions change during the day; the paper's update experiment
perturbs the weight functions of a growing number of edges and measures how
long it takes to bring the index back in sync.  Rebuilding from scratch is the
trivial upper bound; the incremental algorithm implemented here exploits two
structural facts of the TFP decomposition:

1. The bag functions stored at ``X(v)`` are exactly the working-graph weights
   between ``v`` and its neighbours at elimination time, and the working-graph
   weight of an edge ``(x, y)`` equals the minimum of the original weight and
   the contributions ``Compound(X(z).Wd_x, X(z).Ws_y)`` over every vertex ``z``
   eliminated before both with ``x, y`` in its bag.  A changed edge therefore
   only dirties bag functions along the *ancestor cone* of its lower endpoint,
   and every dirty function can be recomputed from already-stored material.

2. A selected shortcut of node ``i`` only depends on bag functions of nodes on
   ``i``'s root path, so only descendants of vertices whose bag functions
   changed need their shortcuts refreshed.  They are recomputed by the same
   level-batched top-down construction (Fact 1) that builds the catalog, run
   over the pairs they depend on only (the Fact 1 dependency closure of the
   refreshed pairs, not every pair on their root paths), so a repaired
   shortcut equals the catalog entry of the repaired tree bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.exceptions import EdgeNotFoundError, InvalidFunctionError
from repro.functions.compound import compound, minimum_of
from repro.functions.piecewise import PiecewiseLinearFunction
from repro.functions.simplify import simplify
from repro.core.shortcuts import _build_pairs_batched, _dependency_closure

__all__ = ["UpdateReport", "apply_edge_updates"]


@dataclass
class UpdateReport:
    """What an incremental update touched (returned by ``TDTreeIndex.update_edges``)."""

    #: Edges whose weight function was replaced.
    num_changed_edges: int
    #: Vertices whose bag functions were re-examined (phase 2).
    num_dirty_vertices: int = 0
    #: Working-graph weights recomputed while re-examining them.
    num_recomputed_labels: int = 0
    #: Distinct lowers of the selected shortcuts that were recomputed: the
    #: nodes below a vertex whose bag functions changed.
    num_refreshed_shortcut_nodes: int = 0
    #: Selected shortcut pairs recomputed (those of the refreshed nodes only;
    #: pairs whose lower lies outside the changed subtrees are kept as is).
    num_refreshed_shortcut_pairs: int = 0
    #: Wall-clock time of the whole repair.
    seconds: float = 0.0
    #: Per-phase breakdown: ``phase1_seconds`` (apply the changes),
    #: ``phase2_seconds`` (repair bag functions), ``phase3_seconds`` (refresh
    #: shortcuts) and ``phase3_pairs_built`` (pairs the refresh computed,
    #: selected or not).
    details: dict[str, float] = field(default_factory=dict)


def apply_edge_updates(
    index,
    changes: dict[tuple[int, int], PiecewiseLinearFunction],
) -> UpdateReport:
    """Apply edge-weight changes to ``index`` and repair labels and shortcuts.

    Parameters
    ----------
    index:
        A built :class:`~repro.core.index.TDTreeIndex`.
    changes:
        Mapping ``(source, target) -> new weight function``.  Every referenced
        edge must already exist (topology changes are out of scope, as in the
        paper's update experiment).

    Returns
    -------
    UpdateReport
        Counters describing the amount of recomputation performed.
    """
    import time

    started = time.perf_counter()
    report = UpdateReport(num_changed_edges=len(changes))
    if not changes:
        return report

    graph = index.graph
    tree = index.tree
    details = report.details

    # Phase 1: apply the changes to the base graph and seed the dirty sets.
    dirty_edges: set[tuple[int, int]] = set()
    dirty_vertices: set[int] = set()
    for (source, target), weight in changes.items():
        if not graph.has_edge(source, target):
            raise EdgeNotFoundError(source, target)
        if not weight.is_nonnegative():
            raise InvalidFunctionError(
                f"new weight for edge ({source}, {target}) has negative costs"
            )
        graph.set_weight(source, target, weight)
        dirty_edges.add((source, target))
        dirty_edges.add((target, source))
        lower = min((source, target), key=lambda v: tree.nodes[v].order)
        dirty_vertices.add(lower)

    phase_started = time.perf_counter()
    details["phase1_seconds"] = phase_started - started

    # Phase 2: repair bag functions bottom-up in elimination order.  The dirty
    # queue is a heap keyed on elimination order plus a seen-set: bag vertices
    # are always eliminated later than the node that stores them, so each pop
    # is the globally next dirty vertex without re-sorting per insertion.
    contributors = tree.pair_contributors()
    changed_bag_vertices: set[int] = set()
    pending: list[tuple[int, int]] = [
        (tree.nodes[v].order, v) for v in dirty_vertices
    ]
    heapq.heapify(pending)
    queued: set[int] = set(dirty_vertices)
    processed: set[int] = set()
    while pending:
        _, vertex = heapq.heappop(pending)
        if vertex in processed:  # pragma: no cover - queued prevents duplicates
            continue
        processed.add(vertex)
        node = tree.nodes[vertex]
        vertex_changed = False
        for bag_vertex in node.bag:
            for direction, store in (("fwd", node.ws), ("bwd", node.wd)):
                if direction == "fwd":
                    edge = (vertex, bag_vertex)
                else:
                    edge = (bag_vertex, vertex)
                if edge not in dirty_edges:
                    continue
                new_value = _recompute_working_edge(
                    graph, tree, contributors, edge, index.max_points, index.tolerance
                )
                report.num_recomputed_labels += 1
                old_value = store.get(bag_vertex)
                if new_value is None:
                    continue
                if old_value is not None and old_value.allclose(new_value, tolerance=1e-9):
                    continue
                store[bag_vertex] = new_value
                vertex_changed = True
        if vertex_changed:
            changed_bag_vertices.add(vertex)
            # The packed label batches of this node are stale now.
            tree.invalidate_label_batches((vertex,))
            # Every edge this vertex wrote during elimination may now differ.
            for a in node.bag:
                for b in node.bag:
                    if a == b:
                        continue
                    dirty_edges.add((a, b))
            for b in node.bag:
                if b not in processed and b not in queued:
                    heapq.heappush(pending, (tree.nodes[b].order, b))
                    queued.add(b)
    report.num_dirty_vertices = len(processed)
    now = time.perf_counter()
    details["phase2_seconds"] = now - phase_started
    phase_started = now

    # Phase 3: refresh the selected shortcuts of every affected node.  A node
    # is affected when a vertex whose bag functions changed lies on its root
    # path (Fact 2).  One level-batched Fact 1 pass over the dependency
    # closure of the affected nodes' selected pairs recomputes them.
    pairs_built = 0
    if index.shortcuts and changed_bag_vertices:
        affected_lowers = {
            lower
            for (lower, _upper) in index.shortcuts
            if _chain_intersects(tree, lower, changed_bag_vertices)
        }
        report.num_refreshed_shortcut_nodes = len(affected_lowers)
        report.num_refreshed_shortcut_pairs, pairs_built = _refresh_shortcuts(
            index, affected_lowers
        )
    details["phase3_seconds"] = time.perf_counter() - phase_started
    details["phase3_pairs_built"] = float(pairs_built)

    # The batch query engine memoises per-pair shortcut batches; any label or
    # shortcut refresh invalidates them.
    cache = getattr(index, "_batch_query_cache", None)
    if cache is not None:
        cache.clear()
    # External caches (e.g. a QueryService result cache) hang off the index's
    # invalidation hooks; fire them even for no-op-looking updates — a changed
    # edge can alter answers without dirtying any bag function.
    notify = getattr(index, "notify_invalidation", None)
    if notify is not None:
        notify()

    report.seconds = time.perf_counter() - started
    return report


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _recompute_working_edge(
    graph,
    tree,
    contributors: dict[tuple[int, int], list[int]],
    edge: tuple[int, int],
    max_points: int | None,
    tolerance: float,
) -> PiecewiseLinearFunction | None:
    """Recompute the working-graph weight of ``edge`` from stored material."""
    x, y = edge
    candidates: list[PiecewiseLinearFunction] = []
    if graph.has_edge(x, y):
        candidates.append(graph.weight(x, y))
    order_x = tree.nodes[x].order
    order_y = tree.nodes[y].order
    for z in contributors.get(edge, ()):  # z eliminated before both endpoints
        node_z = tree.nodes[z]
        if node_z.order >= min(order_x, order_y):
            continue
        first = node_z.wd.get(x)
        second = node_z.ws.get(y)
        if first is None or second is None:
            continue
        candidates.append(compound(first, second, via=z))
    if not candidates:
        return None
    merged = minimum_of(candidates)
    if max_points is not None or tolerance:
        merged = simplify(merged, max_points=max_points, tolerance=tolerance)
    return merged


def _chain_intersects(tree, vertex: int, dirty: set[int]) -> bool:
    """Whether the root path of ``vertex`` contains any dirty vertex."""
    return any(v in dirty for v in tree.root_path(vertex))


def _refresh_shortcuts(index, lowers: set[int]) -> tuple[int, int]:
    """Recompute the selected pairs ``<lower, *>`` of ``lowers`` (Fact 1).

    Returns the number of selected pairs replaced and the number of pairs
    the pass built to compute them.
    """
    tree = index.tree
    needed = [key for key in index.shortcuts if key[0] in lowers]
    keys = _dependency_closure(tree, needed)
    pairs = _build_pairs_batched(
        tree, keys, max_points=index.max_points, tolerance=index.tolerance
    )
    for key in needed:
        new_pair = pairs[key]
        new_pair.utility = index.shortcuts[key].utility
        index.shortcuts[key] = new_pair
    return len(needed), len(pairs)
