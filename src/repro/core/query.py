"""Query processing over the TFP tree decomposition.

Two query flavours are implemented, matching the paper's evaluation:

* the **travel cost query** (scalar): minimum travel cost from ``s`` to ``d``
  when departing at a given time ``t``;
* the **shortest travel cost function query** (profile): the whole function
  :math:`f_{s,d}(t)` over the time horizon.

Both are available

* without shortcuts — the *basic* query of Algorithm 3 (``TD-basic``), and
* with a set of selected shortcuts — Algorithm 6 (``TD-dp`` / ``TD-appro``),
  which has three regimes: all needed shortcuts present (O(w) lookups), some
  present (the partial shortcuts provide an upper bound that prunes the tree
  traversal), or none (falls back to the basic query).

The module also implements path unpacking: reduced weight functions carry the
bridge vertex of every segment (``via``), which lets any tree-level hop be
expanded recursively into original road segments.

**Batch API.**  :func:`batch_cost_query` answers many scalar (OD, departure)
queries in one call.  Instead of one tree sweep per query, the whole batch
shares one ascending and one descending sweep over a matrix with one row per
node on the union of the batch's source (respectively target) root paths and
one column per query: every such node relaxes once (in height order) with a
single vectorized kernel call (:mod:`repro.functions.batch`) covering all of
its label functions and all query columns.  For an individual query, nodes
off its own root path carry ``inf`` state and contribute exact no-ops, so
the returned costs are bit-identical to looping :func:`basic_cost_query` /
:func:`shortcut_cost_query` over the same queries — the batch kernels and
the scalar fast path share one interpolation formula — and the batch engine
is a pure throughput optimisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DisconnectedQueryError, ReproError
from repro.functions.batch import PLFBatch, evaluate_grid, evaluate_many
from repro.functions.compound import compound, minimum_of
from repro.functions.piecewise import NO_VIA, PiecewiseLinearFunction
from repro.functions.profile import best_departure as _best_departure
from repro.functions.simplify import simplify
from repro.core.tree_decomposition import TFPTreeDecomposition

__all__ = [
    "EarliestArrivalResult",
    "ProfileResult",
    "BatchQueryResult",
    "basic_cost_query",
    "basic_profile_query",
    "shortcut_cost_query",
    "shortcut_profile_query",
    "batch_cost_query",
    "expand_hop",
]

_INF = math.inf


# ----------------------------------------------------------------------
# Result objects
# ----------------------------------------------------------------------
@dataclass
class EarliestArrivalResult:
    """Answer of a scalar travel-cost query."""

    source: int
    target: int
    departure: float
    cost: float
    meeting_vertex: int | None
    #: "full_shortcuts", "partial_shortcuts", or "basic" — which regime of
    #: Algorithm 6 (or Algorithm 3) produced the answer.
    strategy: str
    #: Tree-level hops (from_vertex, to_vertex, function, departure) recorded
    #: for path expansion; empty when the query was answered purely from
    #: shortcuts and hop recording was not requested.
    hops: list[tuple[int, int, PiecewiseLinearFunction, float]] = field(
        default_factory=list, repr=False
    )
    #: Tree decomposition used to expand hops into original road segments.
    tree: TFPTreeDecomposition | None = field(default=None, repr=False, compare=False)

    @property
    def arrival(self) -> float:
        """Arrival time at the target."""
        return self.departure + self.cost

    def path(self) -> list[int]:
        """Expand the recorded tree-level hops into a vertex path.

        Returns a list of graph vertices starting at ``source`` and ending at
        ``target``.  When no hops were recorded (pure shortcut answers), the
        result contains only the endpoints and the meeting vertex.
        """
        if self.source == self.target:
            return [self.source]
        if not self.hops:
            if self.meeting_vertex is None:
                return [self.source, self.target]
            middle = (
                [self.meeting_vertex]
                if self.meeting_vertex not in (self.source, self.target)
                else []
            )
            return [self.source, *middle, self.target]
        vertices: list[int] = [self.hops[0][0]]
        for from_vertex, to_vertex, func, depart in self.hops:
            edges, _ = expand_hop(self.tree, from_vertex, to_vertex, func, depart)
            for _, v in edges:
                vertices.append(v)
        return vertices


@dataclass
class ProfileResult:
    """Answer of a shortest-travel-cost-function query."""

    source: int
    target: int
    function: PiecewiseLinearFunction
    strategy: str

    def cost_at(self, departure: float) -> float:
        """Evaluate the profile at one departure time."""
        return float(self.function.evaluate(departure))

    def best_departure(self, start: float, end: float) -> tuple[float, float]:
        """Return the exact ``(departure, cost)`` minimising the cost in a window.

        The minimum of a piecewise-linear profile over ``[start, end]`` lies
        at a breakpoint or a window endpoint, so exactly those candidates are
        evaluated.
        """
        return _best_departure(self.function, start, end)


# ----------------------------------------------------------------------
# Hop expansion (path unpacking)
# ----------------------------------------------------------------------
def expand_hop(
    tree: TFPTreeDecomposition | None,
    from_vertex: int,
    to_vertex: int,
    func: PiecewiseLinearFunction,
    departure: float,
    _depth: int = 0,
) -> tuple[list[tuple[int, int]], float]:
    """Expand one tree-level hop into original directed road segments.

    ``func`` must be the weight function actually used to travel from
    ``from_vertex`` to ``to_vertex`` departing at ``departure`` (a bag function
    or a reduced edge).  Returns the list of original edges and the arrival
    time according to the stored (possibly simplified) functions.

    When ``tree`` is ``None`` the expansion cannot recurse and the hop is
    returned as-is; this still yields a connected (coarse) path.
    """
    if _depth > 10_000:  # pragma: no cover - defensive
        raise ReproError("path expansion exceeded the maximum recursion depth")
    via = func.via_at(departure)
    arrival = departure + float(func.evaluate(departure))
    if via == NO_VIA or tree is None:
        return [(from_vertex, to_vertex)], arrival
    via_node = tree.nodes.get(via)
    if via_node is None or from_vertex not in via_node.wd or to_vertex not in via_node.ws:
        # Provenance points at a vertex we cannot expand through (can happen
        # after lossy simplification merged segments); fall back to the coarse hop.
        return [(from_vertex, to_vertex)], arrival
    first_leg = via_node.wd[from_vertex]
    second_leg = via_node.ws[to_vertex]
    left_edges, mid_time = expand_hop(tree, from_vertex, via, first_leg, departure, _depth + 1)
    right_edges, end_time = expand_hop(tree, via, to_vertex, second_leg, mid_time, _depth + 1)
    return left_edges + right_edges, end_time


# ----------------------------------------------------------------------
# Scalar (travel cost) queries
# ----------------------------------------------------------------------
def _ascending_costs(
    tree: TFPTreeDecomposition,
    source: int,
    departure: float,
    *,
    known: dict[int, float] | None = None,
    skip: set[int] | None = None,
    bound: float = _INF,
) -> tuple[dict[int, float], dict[int, tuple[int, PiecewiseLinearFunction]]]:
    """Costs from ``source`` to every vertex on its root path (Algorithm 3, lines 1-9).

    ``known`` seeds already-exact costs (from shortcuts, Algorithm 6 lines 4-6);
    vertices in ``skip`` keep their seeded value and are not relaxed further.
    Costs exceeding ``bound`` are treated as pruned (Algorithm 6 line 20).
    Returns the cost map and, for path recovery, the predecessor map
    ``vertex -> (previous chain vertex, bag function used)``.
    """
    costs: dict[int, float] = {source: 0.0}
    preds: dict[int, tuple[int, PiecewiseLinearFunction]] = {}
    if known:
        costs.update(known)
    skip = skip or set()

    for chain_vertex in tree.root_path(source):
        base = costs.get(chain_vertex, _INF)
        if not math.isfinite(base):
            continue
        node = tree.nodes[chain_vertex]
        depart_here = departure + base
        for upper, func in node.ws.items():
            if upper in skip:
                continue
            candidate = base + float(func.evaluate(depart_here))
            if candidate > bound:
                continue
            if candidate < costs.get(upper, _INF):
                costs[upper] = candidate
                preds[upper] = (chain_vertex, func)
    return costs, preds


def _descending_arrivals(
    tree: TFPTreeDecomposition,
    target: int,
    seed_arrivals: dict[int, float],
    *,
    bound_arrival: float = _INF,
) -> tuple[dict[int, float], dict[int, tuple[int, PiecewiseLinearFunction]]]:
    """Earliest arrivals at every vertex of ``target``'s root path, given arrivals at seeds.

    The seeds are (a superset of) the vertex cut with their earliest arrival
    times coming from the source side.  Processing the root path top-down is a
    topological relaxation of the descending hop DAG, which is exact for FIFO
    weights (see the correctness discussion in the module docstring of
    :mod:`repro.core.tree_decomposition`).
    """
    arrivals: dict[int, float] = dict(seed_arrivals)
    preds: dict[int, tuple[int, PiecewiseLinearFunction]] = {}
    chain = tree.root_path(target)
    for chain_vertex in reversed(chain):  # root first, target last
        node = tree.nodes[chain_vertex]
        best = arrivals.get(chain_vertex, _INF)
        best_pred: tuple[int, PiecewiseLinearFunction] | None = None
        for upper, func in node.wd.items():
            upper_arrival = arrivals.get(upper, _INF)
            if not math.isfinite(upper_arrival) or upper_arrival > bound_arrival:
                continue
            candidate = upper_arrival + float(func.evaluate(upper_arrival))
            if candidate < best:
                best = candidate
                best_pred = (upper, func)
        if best < arrivals.get(chain_vertex, _INF):
            arrivals[chain_vertex] = best
            if best_pred is not None:
                preds[chain_vertex] = best_pred
    return arrivals, preds


def _collect_hops(
    tree: TFPTreeDecomposition,
    source: int,
    target: int,
    departure: float,
    meeting_vertex: int,
    up_preds: dict[int, tuple[int, PiecewiseLinearFunction]],
    down_preds: dict[int, tuple[int, PiecewiseLinearFunction]],
) -> list[tuple[int, int, PiecewiseLinearFunction, float]]:
    """Reconstruct the tree-level hop sequence through ``meeting_vertex``."""
    # Source -> meeting vertex (walk the predecessor chain backwards).
    up_sequence: list[tuple[int, int, PiecewiseLinearFunction]] = []
    cursor = meeting_vertex
    while cursor != source:
        entry = up_preds.get(cursor)
        if entry is None:
            break
        prev, func = entry
        up_sequence.append((prev, cursor, func))
        cursor = prev
    up_sequence.reverse()

    hops: list[tuple[int, int, PiecewiseLinearFunction, float]] = []
    clock = departure
    for from_vertex, to_vertex, func in up_sequence:
        hops.append((from_vertex, to_vertex, func, clock))
        clock += float(func.evaluate(clock))

    # Meeting vertex -> target (walk the descending predecessor chain backwards
    # from the target).
    down_sequence: list[tuple[int, int, PiecewiseLinearFunction]] = []
    cursor = target
    while cursor != meeting_vertex:
        entry = down_preds.get(cursor)
        if entry is None:
            break
        prev, func = entry
        down_sequence.append((prev, cursor, func))
        cursor = prev
    down_sequence.reverse()
    for from_vertex, to_vertex, func in down_sequence:
        hops.append((from_vertex, to_vertex, func, clock))
        clock += float(func.evaluate(clock))
    return hops


def _meeting_chain(
    tree: TFPTreeDecomposition,
    source: int,
    target: int,
    *,
    lca: int | None = None,
) -> tuple[int, ...]:
    """All common ancestors of ``source`` and ``target`` (the LCA's root path).

    ``lca`` may be supplied by callers that already resolved it (e.g. as
    ``vertex_cut(source, target)[0]``) to skip the second LCA walk.

    Any shortest journey decomposes into an up-down path in the elimination
    hierarchy: working edges only connect a node to its tree ancestors, so the
    ascending prefix stays on ``source``'s root path, the descending suffix on
    ``target``'s, and the apex is a *common* ancestor — which may lie strictly
    above the LCA's bag.  The sweep-based query regimes therefore have to
    consider every common ancestor as a candidate meeting vertex; seeding only
    the vertex cut ``X(lca)`` (Property 1) misses journeys whose apex sits
    above the cut.  (The full-shortcut regime is exempt: its labels are exact
    shortest functions, for which crossing the cut is sufficient.)
    """
    return tree.root_path(tree.lca(source, target) if lca is None else lca)


def basic_cost_query(
    tree: TFPTreeDecomposition,
    source: int,
    target: int,
    departure: float,
    *,
    record_hops: bool = True,
) -> EarliestArrivalResult:
    """Algorithm 3 (scalar flavour): travel cost from ``source`` at ``departure``."""
    if source == target:
        return EarliestArrivalResult(source, target, departure, 0.0, None, "basic")
    _require_vertices(tree, source, target)

    meet = _meeting_chain(tree, source, target)
    up_costs, up_preds = _ascending_costs(tree, source, departure)
    seeds = {
        w: departure + up_costs[w]
        for w in meet
        if math.isfinite(up_costs.get(w, _INF))
    }
    if not seeds:
        raise DisconnectedQueryError(source, target)
    arrivals, down_preds = _descending_arrivals(tree, target, seeds)
    arrival = arrivals.get(target, _INF)
    if not math.isfinite(arrival):
        raise DisconnectedQueryError(source, target)
    cost = arrival - departure

    meeting = _best_meeting_vertex(meet, up_costs, arrivals, down_preds, target)
    hops: list[tuple[int, int, PiecewiseLinearFunction, float]] = []
    if record_hops:
        hops = _collect_hops(
            tree, source, target, departure, meeting, up_preds, down_preds
        )
    return EarliestArrivalResult(
        source, target, departure, cost, meeting, "basic", hops, tree
    )


def _best_meeting_vertex(
    meet: tuple[int, ...],
    up_costs: dict[int, float],
    arrivals: dict[int, float],
    down_preds: dict[int, tuple[int, PiecewiseLinearFunction]],
    target: int,
) -> int:
    """Identify the common ancestor where the optimal journey leaves the source side.

    The descending predecessor chain from the target terminates at the seed
    vertex whose source-side arrival started the winning chain — that seed
    (always a seeded common ancestor) is the meeting vertex.  Stopping at the
    *first* candidate encountered instead would be wrong: the chain may pass
    through several of them, and only the terminal one carries the source-side
    cost that the reported answer is built from.
    """
    cursor = target
    seen = set()
    while cursor in down_preds and cursor not in seen:
        seen.add(cursor)
        cursor = down_preds[cursor][0]
    if cursor in meet:
        return cursor
    finite = [w for w in meet if math.isfinite(up_costs.get(w, _INF))]
    return min(finite, key=lambda w: arrivals.get(w, _INF)) if finite else target


# ----------------------------------------------------------------------
# Profile (travel cost function) queries
# ----------------------------------------------------------------------
def _is_zero(func: PiecewiseLinearFunction) -> bool:
    return func.size == 1 and func.costs[0] == 0.0


def _ascending_profiles(
    tree: TFPTreeDecomposition,
    source: int,
    *,
    forward: bool,
    known: dict[int, PiecewiseLinearFunction] | None = None,
    skip: set[int] | None = None,
    prune_above: float = _INF,
    max_points: int | None = None,
) -> dict[int, PiecewiseLinearFunction]:
    """Profile variant of Algorithm 3, lines 1-9.

    When ``forward`` is true the result maps each root-path vertex ``u`` to the
    function *from* ``source`` *to* ``u`` (uses the ``Ws`` lists); otherwise to
    the function *from* ``u`` *to* ``source`` (uses the ``Wd`` lists), which is
    what the destination side of the query needs.
    ``prune_above`` discards labels whose minimum cost already exceeds the
    bound (Algorithm 6's NIL marking).
    """
    labels: dict[int, PiecewiseLinearFunction] = {
        source: PiecewiseLinearFunction.zero()
    }
    if known:
        labels.update(known)
    skip = skip or set()

    def shrink(func: PiecewiseLinearFunction) -> PiecewiseLinearFunction:
        if max_points is None:
            return func
        return simplify(func, max_points=max_points)

    for chain_vertex in tree.root_path(source):
        base = labels.get(chain_vertex)
        if base is None or base.min_cost > prune_above:
            continue
        node = tree.nodes[chain_vertex]
        bag_functions = node.ws if forward else node.wd
        for upper, func in bag_functions.items():
            if upper in skip:
                continue
            if _is_zero(base):
                candidate = func
            elif forward:
                candidate = compound(base, func)
            else:
                candidate = compound(func, base)
            candidate = shrink(candidate)
            if candidate.min_cost > prune_above:
                continue
            existing = labels.get(upper)
            if existing is None:
                labels[upper] = candidate
            else:
                labels[upper] = shrink(minimum_of([existing, candidate]))
    return labels


def basic_profile_query(
    tree: TFPTreeDecomposition,
    source: int,
    target: int,
    *,
    max_points: int | None = None,
) -> ProfileResult:
    """Algorithm 3 (profile flavour): the function ``f_{s,d}(t)``."""
    if source == target:
        return ProfileResult(source, target, PiecewiseLinearFunction.zero(), "basic")
    _require_vertices(tree, source, target)

    meet = _meeting_chain(tree, source, target)
    forward_labels = _ascending_profiles(
        tree, source, forward=True, max_points=max_points
    )
    backward_labels = _ascending_profiles(
        tree, target, forward=False, max_points=max_points
    )
    candidates = []
    for w in meet:
        to_w = forward_labels.get(w)
        from_w = backward_labels.get(w)
        if w == source:
            to_w = PiecewiseLinearFunction.zero()
        if w == target:
            from_w = PiecewiseLinearFunction.zero()
        if to_w is None or from_w is None:
            continue
        candidates.append(compound(to_w, from_w, via=w))
    if not candidates:
        raise DisconnectedQueryError(source, target)
    profile = minimum_of(candidates)
    if max_points is not None:
        profile = simplify(profile, max_points=max_points)
    return ProfileResult(source, target, profile, "basic")


# ----------------------------------------------------------------------
# Queries with selected shortcuts (Algorithm 6)
# ----------------------------------------------------------------------
def _forward_shortcut(store, source: int, w: int) -> PiecewiseLinearFunction | None:
    """Shortcut function ``source -> w`` if selected (``w`` ancestor of ``source``)."""
    if w == source:
        return PiecewiseLinearFunction.zero()
    pair = store.get((source, w))
    return pair.forward if pair is not None else None


def _backward_shortcut(store, target: int, w: int) -> PiecewiseLinearFunction | None:
    """Shortcut function ``w -> target`` if selected (``w`` ancestor of ``target``)."""
    if w == target:
        return PiecewiseLinearFunction.zero()
    pair = store.get((target, w))
    return pair.backward if pair is not None else None


def shortcut_cost_query(
    tree: TFPTreeDecomposition,
    shortcuts: dict[tuple[int, int], "object"],
    source: int,
    target: int,
    departure: float,
    *,
    record_hops: bool = False,
) -> EarliestArrivalResult:
    """Algorithm 6 (scalar flavour): travel cost query using selected shortcuts."""
    if source == target:
        return EarliestArrivalResult(source, target, departure, 0.0, None, "full_shortcuts")
    _require_vertices(tree, source, target)

    cut = tree.vertex_cut(source, target)
    forward_hits: dict[int, PiecewiseLinearFunction] = {}
    backward_hits: dict[int, PiecewiseLinearFunction] = {}
    for w in cut:
        fwd = _forward_shortcut(shortcuts, source, w)
        if fwd is not None:
            forward_hits[w] = fwd
        bwd = _backward_shortcut(shortcuts, target, w)
        if bwd is not None:
            backward_hits[w] = bwd

    # Case 1: every needed shortcut is selected -> O(w(T_G)) evaluations.
    if len(forward_hits) == len(cut) and len(backward_hits) == len(cut):
        best_cost = _INF
        best_w: int | None = None
        for w in cut:
            first = float(forward_hits[w].evaluate(departure))
            second = float(backward_hits[w].evaluate(departure + first))
            if first + second < best_cost:
                best_cost = first + second
                best_w = w
        if not math.isfinite(best_cost):
            raise DisconnectedQueryError(source, target)
        return EarliestArrivalResult(
            source, target, departure, best_cost, best_w, "full_shortcuts"
        )

    # Case 2/3: derive an upper bound from the shortcuts that are available and
    # run the (pruned) basic traversal.
    real_hits = any(w != source for w in forward_hits) or any(
        w != target for w in backward_hits
    )
    strategy = "partial_shortcuts" if real_hits else "basic"
    upper_bound = _INF
    common = set(forward_hits) & set(backward_hits)
    for w in common:
        first = float(forward_hits[w].evaluate(departure))
        second = float(backward_hits[w].evaluate(departure + first))
        upper_bound = min(upper_bound, first + second)

    known_costs = {
        w: float(func.evaluate(departure)) for w, func in forward_hits.items()
    }
    if record_hops:
        # Seeding cut vertices from shortcuts would leave the predecessor
        # chains incomplete (the shortcut hides the sub-path it represents),
        # so when the caller wants an expandable path only the pruning bound
        # is used and the full traversal records every hop.
        known_costs = {}
        skip_vertices: set[int] = set()
    else:
        skip_vertices = set(forward_hits)
    up_costs, up_preds = _ascending_costs(
        tree,
        source,
        departure,
        known=known_costs,
        skip=skip_vertices,
        bound=upper_bound,
    )
    meet = _meeting_chain(tree, source, target, lca=cut[0])
    seeds = {
        w: departure + up_costs[w]
        for w in meet
        if math.isfinite(up_costs.get(w, _INF))
    }
    if not seeds:
        raise DisconnectedQueryError(source, target)
    bound_arrival = departure + upper_bound if math.isfinite(upper_bound) else _INF
    arrivals, down_preds = _descending_arrivals(
        tree, target, seeds, bound_arrival=bound_arrival
    )
    arrival = arrivals.get(target, _INF)
    # The backward shortcuts give additional candidate answers.
    for w, func in backward_hits.items():
        w_cost = up_costs.get(w, _INF)
        if math.isfinite(w_cost):
            depart_w = departure + w_cost
            arrival = min(arrival, depart_w + float(func.evaluate(depart_w)))
    if not math.isfinite(arrival):
        raise DisconnectedQueryError(source, target)
    cost = arrival - departure
    meeting = _best_meeting_vertex(meet, up_costs, arrivals, down_preds, target)
    hops: list[tuple[int, int, PiecewiseLinearFunction, float]] = []
    if record_hops:
        hops = _collect_hops(
            tree, source, target, departure, meeting, up_preds, down_preds
        )
    return EarliestArrivalResult(
        source, target, departure, cost, meeting, strategy, hops, tree
    )


def shortcut_profile_query(
    tree: TFPTreeDecomposition,
    shortcuts: dict[tuple[int, int], "object"],
    source: int,
    target: int,
    *,
    max_points: int | None = None,
) -> ProfileResult:
    """Algorithm 6 (profile flavour): cost-function query using selected shortcuts."""
    if source == target:
        return ProfileResult(source, target, PiecewiseLinearFunction.zero(), "full_shortcuts")
    _require_vertices(tree, source, target)

    cut = tree.vertex_cut(source, target)
    forward_hits: dict[int, PiecewiseLinearFunction] = {}
    backward_hits: dict[int, PiecewiseLinearFunction] = {}
    for w in cut:
        fwd = _forward_shortcut(shortcuts, source, w)
        if fwd is not None:
            forward_hits[w] = fwd
        bwd = _backward_shortcut(shortcuts, target, w)
        if bwd is not None:
            backward_hits[w] = bwd

    if len(forward_hits) == len(cut) and len(backward_hits) == len(cut):
        candidates = [
            compound(forward_hits[w], backward_hits[w], via=w) for w in cut
        ]
        profile = minimum_of(candidates)
        if max_points is not None:
            profile = simplify(profile, max_points=max_points)
        return ProfileResult(source, target, profile, "full_shortcuts")

    real_hits = any(w != source for w in forward_hits) or any(
        w != target for w in backward_hits
    )
    strategy = "partial_shortcuts" if real_hits else "basic"
    prune = _INF
    common = set(forward_hits) & set(backward_hits)
    if common:
        bound_func = minimum_of(
            [compound(forward_hits[w], backward_hits[w], via=w) for w in common]
        )
        prune = bound_func.max_cost

    forward_labels = _ascending_profiles(
        tree,
        source,
        forward=True,
        known=dict(forward_hits),
        skip=set(forward_hits),
        prune_above=prune,
        max_points=max_points,
    )
    backward_labels = _ascending_profiles(
        tree,
        target,
        forward=False,
        known=dict(backward_hits),
        skip=set(backward_hits),
        prune_above=prune,
        max_points=max_points,
    )
    candidates = []
    for w in _meeting_chain(tree, source, target, lca=cut[0]):
        to_w = forward_labels.get(w)
        from_w = backward_labels.get(w)
        if w == source:
            to_w = PiecewiseLinearFunction.zero()
        if w == target:
            from_w = PiecewiseLinearFunction.zero()
        if to_w is None or from_w is None:
            continue
        candidates.append(compound(to_w, from_w, via=w))
    if not candidates:
        raise DisconnectedQueryError(source, target)
    profile = minimum_of(candidates)
    if max_points is not None:
        profile = simplify(profile, max_points=max_points)
    return ProfileResult(source, target, profile, strategy)


def _require_vertices(tree: TFPTreeDecomposition, source: int, target: int) -> None:
    tree.node(source)
    tree.node(target)


# ----------------------------------------------------------------------
# Batched scalar queries (vectorized engine)
# ----------------------------------------------------------------------
@dataclass
class BatchQueryResult:
    """Answer of a batched travel-cost query (aligned arrays, one row per query)."""

    sources: np.ndarray
    targets: np.ndarray
    departures: np.ndarray
    costs: np.ndarray
    #: "shortcuts" when the index's selected shortcuts were consulted,
    #: "basic" for the pure tree traversal.
    strategy: str

    @property
    def arrivals(self) -> np.ndarray:
        """Arrival times at the targets."""
        return self.departures + self.costs

    def __len__(self) -> int:
        return int(self.costs.size)


def _group_indices(keys: np.ndarray) -> dict:
    """Map each distinct key to the (ordered) query indices carrying it."""
    groups: dict = {}
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.nonzero(
        np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
    )[0]
    for i, start in enumerate(boundaries):
        end = boundaries[i + 1] if i + 1 < boundaries.size else sorted_keys.size
        groups[int(sorted_keys[start])] = order[start:end]
    return groups


def _pair_groups(
    sources: np.ndarray, targets: np.ndarray, queries: np.ndarray
) -> list[tuple[int, int, np.ndarray]]:
    """Group the given query indices by their (source, target) pair.

    Returns ``(source, target, positions)`` triples where ``positions`` index
    into ``queries`` (not the original arrays), in stable order.
    """
    pair_key = sources[queries] * (int(targets.max()) + 1) + targets[queries]
    return [
        (int(sources[queries[cols[0]]]), int(targets[queries[cols[0]]]), cols)
        for cols in _group_indices(pair_key).values()
    ]


#: Upper bound on memoised per-OD-pair shortcut lookups (see ``_pair_info``).
_PAIR_CACHE_MAX_ENTRIES = 65_536


def _sweep_plan_for(
    tree: TFPTreeDecomposition, endpoints: np.ndarray, kind: str
) -> tuple[dict[int, int], tuple]:
    """Row map and relaxation steps for one direction of the batched sweep.

    The plan covers the union of the endpoints' root paths, built per call.
    The union is ancestor-closed, so every relaxation a query's chain
    performs stays inside it, and the matrices stay O(union x queries).
    Rows are ordered by decreasing height; each step is ``(row, uppers,
    batch, upper_rows)`` for a node with a non-empty ``Ws`` (``kind="asc"``,
    deepest first) or ``Wd`` list (``kind="desc"``, root side first).
    """
    union: set[int] = set()
    for vertex in endpoints:
        union.update(tree.root_path(int(vertex)))
    ordered = sorted(union, key=lambda u: -tree.nodes[u].height)
    rows = {u: i for i, u in enumerate(ordered)}
    steps = []
    for u in ordered:
        node = tree.nodes[u]
        if kind == "asc":
            if not node.ws:
                continue
            batch, uppers = tree.ws_batch(u)
        else:
            if not node.wd:
                continue
            batch, uppers = tree.wd_batch(u)
        upper_rows = np.fromiter((rows[w] for w in uppers), np.int64, len(uppers))
        steps.append((rows[u], uppers, batch, upper_rows))
    if kind == "desc":
        steps.reverse()  # increasing height: root side relaxes first
    return rows, tuple(steps)


def _ascend_sweep(
    asc_steps: tuple,
    departures: np.ndarray,
    mat: np.ndarray,
    *,
    bound: np.ndarray | None = None,
    skip_cols: dict[int, np.ndarray] | None = None,
) -> None:
    """Batched Algorithm 3 lines 1-9 over a whole column batch.

    ``mat`` is a ``(rows, Q)`` cost matrix (rows in the plan's order)
    pre-seeded with zeros at each column's source row (and any known shortcut
    seeds).  Every plan node relaxes once, deepest first; for a given column
    only the nodes on its source's root path carry finite state, so off-chain
    relaxations are ``inf`` no-ops and the per-column result equals the
    scalar sweep bit for bit.  ``bound`` prunes per column; ``skip_cols[v]``
    lists columns that must not be relaxed *into* vertex ``v`` (their value
    is a seeded exact cost, Algorithm 6 lines 4-6).
    """
    for row, uppers, batch, upper_rows in asc_steps:
        base = mat[row]
        if not np.isfinite(base).any():
            continue
        candidates = base[None, :] + evaluate_grid(batch, departures + base)
        if bound is not None:
            candidates = np.where(candidates > bound[None, :], np.inf, candidates)
        if skip_cols:
            for i, upper in enumerate(uppers):
                cols = skip_cols.get(upper)
                if cols is not None:
                    candidates[i, cols] = np.inf
        mat[upper_rows] = np.minimum(mat[upper_rows], candidates)


def _descend_sweep(
    desc_steps: tuple,
    mat: np.ndarray,
    *,
    bound_arrival: np.ndarray | None = None,
) -> None:
    """Batched descending relaxation over a whole column batch.

    ``mat`` is a ``(rows, Q)`` arrival matrix pre-seeded with each column's
    common-ancestor arrivals (``inf`` = no seed).  Nodes relax root side
    first; a node reads only its ``Wd`` uppers (all ancestors), so for any
    column the values read along its target's root path are exactly the
    scalar sweep's — state leaking onto off-chain rows is never read for
    that column's answer.
    """
    for row, _uppers, batch, upper_rows in desc_steps:
        t_mat = mat[upper_rows]
        usable = np.isfinite(t_mat)
        if bound_arrival is not None:
            usable &= t_mat <= bound_arrival[None, :]
        if not usable.any():
            continue
        candidates = np.where(usable, t_mat + evaluate_many(batch, t_mat), np.inf)
        mat[row] = np.minimum(mat[row], candidates.min(axis=0))


def _plan_rows(row_of: dict[int, int], vertices: np.ndarray) -> np.ndarray:
    return np.fromiter((row_of[int(v)] for v in vertices), np.int64, vertices.size)


def _pair_info(
    tree: TFPTreeDecomposition,
    shortcuts: dict[tuple[int, int], "object"],
    source: int,
    target: int,
    cache: dict | None,
):
    """Resolve (and memoise) one OD pair's shortcut hits on its vertex cut.

    Returns ``(forward_hits, backward_hits, batches)``.  ``batches`` is the
    packed ``(forward, backward)`` :class:`PLFBatch` pair when *every* needed
    shortcut is selected (Algorithm 6 case 1) and ``None`` otherwise.  A pair
    whose only hits are the zero functions at its own endpoints gets empty
    hit maps: those hits seed and bound nothing the plain sweep does not.
    """
    cached = cache.get((source, target)) if cache is not None else None
    if cached is None:
        if cache is not None and len(cache) >= _PAIR_CACHE_MAX_ENTRIES:
            # Bound the per-pair memo: a long-running server touching ever
            # new OD pairs must not grow the index footprint without limit.
            cache.clear()
        cut = tree.vertex_cut(source, target)
        forward_hits: dict[int, PiecewiseLinearFunction] = {}
        backward_hits: dict[int, PiecewiseLinearFunction] = {}
        for w in cut:
            fwd = _forward_shortcut(shortcuts, source, w)
            if fwd is not None:
                forward_hits[w] = fwd
            bwd = _backward_shortcut(shortcuts, target, w)
            if bwd is not None:
                backward_hits[w] = bwd
        batches = None
        if len(forward_hits) == len(cut) and len(backward_hits) == len(cut):
            batches = (
                PLFBatch.from_functions([forward_hits[w] for w in cut]),
                PLFBatch.from_functions([backward_hits[w] for w in cut]),
            )
        elif set(forward_hits) <= {source} and set(backward_hits) <= {target}:
            forward_hits, backward_hits = {}, {}
        cached = (forward_hits, backward_hits, batches)
        if cache is not None:
            cache[(source, target)] = cached
    return cached


def _batch_costs_full(
    batches: tuple[PLFBatch, PLFBatch],
    source: int,
    target: int,
    departures: np.ndarray,
) -> np.ndarray:
    """Algorithm 6 case 1 for one pair: two kernel passes over the cut."""
    forward_batch, backward_batch = batches
    first = evaluate_grid(forward_batch, departures)
    second = evaluate_many(backward_batch, departures[None, :] + first)
    best = (first + second).min(axis=0)
    if not np.isfinite(best).all():
        raise DisconnectedQueryError(source, target)
    return best


def _batch_costs_sweep(
    tree: TFPTreeDecomposition,
    sources: np.ndarray,
    targets: np.ndarray,
    departures: np.ndarray,
    out: np.ndarray,
    queries: np.ndarray,
    hit_groups: list[tuple[np.ndarray, dict, dict]],
) -> None:
    """Batched Algorithms 3 and 6 (cases 2/3): fill ``out[queries]`` by two sweeps.

    Every column starts at its source with cost zero.  ``hit_groups`` lists
    the pair groups (query indices, forward hits, backward hits) that have
    selected shortcuts on their cut: their forward hits seed exact costs
    (skipped from further relaxation), their common hits bound the traversal
    per column, and their backward hits add candidate answers.  With no hit
    groups — a basic index — this is the plain Algorithm 3 traversal.

    The descent is seeded, for all columns at once, at every vertex on both
    plans: ``departure + up_cost``.  For one column that is exactly the
    scalar seeding on its target's root path (up costs are finite only on
    the source's root path, so the finite seeds there are the common
    ancestors), and seeds off that path are never read for its answer.
    """
    q = queries.size
    dep = departures[queries]
    cols_all = np.arange(q)
    query_sources = sources[queries]
    query_targets = targets[queries]
    row_up, asc_steps = _sweep_plan_for(tree, np.unique(query_sources), "asc")
    row_down, desc_steps = _sweep_plan_for(tree, np.unique(query_targets), "desc")

    mat_up = np.full((len(row_up), q), np.inf)
    mat_up[_plan_rows(row_up, query_sources), cols_all] = 0.0
    upper_bound = np.full(q, np.inf)
    skip_lists: dict[int, list[np.ndarray]] = {}
    column = np.empty(sources.size, dtype=np.int64)
    column[queries] = cols_all
    hit_groups = [(column[qidx], fwd, bwd) for qidx, fwd, bwd in hit_groups]
    for cols, forward_hits, backward_hits in hit_groups:
        dep_cols = dep[cols]
        forward_values: dict[int, np.ndarray] = {}
        for w, func in forward_hits.items():
            values = np.asarray(func.evaluate(dep_cols), dtype=np.float64)
            forward_values[w] = values
            mat_up[row_up[w], cols] = values
            skip_lists.setdefault(w, []).append(cols)
        for w in set(forward_hits) & set(backward_hits):
            first = forward_values[w]
            second = np.asarray(
                backward_hits[w].evaluate(dep_cols + first), dtype=np.float64
            )
            upper_bound[cols] = np.minimum(upper_bound[cols], first + second)
    bound = bound_arrival = None
    if np.isfinite(upper_bound).any():
        bound = upper_bound
        bound_arrival = np.where(np.isfinite(upper_bound), dep + upper_bound, np.inf)
    skip_cols = {w: np.concatenate(parts) for w, parts in skip_lists.items()}
    _ascend_sweep(asc_steps, dep, mat_up, bound=bound, skip_cols=skip_cols)

    shared = np.fromiter((w for w in row_down if w in row_up), np.int64)
    mat_down = np.full((len(row_down), q), np.inf)
    mat_down[_plan_rows(row_down, shared)] = (
        dep[None, :] + mat_up[_plan_rows(row_up, shared)]
    )
    _descend_sweep(desc_steps, mat_down, bound_arrival=bound_arrival)

    arrival = mat_down[_plan_rows(row_down, query_targets), cols_all]
    for cols, _fwd, backward_hits in hit_groups:
        # The backward shortcuts give additional candidate answers.
        for w, func in backward_hits.items():
            depart_w = dep[cols] + mat_up[row_up[w], cols]
            arrival[cols] = np.minimum(
                arrival[cols],
                depart_w + np.asarray(func.evaluate(depart_w), dtype=np.float64),
            )
    bad = ~np.isfinite(arrival)
    if bad.any():
        first = queries[np.nonzero(bad)[0][0]]
        raise DisconnectedQueryError(int(sources[first]), int(targets[first]))
    out[queries] = arrival - dep


def batch_cost_query(
    tree: TFPTreeDecomposition,
    sources,
    targets,
    departures,
    *,
    shortcuts: dict[tuple[int, int], "object"] | None = None,
    cache: dict | None = None,
) -> BatchQueryResult:
    """Answer many scalar travel-cost queries in one vectorized pass.

    Parameters
    ----------
    tree:
        The TFP tree decomposition.
    sources, targets, departures:
        Aligned arrays describing one query per row.
    shortcuts:
        Selected shortcut pairs (Algorithm 6).  ``None`` or empty runs the
        basic traversal (Algorithm 3) for every query.
    cache:
        Optional dict memoising per-pair shortcut lookups across calls (the
        index owns it and clears it when shortcuts change).

    Returns
    -------
    BatchQueryResult
        Costs aligned with the inputs, bit-identical to running the scalar
        query functions in a loop (same interpolation kernel, same relaxation
        order per query).  Disconnected queries raise
        :class:`~repro.exceptions.DisconnectedQueryError` just like the
        scalar functions do.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    departures = np.atleast_1d(np.asarray(departures, dtype=np.float64))
    if not (sources.size == targets.size == departures.size):
        raise ReproError(
            "batch_cost_query needs aligned sources/targets/departures arrays"
        )
    for vertex in np.unique(np.concatenate([sources, targets])):
        tree.node(int(vertex))

    costs = np.zeros(sources.size)
    swept = sources != targets
    pending = np.nonzero(swept)[0]
    hit_groups = []
    if shortcuts and pending.size:
        for source, target, local in _pair_groups(sources, targets, pending):
            qidx = pending[local]
            forward_hits, backward_hits, batches = _pair_info(
                tree, shortcuts, source, target, cache
            )
            if batches is not None:
                costs[qidx] = _batch_costs_full(
                    batches, source, target, departures[qidx]
                )
                swept[qidx] = False
            elif forward_hits or backward_hits:
                hit_groups.append((qidx, forward_hits, backward_hits))
    queries = np.nonzero(swept)[0]
    if queries.size:
        _batch_costs_sweep(
            tree, sources, targets, departures, costs, queries, hit_groups
        )
    strategy = "shortcuts" if shortcuts else "basic"
    return BatchQueryResult(sources, targets, departures, costs, strategy)
