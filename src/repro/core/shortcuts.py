"""Shortcuts over the tree decomposition (Definitions 6-7 and Fact 1).

A *shortcut pair instance* ``<i, j>`` connects a tree node ``X(v_i)`` with one
of its ancestors ``X(v_j)`` and consists of the two shortest travel-cost
functions ``s_<i,j>(t)`` (from ``v_i`` to ``v_j``) and ``s_<j,i>(t)`` (from
``v_j`` to ``v_i``).  Its

* **weight** is the number of interpolation points needed to store the pair
  (``|I_<i,j>| + |I_<j,i>|``) — this is what the memory budget ``N`` counts;
* **utility** estimates how much query work the pair saves:
  ``(height(X(i)) - height(X(j))) * w(T_G) * p_<i,j>`` where ``p_<i,j>`` is the
  fraction of vertices whose LCA with ``X(i)`` is exactly ``X(j)`` (those are
  the destinations for which this pair short-circuits the upward traversal).

The catalog is built **top-down** (Fact 1 / Lemma 6.11 of the H2H paper):
shortcuts of a node reuse the already computed shortcuts of the bag vertices,
so the whole candidate set costs ``O(n · h(T_G) · w(T_G))`` compound
operations instead of one profile search per node.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import IndexBuildError
from repro.functions.batch import PLFBatch, compound_many, minimum_many, simplify_many
from repro.functions.compound import compound, minimum_of
from repro.functions.piecewise import PiecewiseLinearFunction
from repro.functions.simplify import simplify
from repro.core.tree_decomposition import TFPTreeDecomposition

__all__ = [
    "ShortcutPair",
    "ShortcutCatalog",
    "build_shortcut_catalog",
    "pack_shortcut_pairs",
    "unpack_shortcut_pairs",
]


@dataclass
class ShortcutPair:
    """One candidate (or materialised) shortcut pair instance ``<lower, upper>``."""

    #: The descendant vertex ``v_i``.
    lower: int
    #: The ancestor vertex ``v_j``.
    upper: int
    #: ``s_<i,j>(t)``: shortest travel-cost function from ``lower`` to ``upper``.
    forward: PiecewiseLinearFunction | None
    #: ``s_<j,i>(t)``: shortest travel-cost function from ``upper`` to ``lower``.
    backward: PiecewiseLinearFunction | None
    #: Benefit estimate used by the selection problem (Definition 7).
    utility: float = 0.0

    @property
    def key(self) -> tuple[int, int]:
        """Dictionary key of the pair: ``(lower, upper)``."""
        return (self.lower, self.upper)

    @property
    def weight(self) -> int:
        """``|I_<i,j>| + |I_<j,i>|`` — interpolation points needed to store the pair."""
        forward_size = self.forward.size if self.forward is not None else 0
        backward_size = self.backward.size if self.backward is not None else 0
        return forward_size + backward_size

    @property
    def density(self) -> float:
        """Utility per stored interpolation point (Algorithm 5's second ordering)."""
        weight = self.weight
        return self.utility / weight if weight else 0.0


class ShortcutCatalog:
    """All candidate shortcut pairs of a tree decomposition.

    The catalog is the input of the selection problem (Definition 8); the
    selected subset is then materialised inside the index while the remaining
    candidates are dropped to honour the memory budget.
    """

    def __init__(self, pairs: dict[tuple[int, int], ShortcutPair]) -> None:
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs.values())

    def get(self, lower: int, upper: int) -> ShortcutPair | None:
        """Return the pair ``<lower, upper>`` if it exists."""
        return self.pairs.get((lower, upper))

    @property
    def total_weight(self) -> int:
        """Total interpolation points needed to materialise every candidate."""
        return sum(pair.weight for pair in self.pairs.values())

    @property
    def total_utility(self) -> float:
        """Sum of utilities over all candidates."""
        return sum(pair.utility for pair in self.pairs.values())

    def function_between(self, source: int, target: int) -> PiecewiseLinearFunction | None:
        """Travel-cost function between two chain-related vertices, if cached.

        Resolves the direction automatically: if ``source`` is the deeper
        vertex the pair's ``forward`` function is returned, otherwise the
        ``backward`` function of the opposite pair.
        """
        if source == target:
            return PiecewiseLinearFunction.zero()
        pair = self.pairs.get((source, target))
        if pair is not None:
            return pair.forward
        pair = self.pairs.get((target, source))
        if pair is not None:
            return pair.backward
        return None


def pack_shortcut_pairs(shortcuts: dict) -> dict[str, np.ndarray]:
    """Flatten shortcut pairs into snapshot buffers (``shortcut_*`` keys).

    Missing directions (``forward``/``backward`` set to ``None``) are encoded
    as presence masks; the present functions ride in two dense
    :class:`~repro.functions.batch.PLFBatch` layouts.
    """
    pairs = list(shortcuts.values())
    forward = [p.forward for p in pairs if p.forward is not None]
    backward = [p.backward for p in pairs if p.backward is not None]
    out = {
        "shortcut_lower": np.array([p.lower for p in pairs], dtype=np.int64),
        "shortcut_upper": np.array([p.upper for p in pairs], dtype=np.int64),
        "shortcut_utility": np.array([p.utility for p in pairs], dtype=np.float64),
        "shortcut_has_forward": np.array(
            [p.forward is not None for p in pairs], dtype=bool
        ),
        "shortcut_has_backward": np.array(
            [p.backward is not None for p in pairs], dtype=bool
        ),
    }
    out.update(PLFBatch.from_functions(forward).to_arrays("shortcut_fwd_plf_"))
    out.update(PLFBatch.from_functions(backward).to_arrays("shortcut_bwd_plf_"))
    return out


def unpack_shortcut_pairs(arrays) -> dict[tuple[int, int], ShortcutPair]:
    """Rebuild the selected-pair dictionary from :func:`pack_shortcut_pairs`."""
    from repro.exceptions import SnapshotError

    lowers = arrays["shortcut_lower"]
    uppers = arrays["shortcut_upper"]
    utilities = arrays["shortcut_utility"]
    has_forward = arrays["shortcut_has_forward"]
    has_backward = arrays["shortcut_has_backward"]
    forward_batch = PLFBatch.from_arrays(arrays, "shortcut_fwd_plf_")
    backward_batch = PLFBatch.from_arrays(arrays, "shortcut_bwd_plf_")
    if forward_batch.count != int(has_forward.sum()) or backward_batch.count != int(
        has_backward.sum()
    ):
        raise SnapshotError("shortcut function batches disagree with the presence masks")
    shortcuts: dict[tuple[int, int], ShortcutPair] = {}
    fwd_i = bwd_i = 0
    for i in range(lowers.size):
        forward = backward = None
        if has_forward[i]:
            forward = forward_batch.function(fwd_i)
            fwd_i += 1
        if has_backward[i]:
            backward = backward_batch.function(bwd_i)
            bwd_i += 1
        pair = ShortcutPair(
            lower=int(lowers[i]),
            upper=int(uppers[i]),
            forward=forward,
            backward=backward,
            utility=float(utilities[i]),
        )
        shortcuts[pair.key] = pair
    return shortcuts


def build_shortcut_catalog(
    tree: TFPTreeDecomposition,
    *,
    max_points: int | None = 32,
    tolerance: float = 0.0,
    compute_utilities: bool = True,
    use_batch_kernels: bool = True,
) -> ShortcutCatalog:
    """Compute every candidate shortcut pair, top-down (Fact 1).

    Parameters
    ----------
    tree:
        The TFP tree decomposition.
    max_points:
        Cap on the interpolation points of every shortcut function (``None``
        keeps them exact).
    tolerance:
        Tolerance of the lossless simplification pass.
    compute_utilities:
        Whether to also compute the utility values of Definition 7 (needed by
        the selection algorithms; can be skipped when building a full TD-H2H
        index).
    use_batch_kernels:
        Construct each tree level with the vectorized batch kernels
        (:mod:`repro.functions.batch`) instead of per-pair scalar operator
        calls.  The results are identical; the flag exists so the equivalence
        can be asserted in tests and the scalar path kept as a reference.
    """
    if use_batch_kernels:
        keys = [(v, upper) for v in tree.nodes for upper in tree.ancestors(v)]
        pairs = _build_pairs_batched(
            tree, keys, max_points=max_points, tolerance=tolerance
        )
    else:
        pairs = _build_pairs_scalar(tree, max_points=max_points, tolerance=tolerance)
    catalog = ShortcutCatalog(pairs)
    if compute_utilities:
        compute_catalog_utilities(tree, catalog)
    return catalog


def _known_function_lookup(pairs: dict[tuple[int, int], ShortcutPair]):
    """Shortcut (or trivial) function between two already-processed chain vertices."""

    def known_function(source: int, target: int) -> PiecewiseLinearFunction | None:
        if source == target:
            return PiecewiseLinearFunction.zero()
        pair = pairs.get((source, target))
        if pair is not None:
            return pair.forward
        pair = pairs.get((target, source))
        if pair is not None:
            return pair.backward
        return None

    return known_function


def _build_pairs_scalar(
    tree: TFPTreeDecomposition, *, max_points: int | None, tolerance: float
) -> dict[tuple[int, int], ShortcutPair]:
    """Reference implementation: one scalar operator call per candidate."""
    pairs: dict[tuple[int, int], ShortcutPair] = {}

    def cap(func: PiecewiseLinearFunction) -> PiecewiseLinearFunction:
        # Collinear breakpoints are always removed (value-preserving), even in
        # "exact" mode; the hard cap only applies when ``max_points`` is set.
        return simplify(func, max_points=max_points, tolerance=tolerance)

    known_function = _known_function_lookup(pairs)

    # Process nodes from the root downwards so that shortcuts of every bag
    # vertex (all of which are ancestors) are available when a node is reached.
    ordered = sorted(tree.nodes, key=lambda v: tree.nodes[v].height)
    for vertex in ordered:
        node = tree.nodes[vertex]
        ancestors = tree.ancestors(vertex)
        if not ancestors:
            continue
        for upper in ancestors:
            forward = _combine_forward(node, upper, known_function, cap)
            backward = _combine_backward(node, upper, known_function, cap)
            if forward is None and backward is None:
                continue
            pairs[(vertex, upper)] = ShortcutPair(vertex, upper, forward, backward)
    return pairs


def _dependency_closure(
    tree: TFPTreeDecomposition, keys: Iterable[tuple[int, int]]
) -> set[tuple[int, int]]:
    """``keys`` plus every pair their Fact 1 construction reads, transitively.

    By Fact 1, ``<i, j>`` combines the bag functions of ``X(i)`` with, for
    each ``v`` in ``bag(i)`` other than ``j``, the pair between ``v`` and
    ``j``.  Both lie on ``i``'s root path, so that pair is keyed
    ``(deeper, shallower)`` and its lower is shallower than ``i``.
    """
    nodes = tree.nodes
    closed = set(keys)
    stack = list(closed)
    while stack:
        lower, upper = stack.pop()
        upper_height = nodes[upper].height
        for v in nodes[lower].bag:
            if v == upper:
                continue
            dependency = (v, upper) if nodes[v].height > upper_height else (upper, v)
            if dependency not in closed:
                closed.add(dependency)
                stack.append(dependency)
    return closed


def _build_pairs_batched(
    tree: TFPTreeDecomposition,
    keys: Iterable[tuple[int, int]],
    *,
    max_points: int | None,
    tolerance: float,
) -> dict[tuple[int, int], ShortcutPair]:
    """Level-batched construction of the pairs ``<lower, upper>`` in ``keys``.

    Nodes at the same height are never ancestors of each other, so all their
    candidate ``Compound`` calls are independent once the shortcuts of the
    shallower levels exist.  Each level (the keys grouped by the height of
    their lower) therefore becomes one :func:`compound_many` call, a
    left-fold of :func:`minimum_many` calls (preserving the scalar
    ``minimum_of`` association order) and one :func:`simplify_many` pass —
    amortising the per-function Python dispatch that dominates the scalar
    construction.

    ``keys`` must be closed under :func:`_dependency_closure`: a pair combines
    other pairs, which are looked up only among the pairs this same pass
    builds.  The full catalog passes every ``(vertex, ancestor)`` key;
    incremental repair passes the closure of the selected pairs it
    refreshes.  The kernels work row by row, so a pair comes out the same
    whichever other pairs share its level.
    """
    pairs: dict[tuple[int, int], ShortcutPair] = {}
    known_function = _known_function_lookup(pairs)

    levels: dict[int, list[tuple[int, int]]] = {}
    for key in keys:
        levels.setdefault(tree.nodes[key[0]].height, []).append(key)

    for height in sorted(levels):
        # Candidate descriptors per (vertex, upper, direction) group, in the
        # scalar iteration order.  A descriptor is either a direct bag
        # function or a pending compound, referenced by pool row index.
        direct_funcs: list[PiecewiseLinearFunction] = []
        comp_first: list[PiecewiseLinearFunction] = []
        comp_second: list[PiecewiseLinearFunction] = []
        comp_via: list[int] = []
        groups: list[list[tuple[bool, int]]] = []  # (is_compound, local index)
        tasks: list[tuple[int, int, int | None, int | None]] = []

        for vertex, upper in levels[height]:
            node = tree.nodes[vertex]
            group_ids: list[int | None] = []
            for forward in (True, False):
                bag_functions = node.ws if forward else node.wd
                refs: list[tuple[bool, int]] = []
                for bag_vertex, leg in bag_functions.items():
                    if bag_vertex == upper:
                        refs.append((False, len(direct_funcs)))
                        direct_funcs.append(leg)
                        continue
                    if forward:
                        other = known_function(bag_vertex, upper)
                        legs = (leg, other)
                    else:
                        other = known_function(upper, bag_vertex)
                        legs = (other, leg)
                    if other is None:
                        continue
                    refs.append((True, len(comp_first)))
                    comp_first.append(legs[0])
                    comp_second.append(legs[1])
                    comp_via.append(bag_vertex)
                if refs:
                    group_ids.append(len(groups))
                    groups.append(refs)
                else:
                    group_ids.append(None)
            if group_ids[0] is None and group_ids[1] is None:
                continue
            tasks.append((vertex, upper, group_ids[0], group_ids[1]))

        if not tasks:
            continue

        # One kernel call covers every candidate compound of the level.
        direct_batch = PLFBatch.from_functions(direct_funcs)
        if comp_first:
            comp_batch = compound_many(
                PLFBatch.from_functions(comp_first),
                PLFBatch.from_functions(comp_second),
                via=np.asarray(comp_via, dtype=np.int64),
            )
        else:
            comp_batch = PLFBatch.from_functions([])
        # Pool rows: direct candidates first, compound results after.
        n_direct = direct_batch.count
        pool = PLFBatch.stitch(
            [
                (np.arange(n_direct), direct_batch),
                (n_direct + np.arange(comp_batch.count), comp_batch),
            ],
            n_direct + comp_batch.count,
        )
        pool_row = lambda ref: (n_direct + ref[1]) if ref[0] else ref[1]

        # Left-fold minimum over each group, preserving the scalar
        # ``minimum_of`` association order.
        acc = pool.take(np.array([pool_row(g[0]) for g in groups], dtype=np.int64))
        max_len = max(len(g) for g in groups)
        for k in range(1, max_len):
            sel = np.array(
                [i for i, g in enumerate(groups) if len(g) > k], dtype=np.int64
            )
            merged = minimum_many(
                acc.take(sel),
                pool.take(np.array([pool_row(groups[i][k]) for i in sel], dtype=np.int64)),
            )
            rest = np.setdiff1d(np.arange(acc.count), sel, assume_unique=True)
            acc = PLFBatch.stitch(
                [(sel, merged), (rest, acc.take(rest))], acc.count
            )
        capped = simplify_many(acc, max_points=max_points, tolerance=tolerance)

        for vertex, upper, fwd_group, bwd_group in tasks:
            forward = capped.function(fwd_group) if fwd_group is not None else None
            backward = capped.function(bwd_group) if bwd_group is not None else None
            pairs[(vertex, upper)] = ShortcutPair(vertex, upper, forward, backward)
    return pairs


def _combine_forward(node, upper, known_function, cap) -> PiecewiseLinearFunction | None:
    """``s_<i,j>(t) = min_{v in X(i)\\{i}} Compound(X(i).Ws_v, s_<v,j>(t))``."""
    candidates = []
    for bag_vertex, first_leg in node.ws.items():
        if bag_vertex == upper:
            candidates.append(first_leg)
            continue
        second_leg = known_function(bag_vertex, upper)
        if second_leg is None:
            continue
        candidates.append(compound(first_leg, second_leg, via=bag_vertex))
    if not candidates:
        return None
    return cap(minimum_of(candidates))


def _combine_backward(node, upper, known_function, cap) -> PiecewiseLinearFunction | None:
    """``s_<j,i>(t) = min_{v in X(i)\\{i}} Compound(s_<j,v>(t), X(i).Wd_v)``."""
    candidates = []
    for bag_vertex, second_leg in node.wd.items():
        if bag_vertex == upper:
            candidates.append(second_leg)
            continue
        first_leg = known_function(upper, bag_vertex)
        if first_leg is None:
            continue
        candidates.append(compound(first_leg, second_leg, via=bag_vertex))
    if not candidates:
        return None
    return cap(minimum_of(candidates))


def compute_catalog_utilities(
    tree: TFPTreeDecomposition, catalog: ShortcutCatalog
) -> None:
    """Fill in the utility value of every pair (Definition 7).

    ``p_<i,j>`` — the probability that the pair helps a uniformly random query
    from ``v_i`` — is the fraction of vertices ``k`` whose LCA with ``X(i)`` is
    exactly ``X(j)``.  With subtree sizes available this is
    ``(|subtree(j)| - |subtree(child of j towards i)|) / |V|``.

    All pairs of a node share its root path, so the catalog is processed
    grouped by ``lower``: one pass over the path precomputes every
    child-towards link, replacing the O(h) parent-chain walk the naive
    per-pair ``child_towards`` lookup would pay for each of the O(h)
    ancestors.
    """
    total_vertices = tree.num_nodes
    width = tree.treewidth
    by_lower: dict[int, list[ShortcutPair]] = {}
    for pair in catalog:
        by_lower.setdefault(pair.lower, []).append(pair)
    for lower, pairs in by_lower.items():
        height_lower = tree.height(lower)
        path = tree.root_path(lower)
        child_towards = {path[k + 1]: path[k] for k in range(len(path) - 1)}
        for pair in pairs:
            upper = pair.upper
            height_gap = height_lower - tree.height(upper)
            child = child_towards.get(upper)
            if height_gap < 0 or child is None:
                raise IndexBuildError(
                    f"shortcut pair <{lower}, {upper}> does not point at an ancestor"
                )
            coverage = tree.subtree_size(upper) - tree.subtree_size(child)
            probability = coverage / total_vertices
            pair.utility = float(height_gap * width * probability)
