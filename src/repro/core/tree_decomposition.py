"""Travel-Function-Preserved (TFP) tree decomposition (Algorithms 1 and 2).

The decomposition eliminates vertices in minimum-degree order.  Eliminating a
vertex ``v`` (the *reduction operator* ``G ⊖ v``, Algorithm 1) connects every
pair of its remaining neighbours with a reduced edge whose weight function is
the ``Compound`` of the two incident functions (or the ``minimum`` with an
already existing edge), so the reduced graph is a TFP-graph of the original:
shortest travel-cost functions between the remaining vertices are preserved.

Each eliminated vertex becomes a tree node ``X(v)`` that stores

* its *bag* — the neighbours it had at elimination time (all of which are
  ancestors of ``X(v)`` in the final tree, Property 2),
* ``Ws`` — the working weight functions from ``v`` to each bag vertex, and
* ``Wd`` — the working weight functions from each bag vertex to ``v``.

The tree is assembled by parenting ``X(v)`` to the bag vertex with the
smallest elimination order (Algorithm 2, lines 10-13).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from repro.exceptions import (
    DisconnectedQueryError,
    GraphError,
    ReproError,
    VertexNotFoundError,
)
from repro.core.elimination import eliminate_batched, eliminate_scalar
from repro.functions.batch import PLFBatch
from repro.functions.piecewise import PiecewiseLinearFunction
from repro.graph.td_graph import TDGraph
from repro.utils.lca import LCAIndex

__all__ = ["TreeNode", "TFPTreeDecomposition", "decompose"]


@dataclass
class TreeNode:
    """One node ``X(v)`` of the TFP tree decomposition.

    Attributes
    ----------
    vertex:
        The vertex ``v`` this node was created for (one node per vertex).
    bag:
        ``X(v) \\ {v}`` — the neighbours of ``v`` at elimination time, sorted by
        elimination order (all are ancestors of this node, Property 2).
    ws:
        ``X(v).Ws``: weight function from ``v`` to each bag vertex.
    wd:
        ``X(v).Wd``: weight function from each bag vertex to ``v``.
    parent:
        Vertex of the parent tree node (``None`` for a root).
    children:
        Vertices of the child tree nodes.
    order:
        Elimination order ``π(v)`` (0-based; smaller = eliminated earlier).
    height:
        Distance from the root plus one (the root has height 1, as in the
        paper's Example 3.2).
    """

    vertex: int
    bag: tuple[int, ...]
    ws: dict[int, PiecewiseLinearFunction]
    wd: dict[int, PiecewiseLinearFunction]
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    order: int = 0
    height: int = 0

    @property
    def bag_size(self) -> int:
        """``|X(v)|`` — bag vertices plus ``v`` itself."""
        return len(self.bag) + 1


class TFPTreeDecomposition:
    """The tree decomposition of a time-dependent graph, with cost metadata.

    Use :func:`decompose` (or :meth:`TFPTreeDecomposition.build`) to construct
    one; the constructor only wires the pieces together.
    """

    def __init__(self, nodes: dict[int, TreeNode], roots: list[int]) -> None:
        if not nodes:
            raise GraphError("cannot build a tree decomposition of an empty graph")
        self.nodes = nodes
        self.roots = roots
        self._lca = LCAIndex({v: node.parent for v, node in nodes.items()})
        self._compute_heights()
        self._subtree_sizes = self._compute_subtree_sizes()
        self._ancestor_cache: dict[int, tuple[int, ...]] = {}
        #: Per-node packed label batches used by the batched query engine
        #: (built lazily, invalidated when the update machinery rewrites labels).
        self._ws_batch_cache: dict[int, tuple[PLFBatch, tuple[int, ...]]] = {}
        self._wd_batch_cache: dict[int, tuple[PLFBatch, tuple[int, ...]]] = {}
        #: Per-ordered-pair contributor table used by the update machinery
        #: (structure-only, so weight updates never stale it; built lazily).
        self._pair_contributors_cache: dict[tuple[int, int], list[int]] | None = None
        #: Counters/timings of the elimination engine that built this tree
        #: (``None`` for trees assembled from snapshots or by hand).
        self.elimination_stats = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: TDGraph,
        *,
        max_points: int | None = 32,
        tolerance: float = 0.0,
        use_batch_kernels: bool = True,
    ) -> "TFPTreeDecomposition":
        """Run the TFP tree decomposition (Algorithm 2) on ``graph``."""
        return decompose(
            graph,
            max_points=max_points,
            tolerance=tolerance,
            use_batch_kernels=use_batch_kernels,
        )

    def _compute_heights(self) -> None:
        for root in self.roots:
            stack = [(root, 1)]
            while stack:
                vertex, height = stack.pop()
                node = self.nodes[vertex]
                node.height = height
                for child in node.children:
                    stack.append((child, height + 1))

    def _compute_subtree_sizes(self) -> dict[int, int]:
        sizes = {v: 1 for v in self.nodes}
        # Accumulate bottom-up: children have larger height than parents, so a
        # single pass over vertices sorted by decreasing height suffices.
        for vertex in sorted(self.nodes, key=lambda v: -self.nodes[v].height):
            parent = self.nodes[vertex].parent
            if parent is not None:
                sizes[parent] += sizes[vertex]
        return sizes

    def clone(self) -> "TFPTreeDecomposition":
        """A copy whose label dicts and caches can be repaired independently.

        Each node is a new :class:`TreeNode` with its own ``ws``/``wd``
        dicts; the label functions, bags, children, the LCA index, subtree
        sizes and the contributor table are shared, because the update
        machinery only ever stores new function objects into the dicts.
        Serving threads fill the label-batch and ancestor caches
        concurrently, so they are copied with ``dict(...)`` (one call under
        the GIL) and never iterated here.
        """
        clone = copy.copy(self)
        clone.nodes = {
            vertex: replace(node, ws=dict(node.ws), wd=dict(node.wd))
            for vertex, node in self.nodes.items()
        }
        clone._ancestor_cache = dict(self._ancestor_cache)
        clone._ws_batch_cache = dict(self._ws_batch_cache)
        clone._wd_batch_cache = dict(self._wd_batch_cache)
        return clone

    # ------------------------------------------------------------------
    # Tree statistics (Definition 4)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of tree nodes (= number of graph vertices)."""
        return len(self.nodes)

    @property
    def treewidth(self) -> int:
        """``w(T_G)``: the maximum bag size minus one."""
        return max(node.bag_size for node in self.nodes.values()) - 1

    @property
    def treeheight(self) -> int:
        """``h(T_G)``: the maximum node height (root has height 1)."""
        return max(node.height for node in self.nodes.values())

    def height(self, vertex: int) -> int:
        """Height of the tree node of ``vertex``."""
        return self._node(vertex).height

    def subtree_size(self, vertex: int) -> int:
        """Number of tree nodes in the subtree rooted at ``X(vertex)``."""
        return self._subtree_sizes[vertex]

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def _node(self, vertex: int) -> TreeNode:
        try:
            return self.nodes[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def node(self, vertex: int) -> TreeNode:
        """Return the tree node ``X(vertex)``."""
        return self._node(vertex)

    def parent(self, vertex: int) -> int | None:
        """Vertex of the parent node of ``X(vertex)``."""
        return self._node(vertex).parent

    def ancestors(self, vertex: int) -> tuple[int, ...]:
        """``Anc(X(v))``: ancestor vertices ordered by increasing height (root first)."""
        cached = self._ancestor_cache.get(vertex)
        if cached is not None:
            return cached
        chain: list[int] = []
        current = self._node(vertex).parent
        while current is not None:
            chain.append(current)
            current = self.nodes[current].parent
        result = tuple(reversed(chain))
        self._ancestor_cache[vertex] = result
        return result

    def root_path(self, vertex: int) -> tuple[int, ...]:
        """``vertex`` followed by its ancestors from deepest to the root."""
        return (vertex,) + tuple(reversed(self.ancestors(vertex)))

    def lca(self, first: int, second: int) -> int:
        """Vertex of the lowest common ancestor node of ``X(first)`` and ``X(second)``.

        Raises :class:`~repro.exceptions.DisconnectedQueryError` when the two
        vertices live in different trees of the decomposition forest (which
        happens exactly when the underlying graph is disconnected).
        """
        if first == second:
            return first
        try:
            return self._lca.lca(first, second)
        except ReproError as exc:
            raise DisconnectedQueryError(first, second) from exc

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """Whether ``X(ancestor)`` is an ancestor of (or equal to) ``X(descendant)``."""
        if ancestor == descendant:
            return True
        return self._lca.is_ancestor(ancestor, descendant)

    def vertex_cut(self, source: int, target: int) -> tuple[int, ...]:
        """The vertex cut between ``source`` and ``target`` (Property 1).

        This is the bag of the LCA node plus the LCA vertex itself.  The LCA
        vertex is always the **first** element — callers that also need the
        common-ancestor chain derive it from ``cut[0]`` without a second LCA
        resolution.
        """
        lca_vertex = self.lca(source, target)
        node = self.nodes[lca_vertex]
        cut = [lca_vertex, *node.bag]
        return tuple(dict.fromkeys(cut))

    def child_towards(self, ancestor: int, descendant: int) -> int:
        """The child of ``X(ancestor)`` lying on the path to ``X(descendant)``."""
        if ancestor == descendant:
            raise GraphError("descendant must differ from ancestor")
        current = descendant
        while True:
            parent = self.nodes[current].parent
            if parent is None:
                raise GraphError(
                    f"{ancestor} is not an ancestor of {descendant}"
                )
            if parent == ancestor:
                return current
            current = parent

    # ------------------------------------------------------------------
    # Packed label batches (batched query engine)
    # ------------------------------------------------------------------
    def ws_batch(self, vertex: int) -> tuple[PLFBatch, tuple[int, ...]]:
        """``X(vertex).Ws`` packed as one :class:`PLFBatch` plus the bag order.

        The batch row ``i`` is the weight function towards ``uppers[i]``; the
        order matches ``node.ws`` iteration order.  Cached per node so a batch
        of queries pays the packing cost once.
        """
        cached = self._ws_batch_cache.get(vertex)
        if cached is None:
            node = self._node(vertex)
            cached = (
                PLFBatch.from_functions(node.ws.values()),
                tuple(node.ws.keys()),
            )
            self._ws_batch_cache[vertex] = cached
        return cached

    def wd_batch(self, vertex: int) -> tuple[PLFBatch, tuple[int, ...]]:
        """``X(vertex).Wd`` packed as one :class:`PLFBatch` plus the bag order."""
        cached = self._wd_batch_cache.get(vertex)
        if cached is None:
            node = self._node(vertex)
            cached = (
                PLFBatch.from_functions(node.wd.values()),
                tuple(node.wd.keys()),
            )
            self._wd_batch_cache[vertex] = cached
        return cached

    def invalidate_label_batches(self, vertices=None) -> None:
        """Drop cached label batches after ``ws``/``wd`` were rewritten.

        ``vertices=None`` clears everything; otherwise only the given tree
        nodes are invalidated (the update machinery passes the set it repaired).
        Batched query sweeps build their plans per call from these batches,
        so dropping the batches is all a label rewrite needs.
        """
        if vertices is None:
            self._ws_batch_cache.clear()
            self._wd_batch_cache.clear()
            # A full invalidation signals "anything may have changed" — drop
            # the structural caches too.  Per-vertex invalidation (the update
            # machinery rewriting label *values*) keeps them: bags are
            # immutable under weight updates.
            self._pair_contributors_cache = None
            return
        for vertex in vertices:
            self._ws_batch_cache.pop(vertex, None)
            self._wd_batch_cache.pop(vertex, None)

    def pair_contributors(self) -> dict[tuple[int, int], list[int]]:
        """Map each ordered vertex pair to the vertices whose elimination wrote to it.

        A vertex ``z`` contributes to the working edge ``(x, y)`` exactly when
        both ``x`` and ``y`` are in its bag (they were neighbours of ``z`` when
        it was eliminated, so the reduction operator updated the edge between
        them).  The table depends only on the bags — pure structure — so it is
        cached across update calls; only a full
        :meth:`invalidate_label_batches` drops it.
        """
        cached = self._pair_contributors_cache
        if cached is None:
            cached = {}
            for vertex, node in self.nodes.items():
                for a in node.bag:
                    for b in node.bag:
                        if a == b:
                            continue
                        cached.setdefault((a, b), []).append(vertex)
            self._pair_contributors_cache = cached
        return cached

    # ------------------------------------------------------------------
    # Flat-array export / import (snapshot format)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Export the decomposition as flat numpy buffers (``tree_*`` keys).

        Nodes are emitted in elimination order — the same order
        :func:`decompose` inserts them — so :meth:`from_arrays` reproduces
        the original dictionary iteration order everywhere it matters
        (children lists and label batches).  Bags and the per-node
        ``Ws``/``Wd`` label lists are ragged arrays; the label functions
        themselves ride in two :class:`~repro.functions.batch.PLFBatch`
        layouts (``tree_ws_plf_*`` / ``tree_wd_plf_*``).
        """
        ordered = sorted(self.nodes.values(), key=lambda node: node.order)
        bag_flat: list[int] = []
        bag_offsets = [0]
        ws_keys: list[int] = []
        ws_offsets = [0]
        wd_keys: list[int] = []
        wd_offsets = [0]
        ws_funcs: list[PiecewiseLinearFunction] = []
        wd_funcs: list[PiecewiseLinearFunction] = []
        for node in ordered:
            bag_flat.extend(node.bag)
            bag_offsets.append(len(bag_flat))
            ws_keys.extend(node.ws)
            ws_funcs.extend(node.ws.values())
            ws_offsets.append(len(ws_keys))
            wd_keys.extend(node.wd)
            wd_funcs.extend(node.wd.values())
            wd_offsets.append(len(wd_keys))
        out = {
            "tree_vertex": np.array([n.vertex for n in ordered], dtype=np.int64),
            "tree_parent": np.array(
                [-1 if n.parent is None else n.parent for n in ordered],
                dtype=np.int64,
            ),
            "tree_order": np.array([n.order for n in ordered], dtype=np.int64),
            "tree_bag_flat": np.array(bag_flat, dtype=np.int64),
            "tree_bag_offsets": np.array(bag_offsets, dtype=np.int64),
            "tree_ws_key_flat": np.array(ws_keys, dtype=np.int64),
            "tree_ws_key_offsets": np.array(ws_offsets, dtype=np.int64),
            "tree_wd_key_flat": np.array(wd_keys, dtype=np.int64),
            "tree_wd_key_offsets": np.array(wd_offsets, dtype=np.int64),
        }
        out.update(PLFBatch.from_functions(ws_funcs).to_arrays("tree_ws_plf_"))
        out.update(PLFBatch.from_functions(wd_funcs).to_arrays("tree_wd_plf_"))
        return out

    @classmethod
    def from_arrays(cls, arrays) -> "TFPTreeDecomposition":
        """Rebuild a decomposition from :meth:`to_arrays` buffers.

        Raises :class:`~repro.exceptions.SnapshotError` when the ragged
        layouts disagree with each other (truncated or mixed-up buffers).
        """
        from repro.exceptions import SnapshotError

        vertices = arrays["tree_vertex"]
        parents = arrays["tree_parent"]
        orders = arrays["tree_order"]
        bag_flat = arrays["tree_bag_flat"]
        bag_offsets = arrays["tree_bag_offsets"]
        num_nodes = int(vertices.size)
        if bag_offsets.size != num_nodes + 1:
            raise SnapshotError("tree bag offsets disagree with the node count")
        ws_labels = _labels_from_arrays(
            arrays, "tree_ws_key_flat", "tree_ws_key_offsets", "tree_ws_plf_", num_nodes
        )
        wd_labels = _labels_from_arrays(
            arrays, "tree_wd_key_flat", "tree_wd_key_offsets", "tree_wd_plf_", num_nodes
        )

        nodes: dict[int, TreeNode] = {}
        roots: list[int] = []
        for i in range(num_nodes):
            vertex = int(vertices[i])
            parent = int(parents[i])
            bag = tuple(
                int(b)
                for b in bag_flat[int(bag_offsets[i]) : int(bag_offsets[i + 1])]
            )
            nodes[vertex] = TreeNode(
                vertex=vertex,
                bag=bag,
                ws=ws_labels[i],
                wd=wd_labels[i],
                parent=None if parent < 0 else parent,
                order=int(orders[i]),
            )
            if parent < 0:
                roots.append(vertex)
        for vertex, node in nodes.items():
            if node.parent is not None:
                if node.parent not in nodes:
                    raise SnapshotError(
                        f"tree node {vertex} references missing parent {node.parent}"
                    )
                nodes[node.parent].children.append(vertex)
        if not roots:
            raise SnapshotError("snapshot tree has no root node")
        return cls(nodes, roots)

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def label_point_count(self) -> int:
        """Total interpolation points stored in all ``Ws``/``Wd`` lists."""
        total = 0
        for node in self.nodes.values():
            total += sum(f.size for f in node.ws.values())
            total += sum(f.size for f in node.wd.values())
        return total

    def label_function_count(self) -> int:
        """Total number of ``Ws``/``Wd`` functions stored."""
        return sum(len(node.ws) + len(node.wd) for node in self.nodes.values())


def _labels_from_arrays(
    arrays, keys_name: str, offsets_name: str, plf_prefix: str, num_nodes: int
) -> list[dict[int, PiecewiseLinearFunction]]:
    """Rebuild per-node ``{bag vertex: function}`` dicts from the flat layout."""
    from repro.exceptions import SnapshotError

    keys = arrays[keys_name]
    offsets = arrays[offsets_name]
    batch = PLFBatch.from_arrays(arrays, plf_prefix)
    if offsets.size != num_nodes + 1 or batch.count != keys.size:
        raise SnapshotError(f"label arrays {plf_prefix}* disagree with their key layout")
    labels: list[dict[int, PiecewiseLinearFunction]] = []
    for i in range(num_nodes):
        start, end = int(offsets[i]), int(offsets[i + 1])
        labels.append({int(keys[j]): batch.function(j) for j in range(start, end)})
    return labels


def decompose(
    graph: TDGraph,
    *,
    max_points: int | None = 32,
    tolerance: float = 0.0,
    use_batch_kernels: bool = True,
) -> TFPTreeDecomposition:
    """Algorithm 2: TFP tree decomposition by minimum-degree elimination.

    Parameters
    ----------
    graph:
        The time-dependent road network.  It is not modified; the elimination
        works on lightweight adjacency copies.
    max_points:
        Cap on the number of interpolation points of every reduced weight
        function (``None`` disables the cap and keeps the decomposition exact).
    tolerance:
        Vertical tolerance for the lossless part of the simplification.
    use_batch_kernels:
        Run the elimination through the round-batched engine
        (:func:`repro.core.elimination.eliminate_batched`): each round of
        minimum-degree vertices with pairwise-disjoint closed neighbourhoods
        executes its fill-edge work as a handful of vectorized kernel passes
        instead of one scalar operator call per fill.  The resulting tree is
        **bit-identical** to the scalar reference path
        (``use_batch_kernels=False``), which is kept exactly so the
        equivalence can be asserted in tests — mirroring the flag on
        :func:`repro.core.shortcuts.build_shortcut_catalog`.

    Returns
    -------
    TFPTreeDecomposition
        The decomposition; ``tree.elimination_stats`` records the engine used,
        fill/round counters and the assembly/kernel phase seconds.
    """
    if graph.num_vertices == 0:
        raise GraphError("cannot decompose an empty graph")

    engine = eliminate_batched if use_batch_kernels else eliminate_scalar
    entries, stats = engine(graph, max_points=max_points, tolerance=tolerance)

    nodes: dict[int, TreeNode] = {}
    order_of: dict[int, int] = {}
    for order, (vertex, bag, ws, wd) in enumerate(entries):
        nodes[vertex] = TreeNode(
            vertex=vertex,
            bag=bag,
            ws=ws,
            wd=wd,
            order=order,
        )
        order_of[vertex] = order

    # Algorithm 2, lines 10-13: the parent of X(v) is the bag vertex with the
    # smallest elimination order.
    roots: list[int] = []
    for vertex, node in nodes.items():
        if not node.bag:
            roots.append(vertex)
            continue
        parent = min(node.bag, key=lambda u: order_of[u])
        node.parent = parent
        nodes[parent].children.append(vertex)
    if not roots:
        raise GraphError("tree decomposition produced no root (cyclic parents?)")

    tree = TFPTreeDecomposition(nodes, roots)
    tree.elimination_stats = stats
    return tree
