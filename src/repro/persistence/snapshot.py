"""Versioned on-disk snapshots of a built :class:`~repro.core.index.TDTreeIndex`.

Building the index is by far the most expensive step of the pipeline
(decomposition + shortcut construction + selection); a serving fleet should
pay it once and ship the result to every worker.  A snapshot is a directory

``<path>/manifest.json``
    Human-readable metadata: format version, build strategy and parameters,
    selection summary, and the element counts the loader cross-checks.
``<path>/arrays.npz``
    Every numeric payload packed into flat numpy buffers.  All
    piecewise-linear functions — per-node ``Ws``/``Wd`` label lists, graph
    edge weights, shortcut pairs — reuse :class:`~repro.functions.batch.PLFBatch`'s
    ragged ``times``/``costs``/``via``/``offsets`` layout (via
    :meth:`PLFBatch.to_arrays`), so the whole index is a handful of
    contiguous arrays rather than millions of Python objects.

The round trip is **bit-identical**: breakpoint times, costs and ``via``
provenance are stored as raw ``float64``/``int64`` buffers and dictionary
iteration orders (bags, label lists, shortcut keys, tree-node insertion) are
preserved, so a loaded index answers every query — scalar, profile and
batched — with exactly the same floating-point results as the index that was
saved.  Loading skips decomposition, catalog construction and selection
entirely, which makes it one to two orders of magnitude faster than
rebuilding (``benchmarks/bench_serving.py`` enforces >= 10x on scaled CAL).

Versioning policy
-----------------
``FORMAT_VERSION`` is bumped whenever the array layout or manifest schema
changes incompatibly.  Loaders refuse snapshots from a different major
version with :class:`~repro.exceptions.SnapshotError` instead of guessing:
an index snapshot feeds query answers to users, so a silently-misread buffer
is worse than a failed load.  Within a version, unknown *extra* manifest keys
are ignored, which leaves room for forward-compatible additions.
"""

from __future__ import annotations

import json
import os
import uuid
import zipfile
from pathlib import Path

import numpy as np

from repro import __version__
from repro.exceptions import InvalidFunctionError, SnapshotError
from repro.functions.batch import PLFBatch
from repro.graph.td_graph import TDGraph

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "ARRAYS_NAME",
    "MMAP_MODES",
    "save_index",
    "load_index",
    "read_manifest",
]

#: Major version of the on-disk layout; bumped on incompatible changes.
FORMAT_VERSION = 1

#: The format tag every manifest carries (guards against unrelated JSON files).
FORMAT_TAG = "repro-tdtree-index-snapshot"

MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------
def save_index(index, path, *, engine_spec: str | None = None) -> Path:
    """Write ``index`` to the snapshot directory ``path``.

    The directory is created if needed.  Overwriting an existing snapshot is
    safe against torn writes: each file is written to a temporary name and
    atomically renamed (arrays first, manifest last), and both carry a shared
    random token that the loader cross-checks — a reader racing a re-save
    either sees a complete old/new snapshot or gets a
    :class:`~repro.exceptions.SnapshotError`, never a silent mix.  Returns
    the directory path.

    ``engine_spec`` records the registry spec the index was built from
    (``"td-appro?budget_fraction=0.3"``); the manifest carries it together
    with the registry's mutation counter so
    ``create_engine("snapshot:<path>")`` can rehydrate the snapshot into the
    engine it came from.  Manifests written before these fields existed (or
    with ``engine_spec=None``) still load — the fields are additive.
    """
    from repro.core.index import TDTreeIndex  # local import: avoid cycle

    if not isinstance(index, TDTreeIndex):
        raise SnapshotError(f"can only snapshot a TDTreeIndex, got {type(index).__name__}")
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)

    from repro.core.shortcuts import pack_shortcut_pairs

    token = uuid.uuid4().hex
    arrays: dict[str, np.ndarray] = {"snapshot_token": np.array([token])}
    arrays.update(_pack_graph(index.graph))
    arrays.update(index.tree.to_arrays())
    arrays.update(pack_shortcut_pairs(index.shortcuts))

    from repro.api.registry import registry_version

    manifest = {
        "format": FORMAT_TAG,
        "format_version": FORMAT_VERSION,
        "repro_version": __version__,
        "arrays_file": ARRAYS_NAME,
        "snapshot_token": token,
        # The originating engine spec (None when unknown) plus the registry
        # mutation counter at save time — what "snapshot:<path>" specs
        # rehydrate from.
        "engine_spec": engine_spec,
        "registry_version": registry_version(),
        "strategy": index.strategy,
        "max_points": index.max_points,
        "tolerance": index.tolerance,
        "catalog_size": index._catalog_size,
        "build_seconds": dict(index._build_seconds),
        "selection": {
            "method": index.selection.method,
            "total_utility": index.selection.total_utility,
            "total_weight": index.selection.total_weight,
            "budget": index.selection.budget,
        },
        "counts": {
            "vertices": index.graph.num_vertices,
            "edges": index.graph.num_edges,
            "tree_nodes": index.tree.num_nodes,
            "shortcut_pairs": len(index.shortcuts),
            "label_points": index.tree.label_point_count(),
        },
    }

    arrays_tmp = directory / f"{ARRAYS_NAME}.{token}.tmp"
    manifest_tmp = directory / f"{MANIFEST_NAME}.{token}.tmp"
    try:
        with open(arrays_tmp, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(arrays_tmp, directory / ARRAYS_NAME)
        with open(manifest_tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(manifest_tmp, directory / MANIFEST_NAME)
    finally:
        for leftover in (arrays_tmp, manifest_tmp):
            leftover.unlink(missing_ok=True)
    return directory


def _pack_graph(graph: TDGraph) -> dict[str, np.ndarray]:
    """Flatten the graph into vertex/edge arrays plus one edge-weight batch."""
    vertices = np.fromiter(graph.vertices(), dtype=np.int64, count=graph.num_vertices)
    sources, targets, weights = [], [], []
    for source, target, weight in graph.edges():
        sources.append(source)
        targets.append(target)
        weights.append(weight)
    coords = graph.coordinates()
    coord_vertices = np.array(sorted(coords), dtype=np.int64)
    coord_xy = np.array(
        [coords[v] for v in coord_vertices], dtype=np.float64
    ).reshape(coord_vertices.size, 2)
    out = {
        "graph_vertex": vertices,
        "graph_edge_src": np.array(sources, dtype=np.int64),
        "graph_edge_dst": np.array(targets, dtype=np.int64),
        "graph_coord_vertex": coord_vertices,
        "graph_coord_xy": coord_xy,
    }
    out.update(PLFBatch.from_functions(weights).to_arrays("graph_weight_"))
    return out


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def read_manifest(path) -> dict:
    """Read and validate the manifest of the snapshot at ``path``."""
    directory = Path(path)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise SnapshotError(f"no index snapshot at {directory} (missing {MANIFEST_NAME})")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"unreadable snapshot manifest at {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_TAG:
        raise SnapshotError(f"{manifest_path} is not a {FORMAT_TAG} manifest")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format version {version!r} is not supported by this build "
            f"(expected {FORMAT_VERSION}); re-create the snapshot with save()"
        )
    return manifest


#: Memory-map modes accepted by :func:`load_index` (read-only / copy-on-write;
#: writable maps would let a query mutate the shared snapshot under every
#: other replica's feet).
MMAP_MODES = ("r", "c")


def load_index(path, *, mmap_mode: str | None = None):
    """Load a snapshot directory back into a :class:`TDTreeIndex`.

    With ``mmap_mode=None`` (the default) every array is read eagerly into
    process-private heap memory.  Pass ``mmap_mode="r"`` (read-only) or
    ``"c"`` (copy-on-write) to memory-map the ``.npz`` members in place
    instead: the ragged PLF buffers — the dominant payload — then live in the
    OS page cache, shared physically between every process that maps the same
    snapshot.  That is what makes N-replica serving
    (:class:`~repro.serving.replica.ReplicaPool`) cost one index's worth of
    RAM instead of N.  ``np.load`` silently ignores ``mmap_mode`` for ``.npz``
    archives, so the mapping is done member-by-member here — ``np.savez``
    stores members uncompressed, which keeps their byte ranges mappable.

    Raises :class:`~repro.exceptions.SnapshotError` when the snapshot is
    missing, malformed, fails the manifest count cross-checks, or was written
    by an incompatible format version.
    """
    from repro.core.index import TDTreeIndex
    from repro.core.selection import SelectionResult
    from repro.core.shortcuts import unpack_shortcut_pairs
    from repro.core.tree_decomposition import TFPTreeDecomposition

    if mmap_mode is not None and mmap_mode not in MMAP_MODES:
        raise SnapshotError(
            f"unsupported mmap_mode {mmap_mode!r}: snapshot arrays may only be "
            f"mapped read-only ('r') or copy-on-write ('c')"
        )
    directory = Path(path)
    manifest = read_manifest(directory)
    arrays_path = directory / str(manifest.get("arrays_file", ARRAYS_NAME))
    if not arrays_path.is_file():
        raise SnapshotError(f"snapshot at {directory} is missing {arrays_path.name}")
    try:
        if mmap_mode is not None:
            arrays = _mmap_npz(arrays_path, mmap_mode)
        else:
            with np.load(arrays_path) as archive:
                arrays = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise SnapshotError(f"unreadable snapshot arrays at {arrays_path}: {exc}") from exc

    expected_token = manifest.get("snapshot_token")
    if expected_token is not None:
        stored = arrays.get("snapshot_token")
        stored_token = str(stored[0]) if stored is not None and stored.size else None
        if stored_token != expected_token:
            raise SnapshotError(
                f"snapshot at {directory} is torn: manifest and arrays come "
                f"from different save() calls (a concurrent re-save?)"
            )

    try:
        graph = _unpack_graph(arrays)
        tree = TFPTreeDecomposition.from_arrays(arrays)
        shortcuts = unpack_shortcut_pairs(arrays)
    except KeyError as exc:
        raise SnapshotError(
            f"snapshot at {directory} is missing array {exc.args[0]!r}"
        ) from None
    except InvalidFunctionError as exc:
        # PLFBatch.from_arrays raises this for missing or corrupt ragged
        # buffers; keep the documented SnapshotError contract for callers
        # that fall back to a rebuild on a bad snapshot.
        raise SnapshotError(f"corrupt snapshot at {directory}: {exc}") from exc

    counts = manifest.get("counts", {})
    _check_count(counts, "vertices", graph.num_vertices, directory)
    _check_count(counts, "edges", graph.num_edges, directory)
    _check_count(counts, "tree_nodes", tree.num_nodes, directory)
    _check_count(counts, "shortcut_pairs", len(shortcuts), directory)

    selection_meta = manifest.get("selection", {})
    selection = SelectionResult(
        selected=set(shortcuts),
        total_utility=float(selection_meta.get("total_utility", 0.0)),
        total_weight=int(selection_meta.get("total_weight", 0)),
        method=str(selection_meta.get("method", "none")),
        budget=selection_meta.get("budget"),
    )
    max_points = manifest.get("max_points")
    index = TDTreeIndex(
        graph,
        tree,
        shortcuts,
        strategy=str(manifest.get("strategy", "basic")),
        selection=selection,
        catalog_size=int(manifest.get("catalog_size", len(shortcuts))),
        build_seconds=dict(manifest.get("build_seconds", {})),
        max_points=None if max_points is None else int(max_points),
        tolerance=float(manifest.get("tolerance", 0.0)),
    )
    index.engine_spec = manifest.get("engine_spec") or None
    return index


def _check_count(counts: dict, key: str, actual: int, directory: Path) -> None:
    expected = counts.get(key)
    if expected is not None and int(expected) != actual:
        raise SnapshotError(
            f"snapshot at {directory} is inconsistent: manifest says "
            f"{key}={expected}, arrays contain {actual}"
        )


def _mmap_npz(path: Path, mode: str) -> dict[str, np.ndarray]:
    """Map every member of an ``.npz`` archive without copying the payload.

    ``np.savez`` writes a plain ZIP of ``.npy`` members with ``ZIP_STORED``
    (no compression), so each member's array body is a contiguous byte range
    of the archive file — directly mappable once its offset is known.  For
    each member this parses the ZIP local file header (the central directory's
    ``header_offset`` points at it; the 30-byte fixed part carries the name
    and extra-field lengths at offsets 26 and 28) and then the ``.npy`` header
    to find dtype/shape/order and the first payload byte.

    Members that cannot be mapped — compressed (not produced by ``np.savez``,
    but tolerated), zero-size (``mmap`` rejects empty ranges), or object-dtype
    — fall back to an eager read.  Returned arrays are plain ``ndarray`` views
    whose ``.base`` is the underlying :class:`numpy.memmap`, so callers (and
    tests) can tell mapped from copied.
    """
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            member = info.filename
            key = member[: -len(".npy")] if member.endswith(".npy") else member
            if info.compress_type != zipfile.ZIP_STORED:
                with archive.open(info) as handle:
                    arrays[key] = np.lib.format.read_array(handle)
                continue
            arrays[key] = _mmap_member(path, info, mode)
    return arrays


def _mmap_member(path: Path, info: zipfile.ZipInfo, mode: str) -> np.ndarray:
    """Map one stored ``.npy`` member of ``path`` as an ndarray view."""
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        local = handle.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            raise SnapshotError(
                f"corrupt snapshot archive {path}: member {info.filename!r} "
                f"has no local file header at offset {info.header_offset}"
            )
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        handle.seek(info.header_offset + 30 + name_len + extra_len)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:  # pragma: no cover - np.savez only emits 1.0/2.0 headers
            raise SnapshotError(
                f"cannot map snapshot member {info.filename!r}: "
                f"unsupported .npy format version {version}"
            )
        data_offset = handle.tell()
        if dtype.hasobject or int(np.prod(shape)) == 0:
            # Object arrays need pickle; empty ranges cannot be mmapped.
            handle.seek(info.header_offset + 30 + name_len + extra_len)
            return np.lib.format.read_array(handle)
    mapped: np.memmap = np.memmap(
        path,
        dtype=dtype,
        mode=mode,
        offset=data_offset,
        shape=shape,
        order="F" if fortran else "C",
    )
    return mapped.view(np.ndarray)


def _unpack_graph(arrays: dict) -> TDGraph:
    graph = TDGraph()
    for vertex in arrays["graph_vertex"]:
        graph.add_vertex(int(vertex))
    for vertex, (x, y) in zip(arrays["graph_coord_vertex"], arrays["graph_coord_xy"]):
        graph.add_vertex(int(vertex), (float(x), float(y)))
    weights = PLFBatch.from_arrays(arrays, "graph_weight_")
    sources = arrays["graph_edge_src"]
    targets = arrays["graph_edge_dst"]
    if not (sources.size == targets.size == weights.count):
        raise SnapshotError(
            f"edge arrays disagree: {sources.size} sources, {targets.size} "
            f"targets, {weights.count} weight functions"
        )
    for i in range(weights.count):
        graph.add_edge(int(sources[i]), int(targets[i]), weights.function(i))
    return graph
