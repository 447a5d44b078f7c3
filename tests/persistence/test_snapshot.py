"""Round-trip and robustness tests for the index snapshot format.

The headline contract: ``TDTreeIndex.save`` + ``TDTreeIndex.load`` is
**bit-identical** on query costs — scalar, profile and batched — for every
build strategy, and a snapshot from an incompatible format version is
refused loudly rather than misread.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import TDTreeIndex, create_engine
from repro.api import QueryOptions, TDTreeEngine
from repro.exceptions import SnapshotError
from repro.graph import grid_network
from repro.persistence import (
    ARRAYS_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    load_index,
    read_manifest,
    save_index,
)

STRATEGY_FIXTURES = ["basic_index", "dp_index", "approx_index", "full_index"]


def _engine(index: TDTreeIndex) -> TDTreeEngine:
    """Serve a loaded index through the engine surface the tests query."""
    return TDTreeEngine(index, name="loaded")


def _workload(graph, count=40, seed=99):
    rng = np.random.default_rng(seed)
    vertices = np.asarray(sorted(graph.vertices()))
    return (
        rng.choice(vertices, count),
        rng.choice(vertices, count),
        rng.uniform(0.0, 86_400.0, count),
    )


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fixture", STRATEGY_FIXTURES)
def test_roundtrip_is_bit_identical_on_costs(fixture, request, tmp_path):
    engine = request.getfixturevalue(fixture)
    sources, targets, departures = _workload(engine.graph)

    engine.index.save(tmp_path / "snap")
    loaded = _engine(TDTreeIndex.load(tmp_path / "snap"))

    batch_before = engine.batch_query(sources, targets, departures).costs
    batch_after = loaded.batch_query(sources, targets, departures).costs
    assert np.array_equal(batch_before, batch_after)

    for s, t, d in zip(sources[:8], targets[:8], departures[:8]):
        assert loaded.query(int(s), int(t), float(d)).cost == engine.query(
            int(s), int(t), float(d)
        ).cost

    profile_before = engine.profile(int(sources[0]), int(targets[0]))
    profile_after = loaded.profile(int(sources[0]), int(targets[0]))
    assert np.array_equal(profile_before.function.times, profile_after.function.times)
    assert np.array_equal(profile_before.function.costs, profile_after.function.costs)


@pytest.mark.parametrize("fixture", STRATEGY_FIXTURES)
def test_roundtrip_preserves_statistics(fixture, request, tmp_path):
    engine = request.getfixturevalue(fixture)
    loaded = TDTreeIndex.load(engine.index.save(tmp_path / "snap"))
    before = engine.statistics()
    after = loaded.statistics()
    assert after.strategy == before.strategy
    assert after.num_vertices == before.num_vertices
    assert after.num_edges == before.num_edges
    assert after.treewidth == before.treewidth
    assert after.treeheight == before.treeheight
    assert after.num_candidate_pairs == before.num_candidate_pairs
    assert after.num_selected_pairs == before.num_selected_pairs
    assert after.selected_weight == before.selected_weight
    assert after.budget == before.budget
    assert loaded.selection.method == engine.index.selection.method
    assert loaded.max_points == engine.index.max_points
    assert loaded.tolerance == engine.index.tolerance
    assert (
        loaded.memory_breakdown().total_bytes == engine.memory_breakdown().total_bytes
    )


def test_roundtrip_preserves_via_provenance_and_paths(approx_index, tmp_path):
    loaded = _engine(TDTreeIndex.load(approx_index.index.save(tmp_path / "snap")))
    with_path = QueryOptions(want_path=True)
    result_before = approx_index.query(0, 24, 3_600.0, options=with_path)
    result_after = loaded.query(0, 24, 3_600.0, options=with_path)
    assert result_after.cost == result_before.cost
    assert result_after.path() == result_before.path()


def test_loaded_index_supports_updates(small_grid, tmp_path):
    engine = create_engine("td-appro?budget_fraction=0.4&max_points=16", small_grid.copy())
    loaded = _engine(TDTreeIndex.load(engine.index.save(tmp_path / "snap")))
    u, v, weight = next(iter(loaded.graph.edges()))
    report = loaded.update_edges({(u, v): weight.shift(120.0)})
    assert report.num_changed_edges == 1
    sources, targets, departures = _workload(loaded.graph, count=15, seed=4)
    batch = loaded.batch_query(sources, targets, departures).costs
    looped = np.array(
        [
            loaded.query(int(s), int(t), float(d)).cost
            for s, t, d in zip(sources, targets, departures)
        ]
    )
    assert np.array_equal(batch, looped)


def test_save_load_after_update_keeps_costs(small_grid, tmp_path):
    engine = create_engine("td-appro?budget_fraction=0.4&max_points=16", small_grid.copy())
    u, v, weight = next(iter(engine.graph.edges()))
    engine.update_edges({(u, v): weight.shift(300.0)})
    loaded = _engine(TDTreeIndex.load(engine.index.save(tmp_path / "snap")))
    sources, targets, departures = _workload(engine.graph, count=20, seed=8)
    assert np.array_equal(
        engine.batch_query(sources, targets, departures).costs,
        loaded.batch_query(sources, targets, departures).costs,
    )


def test_coordinates_survive_roundtrip(approx_index, tmp_path):
    loaded = TDTreeIndex.load(approx_index.index.save(tmp_path / "snap"))
    assert loaded.graph.coordinates() == approx_index.graph.coordinates()


# ----------------------------------------------------------------------
# Manifest and robustness
# ----------------------------------------------------------------------
def test_manifest_contents(approx_index, tmp_path):
    directory = approx_index.index.save(tmp_path / "snap")
    manifest = read_manifest(directory)
    assert manifest["format_version"] == FORMAT_VERSION
    assert manifest["strategy"] == "approx"
    assert manifest["counts"]["tree_nodes"] == approx_index.index.tree.num_nodes
    assert manifest["counts"]["shortcut_pairs"] == len(approx_index.index.shortcuts)
    assert manifest["selection"]["method"] == approx_index.index.selection.method


def test_manifest_records_engine_spec_and_registry_version(approx_index, tmp_path):
    from repro.api import registry_version

    directory = approx_index.index.save(
        tmp_path / "snap", engine_spec="td-appro?budget_fraction=0.4"
    )
    manifest = read_manifest(directory)
    assert manifest["engine_spec"] == "td-appro?budget_fraction=0.4"
    assert manifest["registry_version"] == registry_version()


def test_manifest_engine_spec_defaults_to_none(small_grid, tmp_path):
    """An index no registry engine built has no spec to record."""
    index = TDTreeIndex._build(small_grid, strategy="basic", max_points=None)
    manifest = read_manifest(index.save(tmp_path / "snap"))
    assert manifest["engine_spec"] is None
    assert isinstance(manifest["registry_version"], int)


@pytest.mark.parametrize("name", ["td-basic", "td-dp", "td-appro", "td-full", "td-h2h"])
def test_snapshot_round_trip_keeps_engine_name(name, tmp_path):
    """Engines sharing a build strategy (td-full, td-h2h) keep their own name."""
    engine = create_engine(name, grid_network(4, 4, seed=7))
    directory = engine.index.save(tmp_path / "snap")
    assert read_manifest(directory)["engine_spec"] == name
    loaded = create_engine(f"snapshot:{directory}")
    assert loaded.name == name
    resaved = loaded.index.save(tmp_path / "again")
    assert create_engine(f"snapshot:{resaved}").name == name


def test_manifest_without_spec_fields_still_loads(approx_index, tmp_path):
    """Manifests written before engine_spec/registry_version existed load fine."""
    directory = save_index(approx_index.index, tmp_path / "snap", engine_spec="td-appro")
    manifest_path = directory / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    del manifest["engine_spec"]
    del manifest["registry_version"]
    manifest_path.write_text(json.dumps(manifest))

    loaded = _engine(load_index(directory))
    s, t, d = 0, approx_index.graph.num_vertices - 1, 3600.0
    assert loaded.query(s, t, d).cost == approx_index.query(s, t, d).cost


def test_load_missing_snapshot_raises(tmp_path):
    with pytest.raises(SnapshotError):
        load_index(tmp_path / "nope")


def test_load_rejects_future_format_version(approx_index, tmp_path):
    directory = approx_index.index.save(tmp_path / "snap")
    manifest_path = directory + "/" + MANIFEST_NAME
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["format_version"] = FORMAT_VERSION + 1
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    with pytest.raises(SnapshotError, match="format version"):
        load_index(directory)


def test_load_rejects_foreign_manifest(tmp_path):
    snap = tmp_path / "snap"
    snap.mkdir()
    (snap / MANIFEST_NAME).write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(SnapshotError):
        load_index(snap)


def test_load_rejects_missing_arrays(approx_index, tmp_path):
    directory = approx_index.index.save(tmp_path / "snap")
    (tmp_path / "snap" / ARRAYS_NAME).unlink()
    with pytest.raises(SnapshotError, match="missing"):
        load_index(directory)


def test_load_rejects_count_mismatch(approx_index, tmp_path):
    directory = approx_index.index.save(tmp_path / "snap")
    manifest_path = tmp_path / "snap" / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["counts"]["tree_nodes"] += 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="inconsistent"):
        load_index(directory)


def test_save_rejects_non_index(tmp_path):
    with pytest.raises(SnapshotError):
        save_index(object(), tmp_path / "snap")


def test_load_rejects_corrupt_plf_buffers(approx_index, tmp_path):
    """A truncated/missing ragged buffer surfaces as SnapshotError, not a leak."""
    directory = approx_index.index.save(tmp_path / "snap")
    arrays_path = tmp_path / "snap" / ARRAYS_NAME
    data = dict(np.load(arrays_path))
    del data["graph_weight_times"]
    np.savez(arrays_path, **data)
    with pytest.raises(SnapshotError, match="corrupt"):
        load_index(directory)


def test_load_rejects_mixed_generations(approx_index, basic_index, tmp_path):
    """Arrays and manifest from different save() calls must not be combined."""
    directory = approx_index.index.save(tmp_path / "snap")
    other = basic_index.index.save(tmp_path / "other")
    (tmp_path / "snap" / ARRAYS_NAME).write_bytes(
        (tmp_path / "other" / ARRAYS_NAME).read_bytes()
    )
    with pytest.raises(SnapshotError, match="torn"):
        load_index(directory)
    load_index(other)  # the untouched snapshot still loads


# ----------------------------------------------------------------------
# Memory-mapped loading (mmap_mode="r"/"c")
# ----------------------------------------------------------------------
class TestMmapLoading:
    """``load_index(..., mmap_mode=...)``: shared pages, identical answers.

    The replica serving layer (:mod:`repro.serving.replica`) depends on two
    properties proven here: the mapped arrays really are memory-mapped (their
    ``.base`` is a :class:`numpy.memmap`, so N processes mapping one snapshot
    share one physical copy through the page cache), and a mapped load is
    **bit-identical** to an eager one on every buffer and every query.
    """

    def test_mapped_arrays_are_memmap_backed_and_bit_identical(
        self, approx_index, tmp_path
    ):
        from repro.persistence.snapshot import _mmap_npz

        directory = approx_index.index.save(tmp_path / "snap")
        arrays_path = tmp_path / "snap" / ARRAYS_NAME
        mapped = _mmap_npz(arrays_path, "r")
        with np.load(arrays_path) as archive:
            eager = {name: archive[name] for name in archive.files}

        assert set(mapped) == set(eager)
        mapped_count = 0
        for name, arr in mapped.items():
            assert np.array_equal(arr, eager[name]), name
            if arr.dtype.hasobject or arr.size == 0:
                continue  # documented eager fallback for unmappable members
            assert isinstance(arr.base, np.memmap), name
            mapped_count += 1
        # The dominant payload (the ragged PLF buffers) must actually map.
        assert mapped_count > 0
        for key in ("tree_ws_plf_times", "graph_weight_times"):
            matches = [n for n in mapped if n.endswith(key)]
            assert matches, key
            assert all(
                mapped[n].size == 0 or isinstance(mapped[n].base, np.memmap)
                for n in matches
            )

    @pytest.mark.parametrize("mode", ["r", "c"])
    def test_mmap_load_is_bit_identical_on_costs(self, approx_index, tmp_path, mode):
        directory = approx_index.index.save(tmp_path / "snap")
        eager = _engine(load_index(directory))
        mapped = _engine(load_index(directory, mmap_mode=mode))
        sources, targets, departures = _workload(approx_index.graph)
        assert np.array_equal(
            mapped.batch_query(sources, targets, departures).costs,
            eager.batch_query(sources, targets, departures).costs,
        )
        for s, t, d in zip(sources[:8], targets[:8], departures[:8]):
            assert (
                mapped.query(int(s), int(t), float(d)).cost
                == eager.query(int(s), int(t), float(d)).cost
            )

    def test_index_load_passes_mmap_mode_through(self, basic_index, tmp_path):
        directory = basic_index.index.save(tmp_path / "snap")
        mapped = _engine(TDTreeIndex.load(directory, mmap_mode="r"))
        sources, targets, departures = _workload(basic_index.graph)
        assert np.array_equal(
            mapped.batch_query(sources, targets, departures).costs,
            basic_index.batch_query(sources, targets, departures).costs,
        )

    def test_invalid_mmap_mode_is_refused(self, basic_index, tmp_path):
        directory = basic_index.index.save(tmp_path / "snap")
        # Writable maps would let one replica corrupt the shared snapshot.
        for mode in ("r+", "w+", "x", ""):
            with pytest.raises(SnapshotError, match="mmap_mode"):
                load_index(directory, mmap_mode=mode)

    def test_compressed_member_falls_back_to_eager_read(self, basic_index, tmp_path):
        """Foreign (compressed) archives still load correctly, just unmapped."""
        import zipfile

        from repro.persistence.snapshot import _mmap_npz

        directory = basic_index.index.save(tmp_path / "snap")
        arrays_path = tmp_path / "snap" / ARRAYS_NAME
        recompressed = tmp_path / "compressed.npz"
        with np.load(arrays_path) as archive:
            data = {name: archive[name] for name in archive.files}
        np.savez_compressed(recompressed, **data)
        with zipfile.ZipFile(recompressed) as archive:
            assert any(
                i.compress_type != zipfile.ZIP_STORED for i in archive.infolist()
            )
        mapped = _mmap_npz(recompressed, "r")
        for name, arr in mapped.items():
            assert np.array_equal(arr, data[name]), name
