"""Tests for incremental index maintenance under edge-weight updates."""

from __future__ import annotations

import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import create_engine
from repro.baselines import earliest_arrival
from repro.core.index import TDTreeIndex
from repro.core.shortcuts import build_shortcut_catalog
from repro.exceptions import EdgeNotFoundError, InvalidFunctionError
from repro.functions import PiecewiseLinearFunction
from repro.graph import WeightGenerator, grid_network


@pytest.fixture()
def fresh_index():
    """A private (mutable) td-appro engine over a small grid."""
    graph = grid_network(5, 5, num_points=3, seed=51)
    engine = create_engine("td-appro?budget_fraction=0.4&max_points=none", graph)
    return graph, engine


def scaled(weight: PiecewiseLinearFunction, factor: float) -> PiecewiseLinearFunction:
    return PiecewiseLinearFunction(weight.times, weight.costs * factor, weight.via, validate=False)


class TestUpdateValidation:
    def test_unknown_edge_rejected(self, fresh_index):
        _, engine = fresh_index
        with pytest.raises(EdgeNotFoundError):
            engine.update_edges({(0, 23): PiecewiseLinearFunction.constant(1.0)})

    def test_negative_weight_rejected(self, fresh_index):
        graph, engine = fresh_index
        u, v, _ = next(iter(graph.edges()))
        bad = PiecewiseLinearFunction([0.0, 10.0], [5.0, -1.0], validate=False)
        with pytest.raises(InvalidFunctionError):
            engine.update_edges({(u, v): bad})

    def test_empty_update_is_a_noop(self, fresh_index):
        _, engine = fresh_index
        report = engine.update_edges({})
        assert report.num_changed_edges == 0
        assert report.num_dirty_vertices == 0


class TestUpdateCorrectness:
    def test_single_edge_slowdown(self, fresh_index, random_od_pairs):
        graph, engine = fresh_index
        u, v, weight = sorted(graph.edges())[7]
        report = engine.update_edges(
            {(u, v): scaled(weight, 4.0), (v, u): scaled(graph.weight(v, u), 4.0)}
        )
        assert report.num_changed_edges == 2
        for source, target, departure in random_od_pairs[:12]:
            reference = earliest_arrival(graph, source, target, departure)
            result = engine.query(source, target, departure)
            assert result.cost == pytest.approx(reference.cost, rel=1e-6)

    def test_speedup_update(self, fresh_index, random_od_pairs):
        """Costs can also go down; the repaired index must pick the new route."""
        graph, engine = fresh_index
        u, v, weight = sorted(graph.edges())[3]
        engine.update_edges(
            {(u, v): scaled(weight, 0.25), (v, u): scaled(graph.weight(v, u), 0.25)}
        )
        for source, target, departure in random_od_pairs[:12]:
            reference = earliest_arrival(graph, source, target, departure)
            result = engine.query(source, target, departure)
            assert result.cost == pytest.approx(reference.cost, rel=1e-6)

    def test_many_random_perturbations(self, fresh_index, random_od_pairs):
        import numpy as np

        graph, engine = fresh_index
        rng = np.random.default_rng(9)
        generator = WeightGenerator(3, seed=99)
        edges = sorted(graph.edges())
        chosen = rng.choice(len(edges), size=20, replace=False)
        changes = {}
        for edge_index in chosen:
            u, v, weight = edges[int(edge_index)]
            changes[(u, v)] = generator.perturbed(weight, scale=0.5)
        report = engine.update_edges(changes)
        assert report.num_changed_edges == len(changes)
        assert report.num_dirty_vertices > 0
        for source, target, departure in random_od_pairs[:15]:
            reference = earliest_arrival(graph, source, target, departure)
            result = engine.query(source, target, departure)
            assert result.cost == pytest.approx(reference.cost, rel=1e-6)

    def test_profile_queries_after_update(self, fresh_index):
        from repro.baselines import profile_search

        graph, engine = fresh_index
        u, v, weight = sorted(graph.edges())[11]
        engine.update_edges(
            {(u, v): scaled(weight, 3.0), (v, u): scaled(graph.weight(v, u), 3.0)}
        )
        reference = profile_search(graph, 0)[24]
        result = engine.profile(0, 24)
        assert reference.max_difference(result.function, samples=300) < 1e-6

    def test_update_on_basic_index(self, random_od_pairs):
        """An index without shortcuts only needs its bag functions repaired."""
        graph = grid_network(5, 5, num_points=3, seed=52)
        engine = create_engine("td-basic?max_points=none", graph)
        u, v, weight = sorted(graph.edges())[5]
        report = engine.update_edges({(u, v): scaled(weight, 5.0)})
        assert report.num_refreshed_shortcut_pairs == 0
        for source, target, departure in random_od_pairs[:10]:
            reference = earliest_arrival(graph, source, target, departure)
            assert engine.query(source, target, departure).cost == pytest.approx(
                reference.cost, rel=1e-6
            )


class TestUpdateReport:
    def test_report_counts_touched_structures(self, fresh_index):
        graph, engine = fresh_index
        u, v, weight = sorted(graph.edges())[0]
        report = engine.update_edges({(u, v): scaled(weight, 2.0)})
        assert report.num_changed_edges == 1
        assert report.seconds >= 0.0
        assert report.num_dirty_vertices >= 1

    def test_details_record_phases_and_pairs_built(self, fresh_index):
        graph, engine = fresh_index
        index = engine.index
        before = dict(index.shortcuts)
        u, v, weight = sorted(graph.edges())[3]
        report = engine.update_edges({(u, v): scaled(weight, 3.0)})
        details = report.details
        phases = [details[f"phase{k}_seconds"] for k in (1, 2, 3)]
        assert all(seconds >= 0.0 for seconds in phases)
        assert sum(phases) <= report.seconds
        # The pass builds the refreshed pairs plus the pairs they read:
        # fewer than every pair on the refreshed lowers' root paths.
        refreshed = {
            key[0] for key, pair in index.shortcuts.items() if pair is not before[key]
        }
        assert len(refreshed) == report.num_refreshed_shortcut_nodes
        tree = index.tree
        root_path_pairs = {
            (w, upper)
            for lower in refreshed
            for w in tree.root_path(lower)
            for upper in tree.ancestors(w)
        }
        built = details["phase3_pairs_built"]
        assert report.num_refreshed_shortcut_pairs <= built < len(root_path_pairs)

    def test_details_without_shortcut_work(self, fresh_index):
        graph, engine = fresh_index
        assert engine.update_edges({}).details == {}
        u, v, weight = sorted(graph.edges())[0]
        report = engine.update_edges({(u, v): weight})
        assert report.details["phase3_pairs_built"] == 0.0

    def test_identity_update_touches_little(self, fresh_index):
        """Re-writing the same weight must not cascade into shortcut refreshes."""
        graph, engine = fresh_index
        u, v, weight = sorted(graph.edges())[0]
        report = engine.update_edges({(u, v): weight})
        assert report.num_refreshed_shortcut_nodes == 0


class TestShortcutRepair:
    """Repaired shortcuts equal the catalog of the repaired tree, bit for bit."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    @pytest.mark.parametrize("spec", ["td-appro?max_points=none", "td-h2h"])
    def test_repaired_shortcuts_equal_the_catalog(self, spec, data):
        seed = data.draw(st.sampled_from([51, 52, 53]), label="grid seed")
        graph = grid_network(5, 5, num_points=3, seed=seed)
        engine = create_engine(spec, graph)
        edges = sorted((u, v) for u, v, _ in graph.edges())
        steps = data.draw(
            st.lists(
                st.dictionaries(
                    st.sampled_from(edges),
                    st.sampled_from([0.25, 0.5, 2.0, 3.0]),
                    min_size=1,
                    max_size=3,
                ),
                min_size=1,
                max_size=3,
            ),
            label="updates",
        )
        for step in steps:
            engine.update_edges(
                {edge: scaled(graph.weight(*edge), factor) for edge, factor in step.items()}
            )

        index = engine.index
        catalog = build_shortcut_catalog(
            index.tree,
            max_points=index.max_points,
            tolerance=index.tolerance,
            compute_utilities=False,
        )
        for key, pair in index.shortcuts.items():
            assert pair.forward == catalog.pairs[key].forward, key
            assert pair.backward == catalog.pairs[key].backward, key

    def test_refresh_counts_only_recomputed_pairs(self, fresh_index):
        """A cone reaching a third of the lowers recomputes only their pairs."""
        graph, engine = fresh_index
        u, v, weight = sorted(graph.edges())[3]
        report = engine.update_edges({(u, v): scaled(weight, 3.0)})
        lowers = {lower for lower, _ in engine.index.shortcuts}
        assert 0.25 * len(lowers) < report.num_refreshed_shortcut_nodes < len(lowers)
        assert 0 < report.num_refreshed_shortcut_pairs < len(engine.index.shortcuts)


def _state(index: TDTreeIndex) -> tuple:
    """Everything a repair may rewrite, in ``==``-comparable form."""
    tree = index.tree
    return (
        {v: node.bag for v, node in tree.nodes.items()},
        {v: dict(node.ws) for v, node in tree.nodes.items()},
        {v: dict(node.wd) for v, node in tree.nodes.items()},
        {key: (pair.forward, pair.backward) for key, pair in index.shortcuts.items()},
        {(u, v): weight for u, v, weight in index.graph.edges()},
    )


def _answers(engine, queries) -> list[float]:
    sources, targets, departures = (np.array(column) for column in zip(*queries))
    batch = engine.batch_query(sources, targets, departures).costs.tolist()
    return [engine.query(s, t, d).cost for s, t, d in queries] + batch


class TestClone:
    """``TDTreeIndex.clone`` gives repair a private copy of the index."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    @pytest.mark.parametrize(
        "spec", ["td-basic?max_points=none", "td-appro?max_points=none", "td-h2h"]
    )
    def test_repairing_a_clone_leaves_the_original_alone(self, spec, data):
        seed = data.draw(st.sampled_from([51, 52, 53]), label="grid seed")
        graph = grid_network(5, 5, num_points=3, seed=seed)
        engine = create_engine(spec, graph)
        edges = sorted((u, v) for u, v, _ in graph.edges())
        step = data.draw(
            st.dictionaries(
                st.sampled_from(edges),
                st.sampled_from([0.25, 0.5, 2.0, 3.0]),
                min_size=1,
                max_size=3,
            ),
            label="update",
        )
        changes = {edge: scaled(graph.weight(*edge), f) for edge, f in step.items()}
        rng = np.random.default_rng(seed)
        queries = [
            (int(rng.integers(25)), int(rng.integers(25)), float(rng.uniform(0, 86_400)))
            for _ in range(12)
        ]
        before = _state(engine.index)
        answers_before = _answers(engine, queries)

        clone = type(engine)(engine.index.clone(), name=engine.name)
        clone.update_edges(changes)

        assert _state(engine.index) == before
        assert _answers(engine, queries) == answers_before

        with tempfile.TemporaryDirectory() as directory:
            engine.index.save(directory)
            reference = create_engine(f"snapshot:{directory}")
        reference.update_edges(changes)
        assert _state(clone.index) == _state(reference.index)
        assert _answers(clone, queries) == _answers(reference, queries)

    def test_clones_taken_while_readers_refill_the_caches(self):
        """Readers refill the label-batch caches while clones are taken and
        repaired; the original never changes an answer and every clone
        repairs to the same index."""
        graph = grid_network(5, 5, num_points=3, seed=52)
        engine = create_engine("td-appro?max_points=none", graph)
        u, v, weight = sorted(graph.edges())[3]
        changes = {(u, v): scaled(weight, 3.0)}
        rng = np.random.default_rng(52)
        queries = [
            (int(rng.integers(25)), int(rng.integers(25)), float(rng.uniform(0, 86_400)))
            for _ in range(12)
        ]
        expected = _answers(engine, queries)
        reference = type(engine)(engine.index.clone(), name=engine.name)
        reference.update_edges(changes)
        repaired = _answers(reference, queries)

        stop = threading.Event()
        wrong: list[list[float]] = []
        tree = engine.index.tree

        def read(offset: int) -> None:
            vertices = sorted(tree.nodes)
            k = offset
            while not stop.is_set():
                tree.invalidate_label_batches(vertices[k % 25 : k % 25 + 3])
                k += 1
                answers = _answers(engine, queries)
                if answers != expected:
                    wrong.append(answers)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=read, args=(i * 7,)) for i in range(4)]
        try:
            for reader in readers:
                reader.start()
            for _ in range(8):
                clone = type(engine)(engine.index.clone(), name=engine.name)
                clone.update_edges(changes)
                assert _answers(clone, queries) == repaired
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert wrong == []
