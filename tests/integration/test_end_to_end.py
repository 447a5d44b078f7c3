"""End-to-end integration tests across the whole stack.

These exercise realistic user journeys: generate or load a network, persist
it, build several indexes, answer both query types, update weights, and keep
everything consistent with the index-free ground truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import create_engine
from repro.baselines import TDDijkstra, TDGTree, earliest_arrival
from repro.datasets import generate_queries, load_dataset
from repro.graph import (
    WeightGenerator,
    load_graph_json,
    random_geometric_network,
    save_graph_json,
    validate_graph,
)


@pytest.mark.integration
class TestFullPipelineOnCatalogDataset:
    def test_cal_dataset_pipeline(self, tmp_path):
        # 1. Load the scaled dataset and persist/reload it.
        graph = load_dataset("CAL", num_points=3)
        path = tmp_path / "cal.json"
        save_graph_json(graph, path)
        graph = load_graph_json(path)
        assert validate_graph(graph).is_valid

        # 2. Build the paper's index and the strongest baseline.
        engine = create_engine("td-appro?budget_fraction=0.35", graph)
        dijkstra = TDDijkstra.build(graph)

        # 3. Answer the paper-style workload with both and compare.
        workload = generate_queries(graph, num_pairs=15, num_intervals=3, seed=0)
        worst = 0.0
        for query in workload:
            fast = engine.query(query.source, query.target, query.departure).cost
            slow = dijkstra.query(query.source, query.target, query.departure).cost
            assert fast >= slow - 1e-6
            worst = max(worst, (fast - slow) / max(slow, 1e-9))
        assert worst < 0.02  # capped functions stay within 2% on this workload

        # 4. Profiles evaluated at the workload departure times agree with the
        #    scalar answers.
        pair = workload.pairs()[0]
        profile = engine.profile(*pair)
        scalar = engine.query(pair[0], pair[1], 30_000.0)
        assert profile.cost_at(30_000.0) == pytest.approx(scalar.cost, rel=1e-6)


@pytest.mark.integration
class TestIndexesAgreeOnPlanarNetwork:
    def test_three_indexes_agree(self, planar_network):
        graph = planar_network
        rng = np.random.default_rng(5)
        appro = create_engine("td-appro?budget_fraction=0.3", graph)
        basic = create_engine("td-basic", graph)
        gtree = TDGTree.build(graph, leaf_size=16)
        vertices = sorted(graph.vertices())
        for _ in range(15):
            source, target = (int(v) for v in rng.choice(vertices, size=2, replace=False))
            departure = float(rng.uniform(0, 86_400))
            reference = earliest_arrival(graph, source, target, departure).cost
            a = appro.query(source, target, departure).cost
            b = basic.query(source, target, departure).cost
            g = gtree.query(source, target, departure).cost
            assert a == pytest.approx(reference, rel=0.02)
            assert b == pytest.approx(reference, rel=0.02)
            assert g >= reference - 1e-6
            assert g <= reference * 1.25 + 1e-6


@pytest.mark.integration
class TestLiveUpdateScenario:
    def test_day_of_operations(self):
        """Morning build, mid-day incident, evening re-planning."""
        graph = random_geometric_network(80, num_points=3, seed=77)
        engine = create_engine("td-appro?budget_fraction=0.4", graph)
        rng = np.random.default_rng(7)
        generator = WeightGenerator(3, seed=78)

        vertices = sorted(graph.vertices())
        depot, customer = int(vertices[0]), int(vertices[-1])
        morning = engine.query(depot, customer, 8 * 3600.0).cost

        # Incident: perturb a batch of edges at noon.
        edges = sorted(graph.edges())
        chosen = rng.choice(len(edges), size=12, replace=False)
        changes = {}
        for edge_index in chosen:
            u, v, weight = edges[int(edge_index)]
            changes[(u, v)] = generator.perturbed(weight, scale=0.6)
        report = engine.update_edges(changes)
        assert report.num_changed_edges == len(changes)

        # Evening queries still match the ground truth on the updated network.
        for _ in range(10):
            source, target = (int(v) for v in rng.choice(vertices, size=2, replace=False))
            departure = float(rng.uniform(15 * 3600.0, 20 * 3600.0))
            reference = earliest_arrival(graph, source, target, departure).cost
            assert engine.query(source, target, departure).cost == pytest.approx(
                reference, rel=0.02
            )
        # The depot-to-customer cost is still a sane number.
        evening = engine.query(depot, customer, 18 * 3600.0).cost
        assert evening > 0 and morning > 0
