"""Robustness and adversarial-input tests.

Directed (asymmetric) weights, extreme cost ranges, near-degenerate graphs and
invalid inputs: the index must either answer exactly like TD-Dijkstra or fail
loudly with the documented exception — never return a silently wrong answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import create_engine
from repro.baselines import TDGTree, earliest_arrival, profile_search
from repro.exceptions import GraphError, ReproError
from repro.functions import PiecewiseLinearFunction
from repro.graph import TDGraph, WeightGenerator, grid_network, validate_graph


def asymmetric_network(seed: int = 0, rows: int = 4, cols: int = 4) -> TDGraph:
    """A grid whose two directions carry *different* congestion profiles.

    This exercises the Ws/Wd split of the tree decomposition: a bug that mixes
    up the two directions passes every test on symmetric networks but fails
    here.
    """
    rng = np.random.default_rng(seed)
    generator = WeightGenerator(4, seed=seed + 1)
    graph = TDGraph()

    def vid(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            graph.add_vertex(vid(r, c), (float(c), float(r)))
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0)):
                rr, cc = r + dr, c + dc
                if rr < rows and cc < cols:
                    base_fwd = float(rng.uniform(60, 300))
                    base_bwd = float(rng.uniform(60, 300))
                    graph.add_edge(vid(r, c), vid(rr, cc), generator.profile_for(base_fwd))
                    graph.add_edge(vid(rr, cc), vid(r, c), generator.profile_for(base_bwd))
    return graph


class TestAsymmetricWeights:
    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param("td-basic", id="basic"),
            pytest.param("td-full", id="full"),
            pytest.param("td-appro?budget_fraction=0.5", id="approx"),
        ],
    )
    def test_index_matches_dijkstra_in_both_directions(self, spec):
        graph = asymmetric_network(seed=3)
        assert validate_graph(graph).is_valid
        engine = create_engine(spec, graph, max_points=None)
        rng = np.random.default_rng(7)
        for _ in range(20):
            source, target = (int(v) for v in rng.choice(graph.num_vertices, 2, replace=False))
            departure = float(rng.uniform(0, 86_400))
            forward_ref = earliest_arrival(graph, source, target, departure)
            backward_ref = earliest_arrival(graph, target, source, departure)
            assert engine.query(source, target, departure).cost == pytest.approx(
                forward_ref.cost, rel=1e-6
            )
            assert engine.query(target, source, departure).cost == pytest.approx(
                backward_ref.cost, rel=1e-6
            )

    def test_forward_and_backward_costs_actually_differ(self):
        graph = asymmetric_network(seed=3)
        engine = create_engine("td-full?max_points=none", graph)
        diffs = [
            abs(engine.query(0, 15, 30_000.0).cost - engine.query(15, 0, 30_000.0).cost)
        ]
        assert max(diffs) > 1.0  # the asymmetry is visible end-to-end

    def test_profile_queries_on_asymmetric_network(self):
        graph = asymmetric_network(seed=5)
        engine = create_engine("td-full?max_points=none", graph)
        exact = profile_search(graph, 0)[15]
        assert exact.max_difference(engine.profile(0, 15).function, samples=300) < 1e-6


class TestExtremeCosts:
    def test_huge_and_tiny_costs_coexist(self):
        graph = grid_network(4, 4, seed=2)
        # Make one road essentially free and another astronomically expensive.
        cheap = PiecewiseLinearFunction.constant(1e-3)
        pricey = PiecewiseLinearFunction.constant(1e7)
        edges = sorted((u, v) for u, v, _ in graph.edges())
        graph.set_weight(*edges[0], cheap)
        graph.set_weight(*edges[-1], pricey)
        engine = create_engine("td-appro?budget_fraction=0.4&max_points=none", graph)
        rng = np.random.default_rng(0)
        for _ in range(10):
            s, d = (int(v) for v in rng.choice(graph.num_vertices, 2, replace=False))
            t = float(rng.uniform(0, 86_400))
            assert engine.query(s, d, t).cost == pytest.approx(
                earliest_arrival(graph, s, d, t).cost, rel=1e-6
            )

    def test_zero_cost_edges_are_handled(self):
        graph = TDGraph()
        zero = PiecewiseLinearFunction.constant(0.0)
        ten = PiecewiseLinearFunction.constant(10.0)
        graph.add_bidirectional_edge(0, 1, zero)
        graph.add_bidirectional_edge(1, 2, ten)
        graph.add_bidirectional_edge(0, 2, PiecewiseLinearFunction.constant(25.0))
        engine = create_engine("td-full?max_points=none", graph)
        assert engine.query(0, 2, 0.0).cost == pytest.approx(10.0)


class TestInvalidInputsFailLoudly:
    def test_non_fifo_graph_rejected_at_build_time(self):
        graph = grid_network(3, 3, seed=1)
        bad = PiecewiseLinearFunction([0.0, 10.0], [500.0, 10.0], validate=False)
        u, v, _ = next(iter(graph.edges()))
        graph.set_weight(u, v, bad)
        with pytest.raises(GraphError, match="FIFO"):
            create_engine("td-basic", graph)

    def test_empty_graph_rejected(self):
        with pytest.raises(ReproError):
            create_engine("td-basic", TDGraph())

    def test_gtree_queries_on_asymmetric_network_never_undershoot(self):
        graph = asymmetric_network(seed=11)
        gtree = TDGTree.build(graph, leaf_size=6, max_points=None)
        rng = np.random.default_rng(1)
        for _ in range(10):
            s, d = (int(v) for v in rng.choice(graph.num_vertices, 2, replace=False))
            t = float(rng.uniform(0, 86_400))
            reference = earliest_arrival(graph, s, d, t)
            assert gtree.query(s, d, t).cost >= reference.cost - 1e-6


class TestTinyGraphs:
    def test_two_vertex_graph(self):
        graph = TDGraph()
        graph.add_bidirectional_edge(
            0, 1, PiecewiseLinearFunction.from_points([(0, 5), (86_400, 15)])
        )
        engine = create_engine("td-full?max_points=none", graph)
        assert engine.query(0, 1, 0.0).cost == pytest.approx(5.0)
        assert engine.query(0, 1, 86_400.0).cost == pytest.approx(15.0)

    def test_star_graph(self):
        graph = TDGraph()
        for leaf in range(1, 6):
            graph.add_bidirectional_edge(
                0, leaf, PiecewiseLinearFunction.constant(float(leaf))
            )
        engine = create_engine("td-appro?budget_fraction=0.5&max_points=none", graph)
        assert engine.query(1, 5, 0.0).cost == pytest.approx(6.0)
        assert engine.index.tree.treewidth == 1
