"""Dirty-vertex estimation vs what ``apply_edge_updates`` actually touches.

The controller's policy decisions hang off :func:`estimate_dirty_vertices` —
a value-blind simulation of the incremental repair's propagation.  Two
properties pin it to the real thing across graph families:

* **Soundness** (always): the estimate is an upper bound on
  ``UpdateReport.num_dirty_vertices`` for *any* update, because the repair
  prunes propagation when recomputed labels come out unchanged and the
  estimate never prunes.
* **Tightness** (saturating decreases): dropping the changed edges to
  near-zero cost pulls them onto almost every shortest path through their
  cone, defeating nearly all pruning — the real count must land within a
  small structural slack of the estimate, so the policy's dirty fraction is
  an honest signal rather than a vacuous bound.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import create_engine
from repro.api import TDTreeEngine
from repro.datasets.catalog import load_dataset
from repro.graph import grid_network, random_geometric_network
from repro.traffic import estimate_dirty_vertices

GRAPHS = {
    "grid": lambda: grid_network(5, 5, num_points=3, seed=3),
    "planar": lambda: random_geometric_network(60, num_points=3, seed=29),
    "cal_sample": lambda: load_dataset("CAL", num_points=3),
}

#: One built engine per graph family, reused (and repaired back to baseline)
#: across hypothesis examples — rebuilding per example would dominate runtime.
_ENGINES: dict[str, TDTreeEngine] = {}


def _engine_for(family: str) -> TDTreeEngine:
    engine = _ENGINES.get(family)
    if engine is None:
        engine = create_engine("td-basic?max_points=none", GRAPHS[family]().copy())
        _ENGINES[family] = engine
    return engine


def _apply_and_restore(engine, edges, delta):
    """Apply a uniform shift to ``edges``, report, then restore baselines."""
    baselines = {(u, v): engine.graph.weight(u, v) for u, v in edges}
    report = engine.update_edges(
        {edge: weight.shift(delta) for edge, weight in baselines.items()}
    )
    engine.update_edges(baselines)
    return report


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_estimate_is_a_sound_upper_bound(family, data):
    engine = _engine_for(family)
    all_edges = sorted({(u, v) for u, v, _ in engine.graph.edges()})
    count = data.draw(st.integers(min_value=1, max_value=12), label="edges")
    edges = data.draw(
        st.lists(
            st.sampled_from(all_edges),
            min_size=count,
            max_size=count,
            unique=True,
        ),
        label="edge set",
    )
    delta = data.draw(
        st.floats(min_value=0.5, max_value=3600.0, allow_nan=False),
        label="delta",
    )
    estimate = estimate_dirty_vertices(engine.index.tree, edges)
    report = _apply_and_restore(engine, edges, delta)
    assert report.num_dirty_vertices <= estimate
    assert estimate <= engine.graph.num_vertices


@pytest.mark.parametrize("family", sorted(GRAPHS))
@pytest.mark.parametrize("count", [1, 3, 8])
def test_estimate_tight_under_saturating_decrease(family, count):
    """Near-zero costs defeat pruning: the bound is tight, not vacuous.

    A handful of cone-boundary vertices may still prune (their labels
    happen not to route through the cheapened edges), hence the small
    slack instead of strict equality.
    """
    engine = _engine_for(family)
    all_edges = sorted({(u, v) for u, v, _ in engine.graph.edges()})
    edges = all_edges[:: max(1, len(all_edges) // count)][:count]
    estimate = estimate_dirty_vertices(engine.index.tree, edges)
    baselines = {(u, v): engine.graph.weight(u, v) for u, v in edges}
    report = engine.update_edges(
        {
            edge: weight.shift(-0.999 * min(weight.costs))
            for edge, weight in baselines.items()
        }
    )
    engine.update_edges(baselines)
    actual = report.num_dirty_vertices
    assert actual <= estimate
    assert actual >= estimate - max(3, len(edges))


def test_estimate_of_nothing_is_zero(small_tree):
    assert estimate_dirty_vertices(small_tree, []) == 0


def test_estimate_matches_controller_observation_path(small_grid):
    """The exact call shape the controller uses (tree attr via the engine's index)."""
    engine = create_engine("td-basic?max_points=none", small_grid.copy())
    edges = sorted({(u, v) for u, v, _ in engine.graph.edges()})[:4]
    estimate = estimate_dirty_vertices(engine.index.tree, edges)
    assert 1 <= estimate <= engine.graph.num_vertices
