"""Comparison methods the paper evaluates against, implemented from scratch.

* :mod:`repro.baselines.td_dijkstra` — index-free time-dependent Dijkstra
  (scalar and profile flavours); also the ground truth of the test-suite.
* :mod:`repro.baselines.td_astar` — goal-directed A* with free-flow or
  landmark lower bounds.
* :mod:`repro.baselines.tdg_tree` — TD-G-tree, the hierarchical-partition
  index of Wang et al. (VLDB'19).

TD-H2H, the tree decomposition with all shortcuts materialised, is the
``strategy="full"`` configuration of :class:`~repro.core.index.TDTreeIndex`
and is built as the ``td-h2h`` engine (``create_engine("td-h2h", graph)``).
"""

from repro.baselines.td_astar import (
    LandmarkHeuristic,
    MinCostHeuristic,
    TDAStar,
    astar_earliest_arrival,
)
from repro.baselines.td_dijkstra import (
    DijkstraResult,
    TDDijkstra,
    earliest_arrival,
    one_to_all,
    profile_search,
)
from repro.baselines.tdg_tree import GTreeNode, GTreeResult, TDGTree

__all__ = [
    "TDDijkstra",
    "DijkstraResult",
    "earliest_arrival",
    "one_to_all",
    "profile_search",
    "TDAStar",
    "MinCostHeuristic",
    "LandmarkHeuristic",
    "astar_earliest_arrival",
    "TDGTree",
    "GTreeNode",
    "GTreeResult",
]
