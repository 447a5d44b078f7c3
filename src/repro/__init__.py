"""repro — time-dependent shortest-path queries with tree-decomposition shortcuts.

A pure-Python reproduction of *"Querying Shortest Path on Large Time-Dependent
Road Networks with Shortcuts"* (Gong, Zeng, Chen; ICDE 2024 / arXiv:2303.03720).

Quick start
-----------
>>> from repro import create_engine
>>> from repro.graph import grid_network
>>> graph = grid_network(6, 6, seed=1)
>>> engine = create_engine("td-appro?budget_fraction=0.3", graph)
>>> route = engine.query(0, 35, departure=8 * 3600)
>>> profile = engine.profile(0, 35)

Every method the paper evaluates — the td-* index configurations and the four
baselines — is an engine behind the same :class:`repro.api.Engine` protocol;
see :mod:`repro.api` for the registry and the typed result types.

Package layout
--------------
``repro.api``
    The public surface: the ``Engine`` protocol, the string-spec registry
    (``create_engine`` / ``register_engine``) and the unified ``Route`` /
    ``RouteMatrix`` / ``RouteProfile`` result types.
``repro.functions``
    Piecewise-linear travel-cost function algebra (Compound, minimum, ...).
``repro.graph``
    Time-dependent graph structure, generators, I/O, validation.
``repro.core``
    The paper's contribution: TFP tree decomposition, shortcut selection
    (exact DP and 0.5-approximation) and the query algorithms, bundled in
    the ``TDTreeIndex`` that the ``td-*`` engines wrap (``engine.index``).
``repro.persistence``
    Versioned on-disk index snapshots (``engine.index.save(dir)``; served
    again with ``create_engine("snapshot:<dir>")``).
``repro.serving``
    Serving stack: micro-batching ``QueryService`` workers under an
    ``EngineHost`` control plane (named deployments, zero-downtime hot
    swap, async facade).
``repro.baselines``
    TD-Dijkstra, TD-A* and TD-G-tree comparison methods (TD-H2H is the
    ``td-h2h`` engine: the ``full`` strategy of ``repro.core``).
``repro.datasets``
    Scaled dataset catalog mirroring the paper's Table 2 and the query
    workload generator.
``repro.experiments``
    Harness that regenerates every table and figure of the evaluation,
    driven by the engine registry.
"""

from repro.core.index import TDTreeIndex
from repro.core.query import EarliestArrivalResult, ProfileResult
from repro.functions.piecewise import PiecewiseLinearFunction
from repro.graph.td_graph import TDGraph

from repro import api
from repro.api import (
    BuildConfig,
    Engine,
    EngineCapabilities,
    QueryOptions,
    Route,
    RouteMatrix,
    RouteProfile,
    available_engines,
    create_engine,
    register_engine,
)

__version__ = "1.2.0"

__all__ = [
    "TDGraph",
    "TDTreeIndex",
    "PiecewiseLinearFunction",
    "EarliestArrivalResult",
    "ProfileResult",
    "api",
    "Engine",
    "EngineCapabilities",
    "BuildConfig",
    "QueryOptions",
    "Route",
    "RouteMatrix",
    "RouteProfile",
    "create_engine",
    "register_engine",
    "available_engines",
    "__version__",
]
