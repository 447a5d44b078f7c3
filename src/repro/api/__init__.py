"""``repro.api`` — the public, typed surface of the library.

One engine abstraction covers the paper's whole evaluation matrix: the five
``td-*`` tree-decomposition configurations and the four baselines all
implement the :class:`Engine` protocol, are built from a string spec through
the registry, and answer with the shared :class:`Route` / :class:`RouteMatrix`
/ :class:`RouteProfile` result types.

Quick start
-----------
>>> from repro.api import create_engine
>>> from repro.graph import grid_network
>>> graph = grid_network(6, 6, seed=1)
>>> engine = create_engine("td-appro?budget_fraction=0.3", graph)
>>> route = engine.query(0, 35, departure=8 * 3600)
>>> route.cost > 0 and route.path()[0] == 0
True
>>> engine.capabilities().batch
True

Any engine — including the index-free baselines — drops straight into the
serving layer::

    from repro.serving import QueryService
    with QueryService(create_engine("td-dijkstra", graph)) as service:
        cost = service.submit(0, 35, 8 * 3600).result()

Third-party engines register with :func:`register_engine` (or a
``repro.engines`` packaging entry point) and immediately work everywhere an
engine spec is accepted — the experiment runners, the contract test-suite,
the serving layer.
"""

from repro.api.adapters import (
    EngineAdapter,
    TDAStarEngine,
    TDDijkstraEngine,
    TDGTreeEngine,
    TDTreeEngine,
)
from repro.api.engine import Engine
from repro.api.registry import (
    ENTRY_POINT_GROUP,
    EngineEntry,
    available_engines,
    create_engine,
    engine_entry,
    parse_engine_spec,
    register_engine,
    registered_engines,
    registry_version,
    unregister_engine,
)
from repro.api.types import (
    UNSET,
    BuildConfig,
    EngineCapabilities,
    QueryOptions,
    Route,
    RouteMatrix,
    RouteProfile,
)

__all__ = [
    # protocol + result types
    "Engine",
    "EngineCapabilities",
    "Route",
    "RouteMatrix",
    "RouteProfile",
    # configuration
    "BuildConfig",
    "QueryOptions",
    "UNSET",
    # registry
    "ENTRY_POINT_GROUP",
    "EngineEntry",
    "register_engine",
    "unregister_engine",
    "create_engine",
    "parse_engine_spec",
    "available_engines",
    "engine_entry",
    "registered_engines",
    "registry_version",
    # built-in adapters
    "EngineAdapter",
    "TDTreeEngine",
    "TDDijkstraEngine",
    "TDAStarEngine",
    "TDGTreeEngine",
]
