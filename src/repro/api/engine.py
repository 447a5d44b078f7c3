"""The :class:`Engine` protocol — one typed interface for every method.

The paper's evaluation pits TD-basic/TD-dp/TD-appro/TD-full against
TD-Dijkstra, TD-A*, TD-G-tree and TD-H2H; in this library all nine are
*engines*: objects satisfying the structural protocol below.  Workload code
(the experiment runners, the serving layer, the contract test-suite) is
written once against the protocol and runs against any registered engine.

Construction is the registry's job — :func:`repro.api.create_engine` resolves
a spec string to a build factory and returns a ready engine — so the protocol
itself covers the built surface: ``query`` and ``capabilities`` are
mandatory, ``profile`` / ``batch_query`` / ``update_edges`` are present on
every engine but advertised via :class:`~repro.api.EngineCapabilities`
flags and raise :class:`~repro.exceptions.UnsupportedCapabilityError` when
unadvertised.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Protocol, runtime_checkable

from repro.api.types import EngineCapabilities, QueryOptions, Route, RouteMatrix, RouteProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.functions.piecewise import PiecewiseLinearFunction
    from repro.graph.td_graph import TDGraph
    from repro.utils.memory import MemoryBreakdown

__all__ = ["Engine"]


@runtime_checkable
class Engine(Protocol):
    """Structural interface every query engine implements.

    ``isinstance(obj, Engine)`` checks method presence (it cannot check
    signatures); the shared contract suite in ``tests/api`` checks behaviour.
    """

    #: Registry spec name of the engine (``"td-appro"``, ``"td-dijkstra"``...).
    name: str
    #: The time-dependent road network the engine answers queries over.
    graph: "TDGraph"

    def capabilities(self) -> EngineCapabilities:
        """Which optional protocol methods this engine supports."""
        ...

    def query(
        self,
        source: int,
        target: int,
        departure: float,
        *,
        options: QueryOptions | None = None,
    ) -> Route:
        """Scalar travel-cost query: minimum cost departing at ``departure``."""
        ...

    def profile(self, source: int, target: int) -> RouteProfile:
        """Whole travel-cost-function query (requires ``capabilities().profile``)."""
        ...

    def batch_query(
        self,
        sources: "np.ndarray",
        targets: "np.ndarray",
        departures: "np.ndarray",
        *,
        options: QueryOptions | None = None,
    ) -> RouteMatrix:
        """Vectorized scalar queries (requires ``capabilities().batch``)."""
        ...

    def update_edges(
        self, changes: Mapping[tuple[int, int], "PiecewiseLinearFunction"]
    ) -> object:
        """Apply edge-weight changes (requires ``capabilities().update``)."""
        ...

    def memory_breakdown(self) -> "MemoryBreakdown":
        """Analytic memory footprint of whatever the engine stores."""
        ...
