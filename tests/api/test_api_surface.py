"""Snapshot of the public API surface.

``repro.api.__all__`` is the library's compatibility contract: additions are
deliberate (update the snapshot here, document them in the README), removals
are breaking.  A drive-by rename failing this test is the point.
"""

from __future__ import annotations

import repro
import repro.api

API_ALL_SNAPSHOT = sorted(
    [
        "Engine",
        "EngineCapabilities",
        "Route",
        "RouteMatrix",
        "RouteProfile",
        "BuildConfig",
        "QueryOptions",
        "UNSET",
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
        "EngineAdapter",
        "TDTreeEngine",
        "TDDijkstraEngine",
        "TDAStarEngine",
        "TDGTreeEngine",
    ]
)


def test_api_all_matches_snapshot():
    assert sorted(repro.api.__all__) == API_ALL_SNAPSHOT


def test_api_all_names_resolve():
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None


def test_top_level_package_reexports_engine_surface():
    for name in (
        "api",
        "Engine",
        "create_engine",
        "register_engine",
        "available_engines",
        "Route",
        "RouteMatrix",
        "RouteProfile",
        "BuildConfig",
        "QueryOptions",
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
