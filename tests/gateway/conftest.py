"""Shared fixtures for the gateway suite.

Two test styles share these:

* **ASGI-level** (``test_app.py``) — the app is called directly with a
  fabricated scope via :mod:`_asgi`, no socket: fast, deterministic, and
  failure messages point at the app instead of the transport.
* **Socket-level** (``test_server.py``, ``test_chaos_gateway.py``) — the
  bundled server on an ephemeral port with the bundled client: the full
  wire contract, keep-alive, chunked streaming, and chaos.
"""

from __future__ import annotations

import pytest

from repro.gateway import GatewayApp, GatewayConfig
from repro.obs import Observability
from repro.serving import EngineHost


@pytest.fixture()
def gateway_obs() -> Observability:
    """A fully isolated telemetry bundle per test."""
    return Observability()


@pytest.fixture()
def gateway_host(small_grid, gateway_obs):
    """A host with one fast deployment over the 5x5 grid."""
    host = EngineHost(max_batch_size=64, obs=gateway_obs)
    host.deploy("prod", "td-h2h", small_grid)
    yield host
    host.close()


@pytest.fixture()
def gateway_app(gateway_host) -> GatewayApp:
    """An app with guardrails loose enough to stay out of the way."""
    return GatewayApp(
        gateway_host,
        config=GatewayConfig(rate_limit_qps=10_000.0, rate_limit_burst=10_000),
    )
