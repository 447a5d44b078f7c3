"""HTTP gateway: the network front end of the serving stack.

Everything below :mod:`repro.serving` is pull-from-Python-callers; this
package puts the stack on a socket.  Three layers, each importable alone:

* :mod:`repro.gateway.app` — :class:`GatewayApp`, a dependency-free ASGI 3
  application over one :class:`~repro.serving.EngineHost`: JSON routes for
  query/batch/profile/swap/introspection, per-client token-bucket rate
  limiting (:mod:`repro.gateway.ratelimit`), gateway-level load shedding,
  ``timeout-ms`` → deadline propagation, and typed-error → HTTP-status
  mapping (:mod:`repro.gateway.errors`);
* :mod:`repro.gateway.server` — a bundled asyncio HTTP/1.1 server
  (:func:`serve_in_background` for tests/benchmarks), so nothing needs
  uvicorn — though the app runs under uvicorn unchanged;
* :mod:`repro.gateway.client` — a minimal asyncio client for the open-loop
  load generator and the examples.

Quick start::

    from repro.serving import EngineHost
    from repro.gateway import GatewayApp, GatewayConfig, serve_in_background

    host = EngineHost()
    host.deploy("prod", "td-h2h", graph)
    app = GatewayApp(host, config=GatewayConfig(rate_limit_qps=100.0))
    with serve_in_background(app) as handle:
        print(handle.url)        # e.g. http://127.0.0.1:49152
        ...                      # curl $url/v1/query, /metrics, /health
    host.close()
"""

from repro.gateway.app import GatewayApp, GatewayConfig
from repro.gateway.client import GatewayClient, GatewayResponse
from repro.gateway.errors import (
    RETRYABLE_STATUSES,
    STATUS_BY_ERROR,
    BadRequestError,
    error_body,
    retry_after_headers,
    status_for,
)
from repro.gateway.ratelimit import RateDecision, RateLimiter, TokenBucket
from repro.gateway.server import GatewayServer, ServerHandle, serve_in_background

__all__ = [
    # app
    "GatewayApp",
    "GatewayConfig",
    # transport
    "GatewayServer",
    "ServerHandle",
    "serve_in_background",
    "GatewayClient",
    "GatewayResponse",
    # error contract
    "BadRequestError",
    "STATUS_BY_ERROR",
    "RETRYABLE_STATUSES",
    "status_for",
    "error_body",
    "retry_after_headers",
    # rate limiting
    "RateLimiter",
    "RateDecision",
    "TokenBucket",
]
