"""The gateway ASGI application: HTTP routes over an :class:`EngineHost`.

:class:`GatewayApp` is a dependency-free ASGI 3 callable — run it under
uvicorn (``uvicorn.run(app)``), any other ASGI server, or the bundled
:mod:`repro.gateway.server` when no server package is installed.  It fronts
one :class:`~repro.serving.EngineHost` with JSON routes:

=======  =================================  =====================================
Method   Path                               Purpose
=======  =================================  =====================================
POST     ``/v1/query``                      one scalar cost query
POST     ``/v1/batch``                      many queries, per-item errors inline
POST     ``/v1/profile``                    whole cost function, streamed NDJSON
POST     ``/v1/deployments/{name}/swap``    zero-downtime engine swap
POST     ``/v1/deployments/{name}/updates``  ingest live edge-weight updates
GET      ``/v1/deployments``                active deployments + specs
GET      ``/health``                        per-deployment health states
GET      ``/stats``                         per-deployment ``ServiceStats``
GET      ``/metrics``                       Prometheus text exposition
=======  =================================  =====================================

The network-edge guardrails the host itself cannot provide sit in front of
the ``/v1/*`` POST routes: a per-client token-bucket rate limiter (429 +
``Retry-After``), a gateway-level in-flight bound with load shedding (503 +
``Retry-After`` — rejecting at the edge is cheaper than queueing into the
host's admission queue just to be shed there), and per-request deadline
propagation from the ``timeout-ms`` header into ``deadline_ms``.  Every
typed serving error maps to a stable status with a machine-readable body
(:mod:`repro.gateway.errors`), every request lands in the shared
:class:`~repro.obs.Tracer` ring, and edge rejections emit structured events.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, AsyncIterator, Awaitable, Callable, MutableMapping

from repro.exceptions import (
    NoTrafficControllerError,
    ServiceClosedError,
    UnknownDeploymentError,
    UnsupportedCapabilityError,
)
from repro.gateway.codecs import (
    json_bytes,
    parse_batch_payload,
    parse_json_body,
    parse_profile_payload,
    parse_query_payload,
    parse_swap_payload,
    parse_timeout_ms,
    parse_updates_payload,
)
from repro.gateway.errors import (
    BadRequestError,
    error_body,
    retry_after_headers,
    status_for,
)
from repro.gateway.ratelimit import RateLimiter, _advisory_ms
from repro.obs import (
    EVENT_GATEWAY_SHED,
    EVENT_RATE_LIMITED,
    PROMETHEUS_CONTENT_TYPE,
    STATUS_ERROR,
    STATUS_OK,
    Observability,
)
from repro.serving import EngineHost, aretry_submit

__all__ = ["GatewayApp", "GatewayConfig"]

# ASGI 3 protocol surface, spelled out (no asgiref dependency).
Scope = MutableMapping[str, Any]
Message = MutableMapping[str, Any]
Receive = Callable[[], Awaitable[Message]]
Send = Callable[[Message], Awaitable[None]]

_JSON = "application/json; charset=utf-8"
_NDJSON = "application/x-ndjson; charset=utf-8"


@dataclass(frozen=True)
class GatewayConfig:
    """Network-edge policy knobs (the host's own knobs stay on the host)."""

    #: Gateway-level admission bound: requests in flight past this are shed
    #: with 503 before touching the host.
    max_in_flight: int = 256
    #: Per-client steady-state requests/second (token-bucket refill rate).
    rate_limit_qps: float = 50.0
    #: Per-client burst capacity (bucket size).
    rate_limit_burst: int = 100
    #: Bound on distinct rate-limiter buckets (LRU-evicted past it).
    rate_limit_max_clients: int = 10_000
    #: Deadline applied when a request carries no ``timeout-ms`` header;
    #: None defers to the host/service default.
    default_deadline_ms: float | None = None
    #: Largest accepted request body.
    max_body_bytes: int = 1_048_576
    #: Largest accepted ``/v1/batch`` query list.
    max_batch_queries: int = 1024
    #: Largest accepted ``/v1/deployments/{name}/updates`` batch.
    max_updates: int = 4096
    #: Breakpoints per streamed chunk on ``/v1/profile``.
    profile_chunk: int = 256
    #: Deployment used when a request names none; None falls back to the
    #: host's sole active deployment (ambiguity is a 400).
    default_deployment: str | None = None


class _Response:
    """One handler's outcome: a JSON body or a chunked byte stream."""

    __slots__ = ("status", "body", "content_type", "headers", "stream")

    def __init__(
        self,
        status: int,
        body: bytes = b"",
        *,
        content_type: str = _JSON,
        headers: list[tuple[str, str]] | None = None,
        stream: AsyncIterator[bytes] | None = None,
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = headers if headers is not None else []
        self.stream = stream


def _json_response(
    status: int, payload: dict[str, Any], headers: list[tuple[str, str]] | None = None
) -> _Response:
    return _Response(status, json_bytes(payload), headers=headers)


def _error_response(
    error: BaseException, *, retry_after_ms: float | None = None
) -> _Response:
    status = status_for(error)
    headers = (
        retry_after_headers(retry_after_ms) if retry_after_ms is not None else []
    )
    return _Response(
        status,
        json_bytes(error_body(error, retry_after_ms=retry_after_ms)),
        headers=headers,
    )


class GatewayApp:
    """ASGI application serving one :class:`~repro.serving.EngineHost`.

    The app does not own the host: callers build, deploy into, and close the
    host themselves (the app is just its network face), so one host can sit
    behind several transports at once.  ``obs`` defaults to the host's own
    bundle, putting gateway metrics, events, and traces in the same registry
    the host already publishes to — one ``/metrics`` scrape covers the whole
    stack.
    """

    def __init__(
        self,
        host: EngineHost,
        *,
        config: GatewayConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        self._host = host
        self._config = config if config is not None else GatewayConfig()
        self._obs = obs if obs is not None else host.obs
        #: Deployment name → attached TrafficController (the ``/updates``
        #: ingest route).  Typed ``Any`` so the gateway package never imports
        #: :mod:`repro.traffic` — attachment is the caller's choice.
        self._controllers: dict[str, Any] = {}
        self._limiter = RateLimiter(
            self._config.rate_limit_qps,
            self._config.rate_limit_burst,
            max_clients=self._config.rate_limit_max_clients,
            clock=self._obs.clock,
        )
        self._in_flight = 0
        #: Consecutive gateway-level sheds; drives the 503 Retry-After
        #: escalation the same way per-client denial streaks drive the 429's.
        self._shed_streak = 0
        #: Plain lifetime totals, served by ``/stats`` even when telemetry
        #: is disabled (the registry twins carry the per-route labels).
        self._requests_total = 0
        self._rate_limited_total = 0
        self._shed_total = 0
        if self._obs.enabled:
            registry = self._obs.registry
            self._m_requests = registry.counter(
                "repro_gateway_requests_total",
                "HTTP requests answered, by route and status code.",
                ("route", "code"),
            )
            self._m_latency = registry.histogram(
                "repro_gateway_latency_ms",
                "HTTP request latency (receive to response start), ms.",
                ("route",),
            )
            self._m_in_flight = registry.gauge(
                "repro_gateway_in_flight",
                "Guarded requests currently inside the gateway.",
            )
            self._m_rate_limited = registry.counter(
                "repro_gateway_rate_limited_total",
                "Requests denied by the per-client rate limiter.",
                ("route",),
            )
            self._m_shed = registry.counter(
                "repro_gateway_shed_total",
                "Requests shed at the gateway's in-flight bound.",
                ("route",),
            )
        else:
            self._m_requests = None
            self._m_latency = None
            self._m_in_flight = None
            self._m_rate_limited = None
            self._m_shed = None

    # ------------------------------------------------------------------
    # Traffic controller attachment
    # ------------------------------------------------------------------
    def attach_controller(self, controller: Any) -> None:
        """Expose a :class:`~repro.traffic.TrafficController` over HTTP.

        After attachment, ``POST /v1/deployments/{name}/updates`` feeds the
        controller for ``controller.deployment``.  The gateway does not own
        the controller's lifecycle (start/stop/close stay with the caller),
        mirroring how it fronts but does not own the host.
        """
        self._controllers[str(controller.deployment)] = controller

    def detach_controller(self, name: str) -> Any:
        """Unregister the controller for ``name`` and return it."""
        controller = self._controllers.pop(name, None)
        if controller is None:
            raise NoTrafficControllerError(name, tuple(sorted(self._controllers)))
        return controller

    def _controller(self, name: str) -> Any:
        controller = self._controllers.get(name)
        if controller is None:
            raise NoTrafficControllerError(name, tuple(sorted(self._controllers)))
        return controller

    # ------------------------------------------------------------------
    # ASGI entry point
    # ------------------------------------------------------------------
    async def __call__(self, scope: Scope, receive: Receive, send: Send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws etc.
            raise RuntimeError(f"unsupported ASGI scope type {scope['type']!r}")
        started = self._obs.clock.monotonic()
        method = str(scope["method"]).upper()
        path = str(scope["path"])
        headers = self._header_map(scope)
        route, handler, guarded = self._route(method, path)
        trace = (
            self._obs.tracer.trace(
                "http",
                method=method,
                route=route,
                client=self._client_id(headers),
            )
            if self._obs.enabled
            else None
        )
        try:
            if handler is None:
                # `route != path` means a pattern (the swap route) matched
                # but the method did not; exact paths are checked directly.
                method_known = route != path or any(
                    p == path for _m, p in _EXACT_ROUTES
                )
                status = 405 if method_known else 404
                detail = (
                    f"method {method} not allowed on {path}"
                    if method_known
                    else f"no route for {method} {path}"
                )
                response = _Response(
                    status,
                    json_bytes(
                        {
                            "error": {
                                "type": "BadRequestError",
                                "message": detail,
                                "status": status,
                                "retryable": False,
                            }
                        }
                    ),
                )
            elif guarded:
                response = await self._guarded(
                    route, handler, headers, receive, send
                )
            else:
                body = await self._read_body(receive)
                response = await handler(headers, body, path)
        except Exception as exc:  # the transport must always get an answer
            response = _error_response(exc)
        await self._send_response(send, response)
        elapsed_ms = (self._obs.clock.monotonic() - started) * 1000.0
        self._requests_total += 1
        if self._m_requests is not None:
            self._m_requests.inc(1.0, route=route, code=str(response.status))
        if self._m_latency is not None:
            self._m_latency.observe(elapsed_ms, route=route)
        if trace is not None:
            trace.attrs["status"] = response.status
            if response.status >= 400:
                trace.finish(STATUS_ERROR, detail=str(response.status))
            else:
                trace.finish(STATUS_OK)

    async def _lifespan(self, receive: Receive, send: Send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    # ------------------------------------------------------------------
    # Edge guardrails
    # ------------------------------------------------------------------
    async def _guarded(
        self,
        route: str,
        handler: "_Handler",
        headers: dict[str, str],
        receive: Receive,
        send: Send,
    ) -> _Response:
        """Rate limit, then bound in-flight work, then run the handler."""
        client = self._client_id(headers)
        decision = self._limiter.check(client)
        if not decision.allowed:
            self._rate_limited_total += 1
            if self._m_rate_limited is not None:
                self._m_rate_limited.inc(1.0, route=route)
            if self._obs.enabled:
                self._obs.events.emit(
                    EVENT_RATE_LIMITED,
                    client,
                    route=route,
                    retry_after_ms=decision.retry_after_ms,
                    denials=decision.denials,
                )
            body = {
                "error": {
                    "type": "RateLimitedError",
                    "message": (
                        f"client {client!r} exceeded "
                        f"{self._limiter.rate_per_second:g} requests/s "
                        f"(burst {self._limiter.burst}); back off and retry"
                    ),
                    "status": 429,
                    "retryable": True,
                    "retry_after_ms": decision.retry_after_ms,
                }
            }
            return _Response(
                429,
                json_bytes(body),
                headers=retry_after_headers(decision.retry_after_ms),
            )
        if self._in_flight >= self._config.max_in_flight:
            self._shed_total += 1
            self._shed_streak += 1
            retry_after_ms = _advisory_ms("gateway-shed", self._shed_streak)
            if self._m_shed is not None:
                self._m_shed.inc(1.0, route=route)
            if self._obs.enabled:
                self._obs.events.emit(
                    EVENT_GATEWAY_SHED,
                    route,
                    in_flight=self._in_flight,
                    max_in_flight=self._config.max_in_flight,
                    retry_after_ms=retry_after_ms,
                )
            body = {
                "error": {
                    "type": "GatewayOverloadedError",
                    "message": (
                        f"gateway at capacity ({self._in_flight} requests in "
                        "flight): request shed — back off and retry"
                    ),
                    "status": 503,
                    "retryable": True,
                    "retry_after_ms": retry_after_ms,
                }
            }
            return _Response(
                503, json_bytes(body), headers=retry_after_headers(retry_after_ms)
            )
        self._in_flight += 1
        if self._m_in_flight is not None:
            self._m_in_flight.set(float(self._in_flight))
        try:
            body_bytes = await self._read_body(receive)
            response = await handler(headers, body_bytes, "")
            self._shed_streak = 0
            return response
        finally:
            self._in_flight -= 1
            if self._m_in_flight is not None:
                self._m_in_flight.set(float(self._in_flight))

    @staticmethod
    def _client_id(headers: dict[str, str]) -> str:
        return headers.get("x-api-key") or headers.get("x-client-id") or "anonymous"

    def _deadline_ms(self, headers: dict[str, str]) -> float | None:
        deadline = parse_timeout_ms(headers.get("timeout-ms"))
        return deadline if deadline is not None else self._config.default_deadline_ms

    async def _read_body(self, receive: Receive) -> bytes:
        chunks: list[bytes] = []
        total = 0
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                raise BadRequestError("client disconnected before the body ended")
            chunk = message.get("body", b"")
            if chunk:
                total += len(chunk)
                if total > self._config.max_body_bytes:
                    raise BadRequestError(
                        f"request body exceeds {self._config.max_body_bytes} bytes"
                    )
                chunks.append(chunk)
            if not message.get("more_body", False):
                return b"".join(chunks)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(
        self, method: str, path: str
    ) -> tuple[str, "_Handler | None", bool]:
        """Resolve ``(route label, handler, guarded)`` for one request."""
        if path.startswith("/v1/deployments/") and path.endswith("/swap"):
            name = path[len("/v1/deployments/") : -len("/swap")]
            if name and "/" not in name:
                route = "/v1/deployments/{name}/swap"
                if method != "POST":
                    return route, None, False

                async def _swap_bound(
                    headers: dict[str, str], body: bytes, _path: str
                ) -> _Response:
                    return await self._swap(name, body)

                return route, _swap_bound, True
        if path.startswith("/v1/deployments/") and path.endswith("/updates"):
            name = path[len("/v1/deployments/") : -len("/updates")]
            if name and "/" not in name:
                route = "/v1/deployments/{name}/updates"
                if method != "POST":
                    return route, None, False

                async def _updates_bound(
                    headers: dict[str, str], body: bytes, _path: str
                ) -> _Response:
                    return await self._updates(name, body)

                return route, _updates_bound, True
        exact = _EXACT_ROUTES.get((method, path))
        if exact is not None:
            handler_name, guarded = exact
            handler: _Handler = getattr(self, handler_name)
            return path, handler, guarded
        return path, None, False

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _query(
        self, headers: dict[str, str], body: bytes, _path: str
    ) -> _Response:
        source, target, departure, requested = parse_query_payload(
            parse_json_body(body)
        )
        deployment = self._resolve_deployment(requested)
        deadline_ms = self._deadline_ms(headers)
        cost = await aretry_submit(
            lambda: self._host.aquery(
                deployment, source, target, departure, deadline_ms=deadline_ms
            )
        )
        return _json_response(
            200,
            {
                "deployment": deployment,
                "source": source,
                "target": target,
                "departure": departure,
                "cost": cost,
            },
        )

    async def _batch(
        self, headers: dict[str, str], body: bytes, _path: str
    ) -> _Response:
        queries, requested = parse_batch_payload(
            parse_json_body(body), max_queries=self._config.max_batch_queries
        )
        deployment = self._resolve_deployment(requested)
        deadline_ms = self._deadline_ms(headers)

        async def _one(source: int, target: int, departure: float) -> dict[str, Any]:
            try:
                cost = await aretry_submit(
                    lambda: self._host.aquery(
                        deployment, source, target, departure, deadline_ms=deadline_ms
                    )
                )
                return {"cost": cost}
            except Exception as exc:
                return dict(error_body(exc))

        results = await asyncio.gather(*(_one(s, t, d) for s, t, d in queries))
        failed = sum(1 for r in results if "error" in r)
        return _json_response(
            200,
            {
                "deployment": deployment,
                "results": list(results),
                "answered": len(results) - failed,
                "failed": failed,
            },
        )

    async def _profile(
        self, headers: dict[str, str], body: bytes, _path: str
    ) -> _Response:
        source, target, requested = parse_profile_payload(parse_json_body(body))
        deployment = self._resolve_deployment(requested)
        engine = self._host.deployment(deployment).engine
        profile_fn = getattr(engine, "profile", None)
        if profile_fn is None:
            raise UnsupportedCapabilityError(
                str(getattr(engine, "name", type(engine).__name__)), "profile"
            )
        # The profile computes off the loop: a big cost function takes real
        # CPU time and must not stall concurrent /v1/query traffic.
        profile = await asyncio.to_thread(profile_fn, source, target)
        times = [float(t) for t in profile.function.times]
        costs = [float(c) for c in profile.function.costs]
        meta = {
            "deployment": deployment,
            "engine": profile.engine,
            "source": source,
            "target": target,
            "breakpoints": len(times),
        }
        chunk_size = max(self._config.profile_chunk, 1)

        async def _stream() -> AsyncIterator[bytes]:
            yield json_bytes(meta) + b"\n"
            for start in range(0, len(times), chunk_size):
                lines = [
                    json_bytes({"t": t, "cost": c}) + b"\n"
                    for t, c in zip(
                        times[start : start + chunk_size],
                        costs[start : start + chunk_size],
                    )
                ]
                yield b"".join(lines)

        return _Response(200, content_type=_NDJSON, stream=_stream())

    async def _swap(self, name: str, body: bytes) -> _Response:
        spec = parse_swap_payload(parse_json_body(body))
        report = await self._host.aswap(name, spec)
        return _json_response(
            200,
            {
                "deployment": report.deployment,
                "old_spec": report.old_spec,
                "new_spec": report.new_spec,
                "build_seconds": report.build_seconds,
                "switch_seconds": report.switch_seconds,
                "drain_seconds": report.drain_seconds,
                "drained_queries": report.drained_queries,
                "total_seconds": report.total_seconds,
            },
        )

    async def _updates(self, name: str, body: bytes) -> _Response:
        updates, apply_now = parse_updates_payload(
            parse_json_body(body), max_updates=self._config.max_updates
        )
        controller = self._controller(name)

        # Ingestion touches graph state (baseline capture) and locks; the
        # optional synchronous step runs a full control action.  Both stay
        # off the event loop so concurrent query traffic keeps flowing.
        def _ingest() -> int:
            for source, target, delay, weight in updates:
                if weight is not None:
                    controller.stream.emit(source, target, weight)
                else:
                    controller.emit_delay(source, target, float(delay or 0.0))
            return len(updates)

        ingested = await asyncio.to_thread(_ingest)
        payload: dict[str, Any] = {
            "deployment": name,
            "ingested": ingested,
            "pending_stream": controller.stream.pending,
            "pending_edges": controller.pending_edges,
        }
        if not apply_now:
            # Accepted for the controller's own loop to apply — 202.
            return _json_response(202, payload)
        report = await asyncio.to_thread(controller.step)
        if report is not None:
            payload["applied"] = {
                "action": report.action,
                "raw_updates": report.raw_updates,
                "coalesced_edges": report.coalesced_edges,
                "seconds": report.seconds,
                "staleness_p50_s": report.staleness_p50_s,
                "staleness_max_s": report.staleness_max_s,
            }
            payload["pending_edges"] = controller.pending_edges
        return _json_response(200, payload)

    async def _deployments(
        self, headers: dict[str, str], body: bytes, _path: str
    ) -> _Response:
        infos = [
            self._host.deployment(name) for name in self._host.deployments()
        ]
        return _json_response(
            200,
            {
                "deployments": [
                    {
                        "name": info.name,
                        "spec": info.spec,
                        "swap_count": info.swap_count,
                        "fallback_spec": info.fallback_spec,
                        "health": info.health.name.lower(),
                        "replicas": info.replicas,
                    }
                    for info in infos
                ]
            },
        )

    async def _health(
        self, headers: dict[str, str], body: bytes, _path: str
    ) -> _Response:
        reports = self._host.health()
        payload = {
            "status": "closed" if self._host.closed else "ok",
            "deployments": {
                name: {
                    "state": report.state.name.lower(),
                    "cause": report.cause,
                    "worker_restarts": report.worker_restarts,
                    "replicas": report.replicas,
                    "replicas_alive": report.replicas_alive,
                }
                for name, report in reports.items()
            },
        }
        return _json_response(503 if self._host.closed else 200, payload)

    async def _stats(
        self, headers: dict[str, str], body: bytes, _path: str
    ) -> _Response:
        stats = self._host.stats()
        return _json_response(
            200,
            {
                "deployments": {
                    name: snapshot.to_dict() for name, snapshot in stats.items()
                },
                "gateway": {
                    "requests_total": self._requests_total,
                    "rate_limited_total": self._rate_limited_total,
                    "shed_total": self._shed_total,
                    "in_flight": self._in_flight,
                    "rate_limiter_clients": len(self._limiter),
                },
            },
        )

    async def _metrics(
        self, headers: dict[str, str], body: bytes, _path: str
    ) -> _Response:
        text = self._host.metrics_text()
        return _Response(
            200, text.encode("utf-8"), content_type=PROMETHEUS_CONTENT_TYPE
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _resolve_deployment(self, requested: str | None) -> str:
        if self._host.closed:
            # A drained host must read as 503 (retry elsewhere), never as
            # 404 just because its deployment table emptied on close.
            raise ServiceClosedError()
        if requested is not None:
            return requested
        if self._config.default_deployment is not None:
            return self._config.default_deployment
        names = self._host.deployments()
        if len(names) == 1:
            return names[0]
        if not names:
            raise UnknownDeploymentError("default", ())
        raise BadRequestError(
            "request names no deployment and several are active: "
            + ", ".join(names)
        )

    @staticmethod
    def _header_map(scope: Scope) -> dict[str, str]:
        headers: dict[str, str] = {}
        for raw_name, raw_value in scope.get("headers", ()):
            headers[bytes(raw_name).decode("latin-1").lower()] = bytes(
                raw_value
            ).decode("latin-1")
        return headers

    async def _send_response(self, send: Send, response: _Response) -> None:
        headers = [("content-type", response.content_type), *response.headers]
        if response.stream is None:
            headers.append(("content-length", str(len(response.body))))
        await send(
            {
                "type": "http.response.start",
                "status": response.status,
                "headers": [
                    (name.encode("latin-1"), value.encode("latin-1"))
                    for name, value in headers
                ],
            }
        )
        if response.stream is None:
            await send({"type": "http.response.body", "body": response.body})
            return
        async for chunk in response.stream:
            await send(
                {"type": "http.response.body", "body": chunk, "more_body": True}
            )
        await send({"type": "http.response.body", "body": b"", "more_body": False})


_Handler = Callable[[dict[str, str], bytes, str], Awaitable[_Response]]

#: (method, path) → (handler attribute, guarded).  GET introspection routes
#: bypass the limiter and the in-flight bound: they must answer *especially*
#: under overload — that is when operators need them.
_EXACT_ROUTES: dict[tuple[str, str], tuple[str, bool]] = {
    ("POST", "/v1/query"): ("_query", True),
    ("POST", "/v1/batch"): ("_batch", True),
    ("POST", "/v1/profile"): ("_profile", True),
    ("GET", "/v1/deployments"): ("_deployments", False),
    ("GET", "/health"): ("_health", False),
    ("GET", "/stats"): ("_stats", False),
    ("GET", "/metrics"): ("_metrics", False),
}
