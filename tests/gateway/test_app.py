"""ASGI-level gateway tests: routes, guardrails, typed errors, streaming.

The app is exercised directly through fabricated ASGI scopes (no socket),
so every assertion points at application behaviour, not transport luck.
The wire layer gets its own suite in ``test_server.py``.
"""

from __future__ import annotations

import asyncio

from _asgi import asgi_request, call

from repro import create_engine
from repro.gateway import GatewayApp, GatewayConfig
from repro.obs import EVENT_GATEWAY_SHED, EVENT_RATE_LIMITED, PROMETHEUS_CONTENT_TYPE


class TestQuery:
    def test_answers_match_the_scalar_oracle_bitwise(
        self, gateway_app, small_grid
    ):
        oracle = create_engine("td-h2h", small_grid)
        vertices = sorted(small_grid.vertices())[:6]
        for source, target in zip(vertices, reversed(vertices)):
            result = call(
                gateway_app,
                "POST",
                "/v1/query",
                payload={
                    "source": source,
                    "target": target,
                    "departure": 120.5,
                },
            )
            assert result.status == 200
            expected = oracle.query(source, target, 120.5).cost
            # JSON float round-trip via repr is exact: the HTTP answer is
            # bit-identical to the in-process engine's.
            assert result.json()["cost"] == expected

    def test_response_echoes_the_resolved_request(self, gateway_app, small_grid):
        source, target = sorted(small_grid.vertices())[:2]
        result = call(
            gateway_app,
            "POST",
            "/v1/query",
            payload={"source": source, "target": target, "departure": 0.0},
        )
        body = result.json()
        assert body["deployment"] == "prod"
        assert body["source"] == source
        assert body["target"] == target
        assert body["departure"] == 0.0

    def test_missing_field_is_a_typed_400(self, gateway_app):
        result = call(
            gateway_app, "POST", "/v1/query", payload={"source": 0}
        )
        assert result.status == 400
        detail = result.json()["error"]
        assert detail["type"] == "BadRequestError"
        assert detail["status"] == 400
        assert detail["retryable"] is False

    def test_malformed_json_is_a_typed_400(self, gateway_app):
        async def run():
            return await asgi_request(gateway_app, "POST", "/v1/query")

        result = asyncio.run(run())
        # Empty body parses as {} → missing required fields → 400.
        assert result.status == 400
        assert result.json()["error"]["type"] == "BadRequestError"

    def test_unknown_vertex_is_a_typed_404(self, gateway_app):
        result = call(
            gateway_app,
            "POST",
            "/v1/query",
            payload={"source": 999_999, "target": 0, "departure": 0.0},
        )
        assert result.status == 404
        assert result.json()["error"]["type"] == "VertexNotFoundError"

    def test_unknown_deployment_is_a_typed_404(self, gateway_app):
        result = call(
            gateway_app,
            "POST",
            "/v1/query",
            payload={
                "deployment": "nope",
                "source": 0,
                "target": 1,
                "departure": 0.0,
            },
        )
        assert result.status == 404
        assert result.json()["error"]["type"] == "UnknownDeploymentError"

    def test_sole_deployment_is_the_default(self, gateway_app, small_grid):
        source, target = sorted(small_grid.vertices())[:2]
        result = call(
            gateway_app,
            "POST",
            "/v1/query",
            payload={"source": source, "target": target, "departure": 0.0},
        )
        assert result.json()["deployment"] == "prod"

    def test_ambiguous_default_is_a_400(
        self, gateway_host, gateway_app, small_grid
    ):
        gateway_host.deploy("canary", "td-basic", small_grid)
        source, target = sorted(small_grid.vertices())[:2]
        result = call(
            gateway_app,
            "POST",
            "/v1/query",
            payload={"source": source, "target": target, "departure": 0.0},
        )
        assert result.status == 400
        assert "canary" in result.json()["error"]["message"]

    def test_configured_default_deployment_wins(
        self, gateway_host, small_grid
    ):
        gateway_host.deploy("canary", "td-basic", small_grid)
        app = GatewayApp(
            gateway_host,
            config=GatewayConfig(default_deployment="canary"),
        )
        source, target = sorted(small_grid.vertices())[:2]
        result = call(
            app,
            "POST",
            "/v1/query",
            payload={"source": source, "target": target, "departure": 0.0},
        )
        assert result.status == 200
        assert result.json()["deployment"] == "canary"

    def test_oversized_body_is_a_400(self, gateway_host):
        app = GatewayApp(gateway_host, config=GatewayConfig(max_body_bytes=16))
        result = call(
            app,
            "POST",
            "/v1/query",
            payload={"source": 0, "target": 1, "departure": 0.0},
        )
        assert result.status == 400
        assert "16 bytes" in result.json()["error"]["message"]


class TestBatch:
    def test_mixed_results_with_inline_typed_errors(
        self, gateway_app, small_grid
    ):
        vertices = sorted(small_grid.vertices())
        oracle = create_engine("td-h2h", small_grid)
        result = call(
            gateway_app,
            "POST",
            "/v1/batch",
            payload={
                "queries": [
                    {
                        "source": vertices[0],
                        "target": vertices[-1],
                        "departure": 60.0,
                    },
                    {"source": 777_777, "target": vertices[0], "departure": 0.0},
                    {
                        "source": vertices[1],
                        "target": vertices[2],
                        "departure": 0.0,
                    },
                ]
            },
        )
        assert result.status == 200
        body = result.json()
        assert body["answered"] == 2
        assert body["failed"] == 1
        first, second, third = body["results"]
        assert (
            first["cost"]
            == oracle.query(vertices[0], vertices[-1], 60.0).cost
        )
        assert second["error"]["type"] == "VertexNotFoundError"
        assert second["error"]["status"] == 404
        assert (
            third["cost"] == oracle.query(vertices[1], vertices[2], 0.0).cost
        )

    def test_batch_size_bound_is_a_400(self, gateway_host):
        app = GatewayApp(gateway_host, config=GatewayConfig(max_batch_queries=2))
        query = {"source": 0, "target": 1, "departure": 0.0}
        result = call(
            app, "POST", "/v1/batch", payload={"queries": [query] * 3}
        )
        assert result.status == 400
        assert result.json()["error"]["type"] == "BadRequestError"


class TestProfile:
    def test_streams_meta_then_breakpoints(self, gateway_app, small_grid):
        vertices = sorted(small_grid.vertices())
        result = call(
            gateway_app,
            "POST",
            "/v1/profile",
            payload={"source": vertices[0], "target": vertices[-1]},
        )
        assert result.status == 200
        assert result.headers["content-type"].startswith("application/x-ndjson")
        lines = result.ndjson()
        meta, points = lines[0], lines[1:]
        assert meta["deployment"] == "prod"
        assert meta["source"] == vertices[0]
        assert meta["breakpoints"] == len(points)
        assert points, "profile produced no breakpoints"
        assert all(set(p) == {"t", "cost"} for p in points)
        times = [p["t"] for p in points]
        assert times == sorted(times)

    def test_stream_is_chunked_not_buffered(self, gateway_host, small_grid):
        app = GatewayApp(gateway_host, config=GatewayConfig(profile_chunk=2))
        vertices = sorted(small_grid.vertices())
        result = call(
            app,
            "POST",
            "/v1/profile",
            payload={"source": vertices[0], "target": vertices[-1]},
        )
        assert result.status == 200
        # meta + ceil(n/2) chunks + final empty message ⇒ several messages.
        assert result.body_messages > 2

    def test_profile_matches_the_oracle_function(
        self, gateway_app, small_grid
    ):
        oracle = create_engine("td-h2h", small_grid)
        vertices = sorted(small_grid.vertices())
        source, target = vertices[0], vertices[-1]
        result = call(
            gateway_app,
            "POST",
            "/v1/profile",
            payload={"source": source, "target": target},
        )
        points = result.ndjson()[1:]
        expected = oracle.profile(source, target).function
        assert [p["t"] for p in points] == [float(t) for t in expected.times]
        assert [p["cost"] for p in points] == [
            float(c) for c in expected.costs
        ]


class TestSwap:
    def test_swap_over_http_returns_the_report(self, gateway_app):
        result = call(
            gateway_app,
            "POST",
            "/v1/deployments/prod/swap",
            payload={"engine": "td-basic"},
        )
        assert result.status == 200
        body = result.json()
        assert body["deployment"] == "prod"
        assert body["new_spec"] == "td-basic"
        assert body["old_spec"] == "td-h2h"
        assert body["total_seconds"] >= 0.0

    def test_swap_unknown_deployment_is_404(self, gateway_app):
        result = call(
            gateway_app,
            "POST",
            "/v1/deployments/ghost/swap",
            payload={"engine": "td-basic"},
        )
        assert result.status == 404
        assert result.json()["error"]["type"] == "UnknownDeploymentError"

    def test_swap_route_rejects_other_methods(self, gateway_app):
        result = call(gateway_app, "GET", "/v1/deployments/prod/swap")
        assert result.status == 405


class TestIntrospection:
    def test_deployments_listing(self, gateway_app):
        result = call(gateway_app, "GET", "/v1/deployments")
        assert result.status == 200
        (info,) = result.json()["deployments"]
        assert info["name"] == "prod"
        assert info["spec"] == "td-h2h"
        assert info["health"] == "healthy"
        assert info["replicas"] >= 0  # 0 ⇒ in-process, no replica workers

    def test_health_ok_then_closed(self, gateway_host, gateway_app):
        result = call(gateway_app, "GET", "/health")
        assert result.status == 200
        body = result.json()
        assert body["status"] == "ok"
        assert body["deployments"]["prod"]["state"] == "healthy"
        gateway_host.close()
        result = call(gateway_app, "GET", "/health")
        assert result.status == 503
        assert result.json()["status"] == "closed"

    def test_stats_cover_host_and_gateway(self, gateway_app, small_grid):
        source, target = sorted(small_grid.vertices())[:2]
        call(
            gateway_app,
            "POST",
            "/v1/query",
            payload={"source": source, "target": target, "departure": 0.0},
        )
        result = call(gateway_app, "GET", "/stats")
        assert result.status == 200
        body = result.json()
        assert body["deployments"]["prod"]["queries_answered"] >= 1
        assert body["gateway"]["requests_total"] >= 1
        assert body["gateway"]["rate_limited_total"] == 0
        assert body["gateway"]["shed_total"] == 0
        assert body["gateway"]["in_flight"] == 0
        assert body["gateway"]["rate_limiter_clients"] >= 1

    def test_metrics_exposition(self, gateway_app, small_grid):
        source, target = sorted(small_grid.vertices())[:2]
        call(
            gateway_app,
            "POST",
            "/v1/query",
            payload={"source": source, "target": target, "departure": 0.0},
        )
        result = call(gateway_app, "GET", "/metrics")
        assert result.status == 200
        assert result.headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        text = result.body.decode("utf-8")
        assert "repro_gateway_requests_total" in text
        assert 'route="/v1/query"' in text

    def test_unknown_route_is_a_404_with_matching_body(self, gateway_app):
        result = call(gateway_app, "GET", "/nope")
        assert result.status == 404
        assert result.json()["error"]["status"] == 404

    def test_known_path_wrong_method_is_405(self, gateway_app):
        result = call(gateway_app, "GET", "/v1/query")
        assert result.status == 405
        assert result.json()["error"]["status"] == 405


class TestEdgeGuardrails:
    def test_rate_limit_denies_with_retry_after_and_event(
        self, gateway_host, gateway_obs, small_grid
    ):
        app = GatewayApp(
            gateway_host,
            config=GatewayConfig(rate_limit_qps=1.0, rate_limit_burst=1),
        )
        source, target = sorted(small_grid.vertices())[:2]
        payload = {"source": source, "target": target, "departure": 0.0}
        first = call(app, "POST", "/v1/query", payload=payload)
        assert first.status == 200
        second = call(app, "POST", "/v1/query", payload=payload)
        assert second.status == 429
        detail = second.json()["error"]
        assert detail["type"] == "RateLimitedError"
        assert detail["retryable"] is True
        assert detail["retry_after_ms"] > 0.0
        assert int(second.headers["retry-after"]) >= 1
        assert float(second.headers["retry-after-ms"]) > 0.0
        events = gateway_obs.events.events(EVENT_RATE_LIMITED)
        assert events and events[-1].fields["route"] == "/v1/query"

    def test_rate_limit_keys_on_client_id(self, gateway_host, small_grid):
        app = GatewayApp(
            gateway_host,
            config=GatewayConfig(rate_limit_qps=1.0, rate_limit_burst=1),
        )
        source, target = sorted(small_grid.vertices())[:2]
        payload = {"source": source, "target": target, "departure": 0.0}
        assert (
            call(
                app,
                "POST",
                "/v1/query",
                payload=payload,
                headers={"x-api-key": "alice"},
            ).status
            == 200
        )
        assert (
            call(
                app,
                "POST",
                "/v1/query",
                payload=payload,
                headers={"x-api-key": "alice"},
            ).status
            == 429
        )
        # A different key has its own untouched bucket.
        assert (
            call(
                app,
                "POST",
                "/v1/query",
                payload=payload,
                headers={"x-api-key": "bob"},
            ).status
            == 200
        )

    def test_shedding_at_the_in_flight_bound(
        self, gateway_host, gateway_obs, small_grid
    ):
        app = GatewayApp(gateway_host, config=GatewayConfig(max_in_flight=0))
        source, target = sorted(small_grid.vertices())[:2]
        result = call(
            app,
            "POST",
            "/v1/query",
            payload={"source": source, "target": target, "departure": 0.0},
        )
        assert result.status == 503
        detail = result.json()["error"]
        assert detail["type"] == "GatewayOverloadedError"
        assert detail["retryable"] is True
        assert "retry-after" in result.headers
        events = gateway_obs.events.events(EVENT_GATEWAY_SHED)
        assert events and events[-1].fields["max_in_flight"] == 0

    def test_shedding_spares_introspection_routes(self, gateway_host):
        app = GatewayApp(gateway_host, config=GatewayConfig(max_in_flight=0))
        assert call(app, "GET", "/health").status == 200
        assert call(app, "GET", "/stats").status == 200
        assert call(app, "GET", "/metrics").status == 200

    def test_bad_timeout_header_is_a_400(self, gateway_app, small_grid):
        source, target = sorted(small_grid.vertices())[:2]
        for bad in ("nope", "-5", "0"):
            result = call(
                gateway_app,
                "POST",
                "/v1/query",
                payload={"source": source, "target": target, "departure": 0.0},
                headers={"timeout-ms": bad},
            )
            assert result.status == 400, bad
            assert result.json()["error"]["type"] == "BadRequestError"

    def test_timeout_header_propagates_to_a_504(self, small_grid):
        from repro.obs import Observability
        from repro.serving import EngineHost

        obs = Observability()
        # Every engine call sleeps 150-300 ms, so the query is still inside
        # the engine when the 1 ms deadline the header requests elapses.
        host = EngineHost(max_batch_size=64, obs=obs)
        host.deploy("prod", "faulty:td-h2h?latency_every=1&latency_ms=300", small_grid)
        try:
            app = GatewayApp(host)
            source, target = sorted(small_grid.vertices())[:2]
            result = call(
                app,
                "POST",
                "/v1/query",
                payload={"source": source, "target": target, "departure": 0.0},
                headers={"timeout-ms": "1"},
            )
            assert result.status == 504
            detail = result.json()["error"]
            assert detail["type"] == "DeadlineExceededError"
            assert detail["retryable"] is True
        finally:
            host.close()


class TestObservability:
    def test_every_request_lands_in_the_trace_ring(
        self, gateway_app, gateway_obs, small_grid
    ):
        source, target = sorted(small_grid.vertices())[:2]
        call(
            gateway_app,
            "POST",
            "/v1/query",
            payload={"source": source, "target": target, "departure": 0.0},
            headers={"x-api-key": "tracer-test"},
        )
        spans = [t for t in gateway_obs.tracer.recent(50) if t.name == "http"]
        assert spans
        span = spans[-1]
        assert span.attrs["route"] == "/v1/query"
        assert span.attrs["client"] == "tracer-test"
        assert span.attrs["status"] == 200

    def test_error_responses_trace_as_errors(self, gateway_app, gateway_obs):
        call(gateway_app, "GET", "/nope")
        spans = [t for t in gateway_obs.tracer.recent(50) if t.name == "http"]
        assert spans[-1].attrs["status"] == 404

    def test_disabled_observability_still_serves(self, gateway_host, small_grid):
        from repro.obs import Observability

        app = GatewayApp(gateway_host, obs=Observability.disabled())
        source, target = sorted(small_grid.vertices())[:2]
        result = call(
            app,
            "POST",
            "/v1/query",
            payload={"source": source, "target": target, "departure": 0.0},
        )
        assert result.status == 200


class TestLifespan:
    def test_lifespan_protocol_completes(self, gateway_app):
        sent = []

        async def run():
            messages = iter(
                [
                    {"type": "lifespan.startup"},
                    {"type": "lifespan.shutdown"},
                ]
            )

            async def receive():
                return next(messages)

            async def send(message):
                sent.append(message["type"])

            await gateway_app({"type": "lifespan"}, receive, send)

        asyncio.run(run())
        assert sent == [
            "lifespan.startup.complete",
            "lifespan.shutdown.complete",
        ]
