#!/usr/bin/env python
"""Gateway walkthrough: serve a deployment over HTTP and hammer it.

The network edge the ``repro.gateway`` subsystem adds on top of
``EngineHost``:

1. deploy an engine on a host, wrap it in a :class:`~repro.gateway.GatewayApp`
   (a dependency-free ASGI app), and start the bundled asyncio HTTP/1.1
   server on an ephemeral port — under uvicorn the same app object works
   unchanged,
2. hammer it from an async client: single queries, a batch, a streamed
   profile, and a hot swap — all JSON over keep-alive connections, every
   answer bit-identical to the engine's own ``query``,
3. watch the edge guardrails fire: a burst from one API key trips the
   per-client token bucket (429 + ``Retry-After``), and a ``timeout-ms``
   header propagates as a server-side deadline,
4. read the observability surface: ``/stats`` (host + gateway counters) and
   ``/metrics`` (Prometheus text from the shared ``repro.obs`` registry).

Run it with::

    python examples/gateway_walkthrough.py
"""

from __future__ import annotations

import asyncio

from repro import create_engine
from repro.gateway import (
    GatewayApp,
    GatewayClient,
    GatewayConfig,
    serve_in_background,
)
from repro.graph import grid_network
from repro.serving import EngineHost


async def hammer(handle, engine, graph) -> None:
    vertices = sorted(graph.vertices())
    source, target = vertices[0], vertices[-1]

    async with GatewayClient(handle.host, handle.port) as client:
        # 2a. One query; the HTTP answer is bit-identical to the engine's.
        response = await client.request(
            "POST",
            "/v1/query",
            payload={"source": source, "target": target, "departure": 8.5 * 3600},
        )
        cost = response.json()["cost"]
        assert cost == engine.query(source, target, 8.5 * 3600).cost
        print(f"query:   {source} -> {target} at 08:30 costs {cost:.2f}")

        # 2b. A batch: one request, one answer per query, typed inline errors.
        batch = await client.request(
            "POST",
            "/v1/batch",
            payload={
                "queries": [
                    {"source": source, "target": target, "departure": d}
                    for d in (0.0, 21_600.0, 43_200.0)
                ]
            },
        )
        costs = [r["cost"] for r in batch.json()["results"]]
        print(f"batch:   3 departures -> costs {[f'{c:.2f}' for c in costs]}")

        # 2c. A travel-time profile, streamed as NDJSON chunks.
        profile = await client.request(
            "POST",
            "/v1/profile",
            payload={"source": source, "target": target},
        )
        lines = profile.ndjson()
        print(f"profile: {lines[0]['breakpoints']} breakpoints streamed")

        # 2d. A hot swap over HTTP — zero downtime, reported timings.
        swap = await client.request(
            "POST",
            "/v1/deployments/prod/swap",
            payload={"engine": "td-basic"},
        )
        report = swap.json()
        print(
            f"swap:    {report['old_spec']} -> {report['new_spec']} "
            f"in {report['total_seconds'] * 1000:.1f} ms"
        )

        # 3a. Burst past the per-client budget: typed 429s with Retry-After.
        denied = 0
        retry_after_ms = 0.0
        for _ in range(40):
            r = await client.request(
                "POST",
                "/v1/query",
                payload={"source": source, "target": target, "departure": 0.0},
                headers={"x-api-key": "impatient-user"},
            )
            if r.status == 429:
                denied += 1
                retry_after_ms = r.json()["error"]["retry_after_ms"]
        print(
            f"limiter: {denied}/40 burst requests answered 429 "
            f"(last Retry-After {retry_after_ms:.0f} ms)"
        )

        # 3b. A deadline shorter than the slow deployment's engine call
        #     comes back as a typed 504 — the ``timeout-ms`` header
        #     propagated server-side and expired while the query computed.
        rushed = await client.request(
            "POST",
            "/v1/query",
            payload={
                "source": source,
                "target": target,
                "departure": 0.0,
                "deployment": "slow",
            },
            headers={"timeout-ms": "10"},
        )
        print(
            f"deadline: timeout-ms=10 against the slow deployment -> "
            f"{rushed.status} {rushed.json()['error']['type']}"
        )

        # 4. The observability surface.
        stats = (await client.request("GET", "/stats")).json()
        gateway = stats["gateway"]
        print(
            f"stats:   {gateway['requests_total']} requests, "
            f"{gateway['rate_limited_total']} rate-limited, "
            f"{gateway['shed_total']} shed"
        )
        metrics = await client.request("GET", "/metrics")
        sample = [
            line
            for line in metrics.body.decode().splitlines()
            if line.startswith("repro_gateway_requests_total")
        ]
        print(f"metrics: {len(sample)} gateway request counter series")


def main() -> None:
    # 1. A host with two deployments — "prod", and a "slow" twin whose
    #    injected 100-200 ms engine latency exists purely to demo deadline
    #    expiry — fronted by the gateway; unnamed requests route to "prod".
    graph = grid_network(8, 8, num_points=3, seed=11)
    engine = create_engine("td-h2h", graph)
    host = EngineHost(max_batch_size=64)
    host.deploy("prod", engine)
    host.deploy("slow", "faulty:td-h2h?latency_every=1&latency_ms=200", graph)
    app = GatewayApp(
        host,
        config=GatewayConfig(
            rate_limit_qps=5.0,
            rate_limit_burst=10,
            default_deployment="prod",
        ),
    )
    try:
        with serve_in_background(app) as handle:
            print(f"serving: {handle.url} (bundled asyncio HTTP/1.1 server)")
            asyncio.run(hammer(handle, engine, graph))
    finally:
        host.close()
    print("done.")


if __name__ == "__main__":
    main()
