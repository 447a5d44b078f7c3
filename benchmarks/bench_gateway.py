"""HTTP gateway benchmark: open-loop traffic at 2x closed-loop capacity.

The "millions of users" simulation from the ROADMAP north star, shrunk to a
loopback socket: a Poisson arrival process with a heavy-tailed client mix
(zipf over API keys — a few hot clients dominate, as real traffic does) and
a heavy-tailed OD mix drives the bundled HTTP/1.1 server at **twice** the
capacity a closed-loop run just measured.  The edge guardrails are armed —
a per-client token-bucket limiter and a bounded in-flight gate — so the
overload has to come out somewhere *typed*:

* every offered request settles in exactly one recorded outcome — answered,
  rate-limited (429), shed (503), or deadline-expired (504) — with **zero**
  never-settled requests and zero dropped connections;
* every 429 and every shed 503 carries ``Retry-After`` guidance;
* every answered cost is bit-identical to the scalar oracle
  (``index.query``), heavy-tailed repetition and JSON round-trips included.

The capacity, offered rate, outcome counts, and open-loop latency
percentiles (measured from *arrival*, queueing delay included) land in
``results/BENCH_gateway.json``; the qps/p99 headline appends to
``results/BENCH_history.jsonl``.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.gateway import (
    GatewayApp,
    GatewayClient,
    GatewayConfig,
    serve_in_background,
)
from repro.obs import Observability
from repro.serving import EngineHost

from harness import built_index, register_report, workload_for

DATASET = "CAL"
C = 3

#: Closed-loop capacity probe: this many keep-alive connections, each
#: hammering sequentially (matches the bounded in-flight budget below).
CAPACITY_CONNECTIONS = 8
CAPACITY_REQUESTS = 600
#: Open-loop load: the offered window aims for ~0.8 s at 2x capacity,
#: capped so a fast machine doesn't turn the bench into a soak test.
OVERLOAD_FACTOR = 2.0
MAX_OFFERED = 1_600
#: Simulated user population and its zipf skew (client mix, OD mix).
NUM_CLIENTS = 64
CLIENT_ZIPF = 1.5
OD_ZIPF = 1.2
#: Keep-alive connections per simulated user (a browser's small pool).
CONNECTIONS_PER_CLIENT = 4
#: Per-client limiter: generous enough that only the zipf-hot clients trip
#: it, so both guardrails (429 and shed) are exercised by the same run.
RATE_LIMIT_QPS = 200.0
RATE_LIMIT_BURST = 100
#: In-flight budget sized to the concurrency the capacity was measured at:
#: offered load beyond capacity therefore has to shed, by Little's law.
MAX_IN_FLIGHT = CAPACITY_CONNECTIONS
#: Per-request deadline propagated via the ``timeout-ms`` header.
REQUEST_DEADLINE_MS = 2_000.0
#: Hard settle bound; tripping it is the never-settled failure mode.
SETTLE_TIMEOUT_S = 30.0
#: A run where a guardrail stayed cold is re-measured before it may fail.
MEASUREMENT_ATTEMPTS = 3

#: Wide-open edge for the capacity probe — capacity means *without* guardrails.
LOOSE_EDGE = GatewayConfig(
    max_in_flight=100_000,
    rate_limit_qps=1e9,
    rate_limit_burst=1_000_000,
)
GUARDED_EDGE = GatewayConfig(
    max_in_flight=MAX_IN_FLIGHT,
    rate_limit_qps=RATE_LIMIT_QPS,
    rate_limit_burst=RATE_LIMIT_BURST,
)


def _zipf_probabilities(n: int, skew: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-skew
    return weights / weights.sum()


def _payloads_and_oracle(index):
    """The Fig. 8 workload as JSON payloads plus scalar-oracle costs."""
    queries = list(workload_for(DATASET, C))
    payloads = [
        {"source": q.source, "target": q.target, "departure": q.departure}
        for q in queries
    ]
    oracle = [
        index.query(q.source, q.target, q.departure).cost for q in queries
    ]
    return payloads, oracle


async def _closed_loop_qps(handle, payloads) -> float:
    """Capacity: CAPACITY_CONNECTIONS keep-alive clients, closed loop."""
    per_worker = CAPACITY_REQUESTS // CAPACITY_CONNECTIONS

    async def worker(wid: int, rounds: int) -> None:
        async with GatewayClient(handle.host, handle.port) as client:
            for i in range(rounds):
                payload = payloads[(wid * rounds + i) % len(payloads)]
                response = await asyncio.wait_for(
                    client.request("POST", "/v1/query", payload=payload),
                    timeout=SETTLE_TIMEOUT_S,
                )
                assert response.status == 200, response.body

    await asyncio.gather(  # untimed warm-up: connections, caches, JIT-warm paths
        *(worker(w, per_worker // 4) for w in range(CAPACITY_CONNECTIONS))
    )
    started = time.perf_counter()
    await asyncio.gather(
        *(worker(w, per_worker) for w in range(CAPACITY_CONNECTIONS))
    )
    wall = time.perf_counter() - started
    return CAPACITY_CONNECTIONS * per_worker / wall


async def _open_loop(handle, payloads, oracle, offered_qps, total, seed):
    """Poisson arrivals routed to per-client keep-alive connections.

    Each simulated user owns a small pool of connections (as a browser
    would); arrivals are generated open-loop — by the clock, never by
    completions — and queue at the user's pool while it is busy.  Latency
    is measured from *arrival*, so queueing delay under overload is
    charged to the tail.
    """
    rng = np.random.default_rng(seed)
    client_ids = rng.choice(
        NUM_CLIENTS, size=total, p=_zipf_probabilities(NUM_CLIENTS, CLIENT_ZIPF)
    )
    od_indices = rng.choice(
        len(payloads), size=total, p=_zipf_probabilities(len(payloads), OD_ZIPF)
    )
    offsets = np.cumsum(rng.exponential(1.0 / offered_qps, size=total))

    queues: dict[int, asyncio.Queue] = {
        cid: asyncio.Queue() for cid in set(client_ids.tolist())
    }
    results: list[tuple] = []
    loop = asyncio.get_running_loop()

    async def user_connection(cid: int) -> None:
        queue = queues[cid]
        async with GatewayClient(handle.host, handle.port) as client:
            while True:
                item = await queue.get()
                if item is None:
                    return
                od, arrival = item

                async def _request():
                    return await client.request(
                        "POST",
                        "/v1/query",
                        payload=payloads[od],
                        headers={
                            "x-api-key": f"user-{cid}",
                            "timeout-ms": f"{REQUEST_DEADLINE_MS:g}",
                        },
                    )

                try:
                    response = await asyncio.wait_for(
                        _request(), timeout=SETTLE_TIMEOUT_S
                    )
                except asyncio.TimeoutError:
                    results.append(("never_settled", od, None, None, None))
                    return
                except (OSError, asyncio.IncompleteReadError) as exc:
                    results.append(
                        ("dropped", od, type(exc).__name__, None, None)
                    )
                    return
                latency_ms = (loop.time() - arrival) * 1000.0
                body = response.json()
                results.append(
                    (
                        response.status,
                        od,
                        body.get("error"),
                        body.get("cost"),
                        latency_ms,
                    )
                )

    users = [
        asyncio.create_task(user_connection(cid))
        for cid in queues
        for _ in range(CONNECTIONS_PER_CLIENT)
    ]
    start = loop.time()
    for i in range(total):
        delay = start + offsets[i] - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        queues[int(client_ids[i])].put_nowait((int(od_indices[i]), loop.time()))
    offered_seconds = loop.time() - start
    for queue in queues.values():
        for _ in range(CONNECTIONS_PER_CLIENT):
            queue.put_nowait(None)
    await asyncio.gather(*users)
    return results, total / offered_seconds


def _classify(results, oracle):
    """Exhaustive outcome counts + the contract checks on each outcome."""
    outcomes = {
        "answered": 0,
        "rate_limited": 0,
        "shed": 0,
        "deadline_expired": 0,
        "never_settled": 0,
        "dropped": 0,
    }
    latencies: list[float] = []
    for status, od, detail, cost, latency_ms in results:
        if status == "never_settled":
            outcomes["never_settled"] += 1
        elif status == "dropped":
            outcomes["dropped"] += 1
        elif status == 200:
            assert cost == oracle[od], (
                f"answer for OD {od} differs from the scalar oracle: "
                f"{cost!r} != {oracle[od]!r}"
            )
            outcomes["answered"] += 1
            latencies.append(latency_ms)
        elif status == 429:
            assert detail["type"] == "RateLimitedError", detail
            assert detail["retryable"] is True
            assert detail.get("retry_after_ms", 0) > 0, detail
            outcomes["rate_limited"] += 1
        elif status == 503:
            assert detail["type"] == "GatewayOverloadedError", detail
            assert detail["retryable"] is True
            assert detail.get("retry_after_ms", 0) > 0, detail
            outcomes["shed"] += 1
        elif status == 504:
            assert detail["type"] == "DeadlineExceededError", detail
            assert detail["retryable"] is True
            outcomes["deadline_expired"] += 1
        else:
            raise AssertionError(f"untyped open-loop outcome: {status} {detail}")
    return outcomes, latencies


def test_gateway_open_loop_overload():
    """Acceptance: 2x-capacity open-loop HTTP load, every outcome typed."""
    index = built_index("TD-H2H", DATASET, C).index
    payloads, oracle = _payloads_and_oracle(index)

    host = EngineHost(max_batch_size=256, cache_size=0, obs=Observability())
    host.deploy("prod", index)
    try:
        with serve_in_background(GatewayApp(host, config=LOOSE_EDGE)) as probe:
            capacity_qps = asyncio.run(_closed_loop_qps(probe, payloads))

        offered_target = OVERLOAD_FACTOR * capacity_qps
        total = min(int(0.8 * offered_target), MAX_OFFERED)
        for attempt in range(MEASUREMENT_ATTEMPTS):
            with serve_in_background(
                GatewayApp(host, config=GUARDED_EDGE)
            ) as edge:
                results, offered_qps = asyncio.run(
                    _open_loop(
                        edge, payloads, oracle, offered_target, total,
                        seed=1234 + attempt,
                    )
                )
            outcomes, latencies = _classify(results, oracle)
            # Both guardrails warm is the interesting regime; a cold one is
            # re-measured (same noise policy as the serving benches) before
            # the run may count as a failure.
            if outcomes["rate_limited"] > 0 and outcomes["shed"] > 0:
                break
    finally:
        host.close()

    assert len(results) == total, "every offered request must be recorded"
    assert outcomes["never_settled"] == 0, (
        f"{outcomes['never_settled']} requests never settled"
    )
    assert outcomes["dropped"] == 0, "no connection may drop mid-request"
    assert outcomes["answered"] > 0, "the overloaded edge must still answer"
    assert outcomes["rate_limited"] > 0, (
        "the zipf-hot client must trip the per-client limiter"
    )
    assert outcomes["shed"] > 0, (
        "2x-capacity load must fill the bounded in-flight gate"
    )
    assert sum(outcomes.values()) == total, "outcomes must be exhaustive"

    percentiles = np.percentile(np.asarray(latencies), [50, 95, 99])
    rows = [
        {
            "dataset": DATASET,
            "c": C,
            "clients": NUM_CLIENTS,
            "capacity_qps": capacity_qps,
            "offered_qps": offered_qps,
            "offered_x_capacity": offered_qps / capacity_qps,
            "offered": total,
            "answered": outcomes["answered"],
            "rate_limited": outcomes["rate_limited"],
            "shed": outcomes["shed"],
            "deadline_expired": outcomes["deadline_expired"],
            "never_settled": 0,
            "shed_rate": outcomes["shed"] / total,
            "rate_limited_rate": outcomes["rate_limited"] / total,
            "p50_latency_ms": float(percentiles[0]),
            "p95_latency_ms": float(percentiles[1]),
            "p99_latency_ms": float(percentiles[2]),
            "attempts": attempt + 1,
        }
    ]
    register_report(
        "gateway",
        rows,
        title=(
            f"HTTP gateway open-loop overload on {DATASET} (c={C}, "
            f"{NUM_CLIENTS} zipf clients, Poisson arrivals at "
            f"{OVERLOAD_FACTOR:g}x closed-loop capacity)"
        ),
    )
