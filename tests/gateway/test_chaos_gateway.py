"""Chaos: kill replica workers under the gateway, watched from the HTTP edge.

The serving-layer guarantee (tests/serving/test_replica.py) is that a
killed worker fails in-flight queries with ``WorkerCrashedError`` and is
respawned from the snapshot.  This suite asserts the same story *as an
HTTP client sees it*, in three escalating scenarios:

* a survivable kill mid-load — every request settles (no hung
  connections), any surfaced failure is a typed retryable 5xx, the worker
  respawns, and answers stay bit-identical throughout.  The serving layer
  often masks the crash entirely (the failed batch degrades to per-query
  calls against the respawned worker), so surfaced failures are asserted
  *when present*, never required;
* an unsurvivable kill — the snapshot is destroyed first so the respawn
  cannot succeed: typed retryable 5xx bodies are then *guaranteed* at the
  edge, supervision escalates, and a swap over HTTP restores service;
* a closed host — the edge answers typed 503s instead of hanging or 404ing.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import time

import numpy as np
import pytest

from repro.gateway import (
    GatewayApp,
    GatewayClient,
    GatewayConfig,
    serve_in_background,
)
from repro.obs import Observability
from repro.serving import EngineHost
from repro.serving.supervision import HealthState

#: Statuses the edge may legitimately answer during a worker crash.
ALLOWED_FAILURE_STATUSES = {503, 504}
#: Error types a crash may legitimately surface as.
ALLOWED_FAILURE_TYPES = {
    "WorkerCrashedError",
    "DeadlineExceededError",
    "ServiceClosedError",
}
#: Per-request deadline — bounds how long a request can sit against a dead
#: worker before the host settles it with DeadlineExceededError.
REQUEST_TIMEOUT_MS = 2_000.0
#: Hard settle bound per request; tripping it means a hung connection.
SETTLE_TIMEOUT_S = 15.0

LOOSE_EDGE = GatewayConfig(rate_limit_qps=1e6, rate_limit_burst=1_000_000)


def _pairs(graph, count, seed):
    rng = np.random.default_rng(seed)
    vertices = np.asarray(sorted(graph.vertices()))
    return [
        (int(s), int(t), float(d))
        for s, t, d in zip(
            rng.choice(vertices, count),
            rng.choice(vertices, count),
            rng.uniform(0.0, 86_400.0, count),
        )
    ]


def _wait_for_exit(pid, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except OSError:
            return
        time.sleep(0.05)


async def _settled_request(client, payload):
    """One request that MUST settle; returns (status, error_detail|None, cost|None)."""
    response = await asyncio.wait_for(
        client.request(
            "POST",
            "/v1/query",
            payload=payload,
            headers={"timeout-ms": f"{REQUEST_TIMEOUT_MS:g}"},
        ),
        timeout=SETTLE_TIMEOUT_S,
    )
    if response.status == 200:
        return 200, None, response.json()["cost"]
    return response.status, response.json()["error"], None


async def _load_worker(handle, pairs, results, stop):
    """One simulated user: sequential queries on one connection until told
    to stop, recording how every single request settled."""
    async with GatewayClient(handle.host, handle.port) as client:
        index = 0
        while not stop.is_set():
            source, target, departure = pairs[index % len(pairs)]
            index += 1
            try:
                status, detail, cost = await _settled_request(
                    client,
                    {"source": source, "target": target, "departure": departure},
                )
            except asyncio.TimeoutError:
                results.append(("hung", None, None, None))
                return
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                results.append(("dropped", type(exc).__name__, None, None))
                return
            results.append((status, detail, (source, target, departure), cost))
            await asyncio.sleep(0)


class TestSurvivableKill:
    """SIGKILL the only replica mid-load; the snapshot is intact, so the
    pool self-heals.  The edge contract: nothing hangs, nothing drops,
    failures (if the recovery race surfaces any) are typed and retryable,
    and successes stay bit-identical."""

    def test_worker_kill_mid_load(self, basic_index, tmp_path):
        snapshot = basic_index.index.save(tmp_path / "snap")
        pairs = _pairs(basic_index.graph, 64, seed=23)
        host = EngineHost(cache_size=0, obs=Observability())
        host.deploy("prod", f"snapshot:{snapshot}", replicas=1)
        app = GatewayApp(host, config=LOOSE_EDGE)
        results: list[tuple] = []
        try:
            with serve_in_background(app) as handle:
                old_pid = asyncio.run(self._drive(handle, host, pairs, results))
                self._assert_edge_contract(results, basic_index)

                # The worker came back (inline self-heal or host.check()).
                replica = host.replicas("prod")[0]
                assert replica.alive and replica.pid != old_pid
                # Clean passes settle the deployment HEALTHY.
                for _ in range(4):
                    host.check()
                assert host.health("prod").state is HealthState.HEALTHY

                # And the edge serves bit-identical answers again.
                source, target, departure = pairs[0]

                async def _final():
                    async with GatewayClient(handle.host, handle.port) as c:
                        return await _settled_request(
                            c,
                            {
                                "source": source,
                                "target": target,
                                "departure": departure,
                            },
                        )

                status, _, cost = asyncio.run(_final())
                assert status == 200
                assert cost == basic_index.query(source, target, departure).cost
        finally:
            host.close()

    async def _drive(self, handle, host, pairs, results):
        stop = asyncio.Event()
        workers = [
            asyncio.create_task(
                _load_worker(handle, pairs[i::8], results, stop)
            )
            for i in range(8)
        ]
        await asyncio.sleep(0.2)  # let the load establish
        victim = host.replicas("prod")[0]
        os.kill(victim.pid, signal.SIGKILL)
        await asyncio.to_thread(_wait_for_exit, victim.pid)
        # Supervise like a production control loop; the pool may have
        # already self-healed inline, in which case check() sees nothing.
        for _ in range(40):
            await asyncio.to_thread(host.check)
            if host.replicas("prod")[0].alive:
                break
            await asyncio.sleep(0.05)
        await asyncio.sleep(0.3)  # post-recovery successes land
        stop.set()
        await asyncio.gather(*workers)
        return victim.pid

    def _assert_edge_contract(self, results, basic_index):
        assert results, "the load generator recorded nothing"
        hung = [r for r in results if r[0] == "hung"]
        dropped = [r for r in results if r[0] == "dropped"]
        assert not hung, f"{len(hung)} requests never settled"
        assert not dropped, f"connections dropped: {dropped[:3]}"
        failures = [r for r in results if r[0] != 200]
        for status, detail, _, _ in failures:
            assert status in ALLOWED_FAILURE_STATUSES, (status, detail)
            assert detail["retryable"] is True
            assert detail["status"] == status
            assert detail["type"] in ALLOWED_FAILURE_TYPES, detail
        successes = [r for r in results if r[0] == 200]
        assert successes
        for _, _, (source, target, departure), cost in successes[:50]:
            assert cost == basic_index.query(source, target, departure).cost


class TestUnsurvivableKill:
    """Destroy the snapshot, then SIGKILL the only worker: the respawn
    cannot succeed, so typed retryable 5xx bodies are *guaranteed* at the
    edge.  Supervision escalates, and a swap restores service once the
    snapshot is back."""

    def test_kill_without_snapshot_surfaces_typed_503s_then_swap_recovers(
        self, basic_index, tmp_path
    ):
        snapshot = basic_index.index.save(tmp_path / "snap")
        hidden = tmp_path / "hidden"
        source, target, departure = _pairs(basic_index.graph, 1, seed=7)[0]
        payload = {"source": source, "target": target, "departure": departure}
        expected = basic_index.query(source, target, departure).cost
        host = EngineHost(cache_size=0, obs=Observability())
        host.deploy("prod", f"snapshot:{snapshot}", replicas=1)
        app = GatewayApp(host, config=LOOSE_EDGE)
        try:
            with serve_in_background(app) as handle:

                async def scenario():
                    async with GatewayClient(handle.host, handle.port) as client:
                        status, _, cost = await _settled_request(client, payload)
                        assert status == 200 and cost == expected

                        # Make the crash unsurvivable, then crash it.
                        shutil.move(str(snapshot), str(hidden))
                        victim = host.replicas("prod")[0]
                        os.kill(victim.pid, signal.SIGKILL)
                        await asyncio.to_thread(_wait_for_exit, victim.pid)

                        # Every request settles as a typed, retryable 5xx —
                        # WorkerCrashedError is guaranteed to surface now.
                        seen_types = set()
                        for _ in range(6):
                            status, detail, _ = await _settled_request(
                                client, payload
                            )
                            assert status in ALLOWED_FAILURE_STATUSES, (
                                status,
                                detail,
                            )
                            assert detail["retryable"] is True
                            assert detail["type"] in ALLOWED_FAILURE_TYPES
                            seen_types.add(detail["type"])
                            reports = await asyncio.to_thread(host.check)
                            report = reports.get("prod")
                            if report is not None:
                                assert report.action in {
                                    "respawn",
                                    "restart",
                                    "rehydrate",
                                    "fallback",
                                    "park",
                                }
                        assert "WorkerCrashedError" in seen_types, seen_types
                        assert (
                            host.health("prod").state is not HealthState.HEALTHY
                        )

                        # Bring the snapshot back; a swap over HTTP restores
                        # the deployment without restarting anything.
                        shutil.move(str(hidden), str(snapshot))
                        swap = await asyncio.wait_for(
                            client.request(
                                "POST",
                                "/v1/deployments/prod/swap",
                                payload={"engine": f"snapshot:{snapshot}"},
                            ),
                            timeout=60.0,
                        )
                        assert swap.status == 200, swap.body
                        assert swap.json()["new_spec"] == f"snapshot:{snapshot}"

                        status, _, cost = await _settled_request(client, payload)
                        assert status == 200 and cost == expected
                        assert (
                            host.health("prod").state is HealthState.HEALTHY
                        )

                asyncio.run(scenario())
        finally:
            host.close()


class TestClosedHost:
    def test_closed_host_answers_typed_503_not_hangs(
        self, basic_index, tmp_path
    ):
        snapshot = basic_index.index.save(tmp_path / "snap")
        host = EngineHost(obs=Observability())
        host.deploy("prod", f"snapshot:{snapshot}")
        app = GatewayApp(host)
        source, target, departure = _pairs(basic_index.graph, 1, seed=5)[0]
        payload = {"source": source, "target": target, "departure": departure}
        with serve_in_background(app) as handle:

            async def _roundtrip():
                async with GatewayClient(handle.host, handle.port) as client:
                    status, _, _ = await _settled_request(client, payload)
                    assert status == 200
                    host.close()
                    status, detail, _ = await _settled_request(client, payload)
                    assert status == 503
                    assert detail["type"] == "ServiceClosedError"
                    assert detail["retryable"] is True
                    health = await client.request("GET", "/health")
                    assert health.status == 503
                    assert health.json()["status"] == "closed"

            asyncio.run(_roundtrip())
        host.close()
