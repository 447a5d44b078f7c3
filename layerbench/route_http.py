"""``route-http``: route queries over real loopback sockets.

*Server*: ``server.py`` in a child process — ``GatewayApp`` and the bundled
HTTP server over an ``EngineHost`` with default knobs.  The rate limiter and
in-flight gate are configured so high that nothing is refused, but every
request passes through them, under one of :data:`API_KEYS` zipf-weighted
API keys.

*Load*: one asyncio thread, one keep-alive connection, closed loop, each
request ``POST /v1/query``.  About :data:`HOT_SHARE` of requests repeat a
trip from a fixed pool of hot trips (a zipf-popular origin/destination pair
and a 15-minute departure slot), drawn zipf-weighted over the pool; every
hot trip is answered once (one ``/v1/batch`` request) before timing, so they
hit the result cache.  The rest are fresh zipf-OD trips with continuous
departures, which miss it; about half of them repeat an origin/destination
pair the engine has already seen, and so hit its pair cache (the share is
reported as ``fresh_pair_cached_share``).  p50 therefore lies on the hit
path (gateway and service cache, engine idle) and p90 on the miss path
(micro-batch wait plus a batch-of-one engine sweep), so a gateway change
and a small-batch engine change each move a different metric.

The client and the server child run on one CPU (see ``run.py``): with one
request in flight nothing runs in parallel.

One connection, not two: with a second connection in flight, hits wait for
the server's interpreter lock while the other connection's miss runs its
engine sweep.  The median then sits on the steep edge of that contended
tail and moves with any engine change, and on a 2-core machine it spread
by up to 0.47 of its median across ten seeds.

One operation is one HTTP request.  Gate: every answered cost is
bit-identical to scalar ``engine.query`` on an identically seeded engine
built in this process, checked after the window.  After the gate, the idle
update probe goes through ``POST /v1/deployments/prod/updates`` and gives
``staleness_p50_ms``.
"""

from __future__ import annotations

import asyncio
import collections
import json
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

from common import (
    DAY_SECONDS,
    SPEC,
    Window,
    digest,
    median,
    percentile,
    quantiles_ms,
    rng_for,
)
from ledger import layer_metrics, serving_counters, setup_metrics
from spans import REQUEST_HEADER, request_scope
from updates import probe_incidents, traffic_counters
from workload import Config, Result

HERE = Path(__file__).resolve().parent
CONNECTIONS = 1
HOT_SHARE = 0.8
SLOT_SECONDS = 900.0
#: The user population and its skews are those of the repository's gateway
#: benchmark (``benchmarks/bench_gateway.py``): 64 zipf(1.5) clients, trips
#: drawn zipf(1.2).  Here the trip skew weighs the hot pool, and each
#: endpoint of a fresh trip.
API_KEYS = 64
KEY_ZIPF = 1.5
OD_ZIPF = 1.2
#: Size of the hot pool (an assumption, not a measured figure).
HOT_TRIPS = 256
#: A request unanswered after this long counts as failed.
REQUEST_TIMEOUT_S = 10.0
#: Bound on the child's start-up and on each of its command replies.
CHILD_TIMEOUT_S = 60.0
#: Span ids of the k-th server child are shifted by ``(k + 1) << 40``.
CHILD_ID_SHIFT = 40


class ChildFailed(RuntimeError):
    """The server child died, hung, or answered a command with an error."""


class ServerChild:
    """The server process: spawned, commanded over stdin, always reaped."""

    def __init__(self, cfg: Config) -> None:
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--dataset", cfg.dataset,
             "--num-points", str(cfg.num_points), "--trace", str(int(cfg.trace))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self.stderr: collections.deque[str] = collections.deque(maxlen=200)
        self._threads = [
            threading.Thread(target=self._pump_stdout, daemon=True),
            threading.Thread(target=self._pump_stderr, daemon=True),
        ]
        for thread in self._threads:
            thread.start()
        self.ready = self.read()
        self.ready_s = time.perf_counter() - self.spawned
        self.port = int(self.ready["port"])

    def _pump_stdout(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _pump_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)

    def _failure(self, what: str) -> ChildFailed:
        tail = "".join(self.stderr)[-4000:]
        return ChildFailed(f"server child {what} (exit {self.proc.poll()}):\n{tail}")

    def read(self) -> dict[str, Any]:
        try:
            line = self._lines.get(timeout=CHILD_TIMEOUT_S)
        except queue.Empty:
            raise self._failure("did not answer in time") from None
        if line is None:
            raise self._failure("exited")
        reply = json.loads(line)
        if "error" in reply:
            raise self._failure(f"refused a command: {reply['error']}")
        return reply

    def command(self, command: str) -> dict[str, Any]:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except OSError:
            raise self._failure("closed its input") from None
        return self.read()

    def close(self) -> int:
        """Ask the child to quit, kill it if it will not, and reap it."""
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        for thread in self._threads:
            thread.join(timeout=10)
        return code


class _Requests:
    """The seeded request stream: hot-pool repeats and fresh zipf trips."""

    def __init__(self, seed: int, vertices: np.ndarray) -> None:
        self._rng = rng_for(seed, "route-http")
        self._vertices = self._rng.permutation(vertices)
        self._od_p = _zipf(len(vertices), OD_ZIPF)
        self._key_p = _zipf(API_KEYS, KEY_ZIPF)
        self._hot_p = _zipf(HOT_TRIPS, OD_ZIPF)
        pool: dict[tuple, None] = {}
        while len(pool) < HOT_TRIPS:
            source, target = self._od()
            slot = int(self._rng.integers(int(DAY_SECONDS / SLOT_SECONDS)))
            pool[(source, target, slot * SLOT_SECONDS)] = None
        self.hot = list(pool)
        self._buffer: collections.deque = collections.deque()
        self.drawn: list[tuple] = []

    def _od(self) -> tuple[int, int]:
        source, target = self._rng.choice(len(self._vertices), 2, p=self._od_p)
        if source == target:
            target = (target + 1) % len(self._vertices)
        return int(self._vertices[source]), int(self._vertices[target])

    def next(self) -> tuple[tuple[int, int, float], str, bool]:
        """The next request: its trip, API key, and whether it is fresh."""
        if not self._buffer:
            self._refill(4096)
        return self._buffer.popleft()

    def _refill(self, count: int) -> None:
        rng = self._rng
        hot = rng.random(count) < HOT_SHARE
        picks = rng.choice(HOT_TRIPS, count, p=self._hot_p)
        keys = rng.choice(API_KEYS, count, p=self._key_p)
        for i in range(count):
            if hot[i]:
                trip = self.hot[picks[i]]
            else:
                source, target = self._od()
                trip = (source, target, float(rng.uniform(0.0, DAY_SECONDS)))
            self._buffer.append((trip, f"key-{keys[i]}", not hot[i]))
        if len(self.drawn) < 3:
            self.drawn.extend(list(self._buffer)[:3])


def _zipf(n: int, skew: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -skew
    return weights / weights.sum()


class _Load:
    """Closed-loop load over :data:`CONNECTIONS` keep-alive connections."""

    def __init__(self, cfg: Config, child: ServerChild, requests: _Requests) -> None:
        self.cfg = cfg
        self.child = child
        self.requests = requests
        self.latencies: list[float] = []
        self.answers: dict[tuple, set[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.outcomes: collections.Counter = collections.Counter()
        self.started = 0.0
        #: OD pairs the server's engine has seen (its pair cache keys), and
        #: the fresh requests whose pair was among them.
        self.pairs = {(s, t) for s, t, _d in requests.hot}
        self.fresh = 0
        self.fresh_seen_pair = 0

    async def warm(self) -> None:
        """Answer every hot trip once, so the timed window finds them cached."""
        from repro.gateway import GatewayClient

        payload = {"queries": [
            {"source": s, "target": t, "departure": d} for s, t, d in self.requests.hot
        ]}
        async with GatewayClient("127.0.0.1", self.child.port) as client:
            response = await asyncio.wait_for(
                client.request("POST", "/v1/batch", payload=payload), CHILD_TIMEOUT_S
            )
        body = response.json()
        if response.status != 200 or body.get("failed"):
            raise RuntimeError(f"warm-up failed: {response.status} {body}")

    async def drive(self) -> float:
        from repro.gateway import GatewayClient

        clients = [GatewayClient("127.0.0.1", self.child.port) for _ in range(CONNECTIONS)]
        seconds = self.cfg.seconds
        bounds = [(0.25 * seconds, False), (0.75 * seconds, True), (seconds, False)]
        if not self.cfg.trace:
            bounds = [(seconds, False)]
        self.started = time.perf_counter()
        self.window = Window()  # read by run() once drive() has returned
        try:
            for until, traced in bounds:
                if traced != self.window.traced:
                    self.child.command("trace on" if traced else "trace off")
                self.window.switch(traced)
                self.cfg.set_traced(traced)
                last = until == seconds
                await asyncio.gather(
                    *(self._connection(clients, i, until, last) for i in range(CONNECTIONS))
                )
            self.window.close()
            self.cfg.set_traced(False)
        finally:
            for client in clients:
                await client.aclose()
        return time.perf_counter() - self.started

    async def _connection(self, clients: list, i: int, until: float, last: bool) -> None:
        from repro.gateway import GatewayClient

        while True:
            elapsed = time.perf_counter() - self.started
            if elapsed >= until and not (last and self.attempted < self.cfg.min_samples):
                return
            (source, target, departure), key, fresh = self.requests.next()
            if fresh:
                self.fresh += 1
                self.fresh_seen_pair += (source, target) in self.pairs
                self.pairs.add((source, target))
            request_id = f"r{self.attempted}"
            traced = self.window.traced
            self.attempted += 1
            payload = {"source": source, "target": target, "departure": departure}
            headers = {"x-api-key": key, REQUEST_HEADER: request_id}
            t0 = time.perf_counter()
            response = None
            with request_scope(request_id), self.cfg.span("client.request"):
                try:
                    response = await asyncio.wait_for(
                        clients[i].request("POST", "/v1/query", payload=payload,
                                           headers=headers),
                        REQUEST_TIMEOUT_S,
                    )
                except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError) as exc:
                    self.outcomes[type(exc).__name__] += 1
                    await clients[i].aclose()
                    clients[i] = GatewayClient("127.0.0.1", self.child.port)
            latency = time.perf_counter() - t0
            self.window.count(traced)
            if response is None:
                self.failed += 1
                continue
            self.outcomes[response.status] += 1
            if response.status != 200:
                self.failed += 1
                continue
            self.latencies.append(latency)
            cost = float(response.json()["cost"])
            self.answers.setdefault((source, target, departure), set()).add(cost)


async def _probe(child: ServerChild, graph: Any) -> None:
    """The idle update probe, one applied ingest request per step."""
    from repro.gateway import GatewayClient

    async with GatewayClient("127.0.0.1", child.port) as client:
        for events in probe_incidents(graph):
            payload = {
                "updates": [
                    {"source": e.source, "target": e.target, "delay": e.delay}
                    for e in events
                ],
                "apply": True,
            }
            response = await asyncio.wait_for(
                client.request("POST", "/v1/deployments/prod/updates", payload=payload),
                CHILD_TIMEOUT_S,
            )
            if response.status != 200:
                raise RuntimeError(f"probe update refused: {response.status} {response.body!r}")


def _merge_child(spans: list, index: int) -> list[tuple]:
    """The ``index``-th child's spans, ids shifted clear of all others."""
    offset = (index + 1) << CHILD_ID_SHIFT
    return [
        (sid + offset, name, start, end, parent + offset if parent else 0, request, rows)
        for sid, name, start, end, parent, request, rows in spans
    ]


def run(cfg: Config) -> Result:
    from repro.api import create_engine
    from repro.datasets.catalog import load_dataset

    setup_s, server_ready_s, setup_spans = [], [], []
    child = None
    try:
        for repetition in range(cfg.setup_repeats):
            child = ServerChild(cfg)
            setup_s.append(child.ready_s)
            server_ready_s.append(child.ready_s - child.ready["build_s"])
            setup_spans.append(_merge_child(child.ready["setup_spans"], repetition))
            if repetition < cfg.setup_repeats - 1:
                if child.close() != 0:
                    raise child._failure("failed to shut down")
                child = None

        graph = load_dataset(cfg.dataset, num_points=cfg.num_points)
        vertices = np.asarray(sorted(graph.vertices()), dtype=np.int64)
        requests = _Requests(cfg.seed, vertices)
        load = _Load(cfg, child, requests)
        asyncio.run(load.warm())
        wall = asyncio.run(load.drive())
        if child.proc.poll() is not None:
            raise child._failure("died during the window")

        # Built only now: the client shares the server's CPU, and a larger
        # client heap would lengthen its garbage collections in the window.
        oracle = create_engine(SPEC, graph.copy())
        trips = list(load.answers)
        served = [min(load.answers[t]) for t in trips]
        consistent = all(len(load.answers[t]) == 1 for t in trips)
        expected = [oracle.query(s, t, d).cost for s, t, d in trips]
        exact = consistent and np.array_equal(np.array(served), np.array(expected))

        asyncio.run(_probe(child, graph))
        dump = child.command("dump")
    finally:
        code = child.close() if child is not None else 0
    if code != 0:
        raise ChildFailed(f"server child exited with {code}")

    traffic = dump["traffic"]
    metrics = {
        "throughput_per_s": (len(load.latencies) / wall, "1/s"),
        "latency_p50_ms": (median(load.latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentile(load.latencies, 90) * 1e3, "ms"),
        "staleness_p50_ms": (traffic["staleness_p50_s"] * 1e3, "ms"),
        "setup_s": (median(setup_s), "s"),
    }
    layers = None
    spans = cfg.take_spans() + _merge_child(dump["spans"], cfg.setup_repeats - 1)
    if cfg.trace:
        counters = serving_counters(dump["deltas"])
        counters.update(traffic_counters(traffic))
        counters["setup.server_ready_s"] = median(server_ready_s)
        counters["trace.overhead_ratio"] = load.window.overhead_ratio()
        counters["oracle.bitexact_ratio"] = 1.0 if exact else 0.0
        layers = layer_metrics(
            spans,
            ops=load.window.ops[True],
            counters=counters,
            setup=setup_metrics(setup_spans),
        )
    return Result(
        correct=bool(exact),
        attempted=load.attempted,
        failed=load.failed,
        metrics=metrics,
        layers=layers,
        spans=[s for rep in setup_spans for s in rep] + spans,
        details={
            "latency_samples": len(load.latencies),
            "latency_profile_ms": quantiles_ms(load.latencies),
            "wall_s": wall,
            "outcomes": {str(k): v for k, v in load.outcomes.items()},
            "distinct_trips_checked": len(trips),
            "fresh_requests": load.fresh,
            "fresh_pair_cached_share": load.fresh_seen_pair / max(load.fresh, 1),
            "setup_samples_s": setup_s,
            "server_ready_samples_s": server_ready_s,
            "probe_actions": traffic["actions"],
            "inputs": digest([requests.hot[:3], requests.drawn]),
        },
    )
