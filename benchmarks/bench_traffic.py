"""Live-traffic control loop benchmark: staleness under a closed query loop.

Three seeded scenarios replay against one ``td-h2h`` deployment on the CAL
sample while closed-loop query hammers keep the serving path busy:

* **flash_incident** — one edge jumps at 3 a.m. (hammers idle): a small
  dirty cone on a quiet network is the in-place **patch** case;
* **rolling_closure** — a maintenance corridor under live traffic: middling
  dirty cones land in the policy's **clone_swap** band;
* **rush_hour** — network-wide waves that finally clear: dirty fractions
  past the crossover trigger background **rebuild** and swap.

The run must exercise all three policy actions, settle every submitted
query (zero never-settled), and end every scenario with answers matching a
fresh engine built from a shadow graph that tracked the same updates — the
strongest oracle available.  The engine is deployed *exact*
(``max_points=none``): with lossy function simplification on, incremental
repair and fresh build legitimately diverge inside the approximation
envelope, which would mask real bugs.  Exact, the only residue is float
summation order (the repair reassociates the same min-plus sums), observed
at ≤2 ulp; the oracle gate is rel ≤ 1e-12 and the bit-exact rate is
reported per scenario.  Per-scenario staleness p50/p99/max (event ingest →
servable answer), action mix, and closed-loop qps land in
``results/BENCH_traffic.json``; headline numbers append to
``results/BENCH_history.jsonl``.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

from repro.api import create_engine
from repro.datasets.catalog import load_dataset
from repro.serving import EngineHost
from repro.traffic import AdaptivePolicy, ScenarioDriver, TrafficController
from repro.utils.timing import SYSTEM_CLOCK

from harness import register_report

DATASET = "CAL"
C = 3
SEED = 42
#: Exact functions: no lossy simplification between repair and oracle.
SPEC = "td-h2h?max_points=none"
#: Everything past float-summation-order noise is a real divergence.
ORACLE_REL_TOL = 1e-12
#: Closed-loop hammers during the under-traffic scenarios.
HAMMER_THREADS = 3
#: Oracle workload size per scenario (bit-identity checked per query).
ORACLE_QUERIES = 40
#: Dirty-fraction thresholds sized to the CAL sample: a single-edge cone is
#: ~15% of the graph (patchable), a corridor chunk ~22-24% (clone band),
#: and a rush-hour wave 47-64% (past the rebuild crossover).
POLICY = dict(patch_dirty_fraction=0.18, rebuild_dirty_fraction=0.45)


def _workload(graph, count, seed):
    rng = np.random.default_rng(seed)
    vertices = sorted(graph.vertices())
    return [
        (
            int(rng.choice(vertices)),
            int(rng.choice(vertices)),
            float(rng.uniform(0.0, 86_400.0)),
        )
        for _ in range(count)
    ]


class _Hammer:
    """Closed-loop query pressure; every submission settles and is counted."""

    def __init__(self, host, queries):
        self._host = host
        self._queries = queries
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self.submitted = 0
        self.answered = 0
        self.failed = 0
        self._threads: list[threading.Thread] = []

    def _run(self, offset: int) -> None:
        i = offset
        while not self._stop.is_set():
            source, target, departure = self._queries[i % len(self._queries)]
            i += 1
            with self._lock:
                self.submitted += 1
            try:
                self._host.query("prod", source, target, departure)
            except Exception:
                with self._lock:
                    self.failed += 1
            else:
                with self._lock:
                    self.answered += 1

    def start(self) -> None:
        self._threads = [
            threading.Thread(target=self._run, args=(i * 17,), daemon=True)
            for i in range(HAMMER_THREADS)
        ]
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=30.0)


def _chunks(events):
    """Group a scenario timeline into per-timestamp ingest chunks."""
    grouped = defaultdict(list)
    for event in events:
        grouped[event.at].append(event)
    return [grouped[at] for at in sorted(grouped)]


def _run_scenario(host, driver, shadow, name, events, *, hammer_queries=None):
    """Replay one scenario through a fresh controller; return its report row."""
    hammer = _Hammer(host, hammer_queries) if hammer_queries else None
    actions: dict[str, int] = defaultdict(int)
    started = time.perf_counter()
    with TrafficController(
        host, "prod", policy=AdaptivePolicy(**POLICY)
    ) as controller:
        if hammer:
            hammer.start()
        for chunk in _chunks(events):
            # Chunks replay without pacing: stamp each one as it arrives, so
            # staleness runs from ingest, never from a future event time.
            origin = SYSTEM_CLOCK.monotonic() - chunk[0].at
            for update in driver.updates(chunk, origin=origin):
                controller.ingest(update)
                shadow.set_weight(update.source, update.target, update.weight)
            report = controller.step()
            assert report is not None, "a non-empty chunk must execute"
            actions[report.action] += 1
        if hammer:
            hammer.stop()
        stats = controller.stats()
    elapsed = time.perf_counter() - started

    # The oracle: a fresh engine over the shadow graph must agree with
    # whatever the control loop left serving, down to summation-order noise.
    oracle = create_engine(SPEC, shadow.copy())
    mismatches = 0
    bitexact = 0
    max_rel = 0.0
    for source, target, departure in _workload(shadow, ORACLE_QUERIES, 7):
        served = host.query("prod", source, target, departure)
        expected = oracle.query(source, target, departure).cost
        if served == expected:
            bitexact += 1
            continue
        rel = abs(served - expected) / max(abs(expected), 1e-12)
        max_rel = max(max_rel, rel)
        if rel > ORACLE_REL_TOL:
            mismatches += 1
    assert mismatches == 0, f"{name}: {mismatches} answers diverged from oracle"
    assert stats.staleness_p50_s >= 0.0, f"{name}: negative staleness"
    if hammer:
        assert hammer.failed == 0, f"{name}: {hammer.failed} queries failed"
        assert hammer.submitted == hammer.answered, "every query must settle"

    return {
        "scenario": name,
        "events": len(events),
        "steps": stats.steps,
        "patch": actions["patch"],
        "clone_swap": actions["clone_swap"],
        "rebuild": actions["rebuild"],
        "updates_ingested": stats.updates_ingested,
        "updates_coalesced": stats.updates_coalesced,
        "staleness_p50_s": stats.staleness_p50_s,
        "staleness_p99_s": stats.staleness_p99_s,
        "staleness_max_s": stats.staleness_max_s,
        "queries_answered": hammer.answered if hammer else 0,
        "queries_failed": hammer.failed if hammer else 0,
        "never_settled": 0,
        "qps": (hammer.answered / elapsed) if hammer else 0.0,
        "oracle_queries": ORACLE_QUERIES,
        "oracle_bitexact": bitexact,
        "oracle_max_rel_err": max_rel,
        "oracle_mismatches": mismatches,
    }


def test_traffic_control_loop():
    graph = load_dataset(DATASET, num_points=C)
    shadow = graph.copy()
    queries = _workload(graph, 64, 3)
    rows = []
    with EngineHost(max_batch_size=64) as host:
        host.deploy("prod", SPEC, graph.copy())
        driver = ScenarioDriver(graph, seed=SEED)
        rows.append(
            _run_scenario(
                host, driver, shadow, "flash_incident",
                driver.flash_incident(edges=1, delay=900.0),
            )
        )
        rows.append(
            _run_scenario(
                host, driver, shadow, "rolling_closure",
                driver.rolling_closure(length=4, delay=1800.0),
                hammer_queries=queries,
            )
        )
        rows.append(
            _run_scenario(
                host, driver, shadow, "rush_hour",
                driver.rush_hour(waves=3, edges_per_wave=8, peak_delay=600.0),
                hammer_queries=queries,
            )
        )

    # The loop must have exercised every maintenance action at least once.
    for action in ("patch", "clone_swap", "rebuild"):
        assert sum(row[action] for row in rows) >= 1, f"{action} never executed"
    register_report(
        "traffic",
        rows,
        title=(
            f"Live-traffic control loop on {DATASET} (c={C}, seed {SEED}): "
            "staleness and action mix per scenario under closed-loop queries"
        ),
    )
