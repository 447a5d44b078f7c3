"""Per-layer metrics derived from a traced run's spans.

:func:`layer_metrics` turns the spans of the traced segments (plus a few
counters read from the program's own stats objects) into every per-layer
metric ``BENCHMARK.json`` lists, under the names and units it declares.  A
layer the workload never enters reports ``0`` — the time and work it truly
spent there.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Sequence

from common import mean, median, per_layer_units
from spans import self_times

#: Counters the workloads read from the program rather than from spans.
COUNTER_METRICS = (
    "serving.cache_hit_ratio",
    "serving.batch_size_mean",
    "serving.cache_invalidations",
    "traffic.actions.patch",
    "traffic.actions.clone_swap",
    "traffic.actions.rebuild",
    "traffic.coalesced_ratio",
    "setup.server_ready_s",
    "trace.overhead_ratio",
    "oracle.bitexact_ratio",
)

_KERNEL_PREFIX = "functions."


def _durations(spans: Iterable[tuple], name: str) -> list[float]:
    return [s[3] - s[2] for s in spans if s[1] == name]


def _p50(values: Sequence[float], scale: float = 1.0) -> float:
    return median(values) * scale if values else 0.0


def setup_metrics(repetitions: Sequence[Sequence[tuple]]) -> dict[str, float]:
    """Median over set-up repetitions of the time spent in each phase."""
    phases: dict[str, list[float]] = {
        "setup.dataset_s": [],
        "setup.decompose_s": [],
        "setup.shortcuts_s": [],
        "setup.selection_s": [],
        "setup.deploy_s": [],
    }
    for spans in repetitions:
        own = self_times(spans)
        phases["setup.dataset_s"].append(sum(_durations(spans, "setup.dataset")))
        phases["setup.decompose_s"].append(sum(_durations(spans, "core.decompose")))
        phases["setup.shortcuts_s"].append(sum(_durations(spans, "core.shortcuts")))
        phases["setup.selection_s"].append(sum(_durations(spans, "core.selection")))
        phases["setup.deploy_s"].append(
            sum(own[s[0]] for s in spans if s[1] == "serving.deploy")
        )
    return {name: (median(values) if values else 0.0) for name, values in phases.items()}


def layer_metrics(
    spans: Sequence[tuple],
    *,
    ops: int,
    counters: dict[str, float],
    setup: dict[str, float],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from the traced segments' spans."""
    own = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    values: dict[str, float] = {}

    # repro.gateway: app self time, and the client round trip around it.
    apps = by_name.get("gateway.app", [])
    values["gateway.app_ms_p50"] = _p50([own[s[0]] for s in apps], 1e3)
    app_by_request = {s[5]: s[3] - s[2] for s in apps if s[5]}
    wire = [
        (s[3] - s[2]) - app_by_request[s[5]]
        for s in by_name.get("client.request", [])
        if s[5] in app_by_request
    ]
    values["gateway.wire_ms_p50"] = _p50(wire, 1e3)

    # repro.serving: enqueue cost, and queue wait net of the engine batch
    # that answered each pending query (the latest batch ending before it
    # settled — one flusher runs a deployment's batches in sequence).
    values["serving.host_submit_us_p50"] = _p50(_durations(spans, "serving.submit"), 1e6)
    batches = sorted((s[3], s[3] - s[2]) for s in by_name.get("engine.batch_query", []))
    batch_ends = [end for end, _ in batches]
    waits = []
    for span in by_name.get("serving.pending", []):
        i = bisect.bisect_right(batch_ends, span[3]) - 1
        if i >= 0 and batch_ends[i] >= span[2]:
            waits.append((span[3] - span[2]) - batches[i][1])
    values["serving.wait_ms_p50"] = _p50(waits, 1e3)
    values["serving.swap_ms_p50"] = _p50(_durations(spans, "serving.swap"), 1e3)

    # repro.api / repro.core: the batch entry point and the sweep under it.
    engine = by_name.get("engine.batch_query", [])
    values["engine.batch_ms_p50"] = _p50([s[3] - s[2] for s in engine], 1e3)
    values["engine.batch_calls"] = float(len(engine))
    values["engine.rows_per_call_mean"] = mean([s[6] for s in engine])
    values["engine.adapter_self_ms"] = mean([own[s[0]] for s in engine]) * 1e3
    core = by_name.get("core.batch_cost_query", [])
    values["core.query_self_ms"] = mean([own[s[0]] for s in core]) * 1e3
    core_rows = sum(s[6] for s in core)
    values["core.query_us_per_cell"] = (
        sum(s[3] - s[2] for s in core) / core_rows * 1e6 if core_rows else 0.0
    )

    # repro.functions: kernels called by the query sweep (build and repair
    # kernels belong to set-up and to the update path).
    core_ids = {s[0] for s in core}
    kernels = [s for s in spans if s[1].startswith(_KERNEL_PREFIX) and s[4] in core_ids]
    values["functions.kernel_ms_per_op"] = (
        sum(s[3] - s[2] for s in kernels) * 1e3 / ops if ops else 0.0
    )
    values["functions.kernel_calls_per_op"] = len(kernels) / ops if ops else 0.0
    values["functions.rows_per_kernel_call"] = mean([s[6] for s in kernels])

    # repro.traffic / update repair / repro.persistence.
    values["traffic.step_ms_p50"] = _p50(_durations(spans, "traffic.step"), 1e3)
    values["core.update_ms_p50"] = _p50(_durations(spans, "core.update"), 1e3)
    values["persistence.save_ms"] = _p50(_durations(spans, "persistence.save"), 1e3)
    values["persistence.load_ms"] = _p50(_durations(spans, "persistence.load"), 1e3)

    values.update(setup)
    for name in COUNTER_METRICS:
        values[name] = float(counters.get(name, 0.0))
    return {name: (values[name], unit) for name, unit in per_layer_units().items()}


def stats_delta(before: Any, after: Any) -> dict[str, float]:
    """Serving counters over an interval, from two ``ServiceStats``."""
    answered = after.queries_answered - before.queries_answered
    hits = after.cache_hits - before.cache_hits
    batches = after.num_batches - before.num_batches
    batched = (
        after.avg_batch_size * after.num_batches
        - before.avg_batch_size * before.num_batches
    )
    return {
        "answered": float(answered),
        "hits": float(hits),
        "batches": float(batches),
        "batched": float(batched),
        "invalidations": float(after.cache_invalidations - before.cache_invalidations),
    }


def serving_counters(deltas: Sequence[dict[str, float]]) -> dict[str, float]:
    """Summed :func:`stats_delta` intervals as the serving counter metrics."""
    total = {key: sum(d[key] for d in deltas) for key in
             ("answered", "hits", "batches", "batched", "invalidations")}
    return {
        "serving.cache_hit_ratio": total["hits"] / total["answered"] if total["answered"] else 0.0,
        "serving.batch_size_mean": total["batched"] / total["batches"] if total["batches"] else 0.0,
        "serving.cache_invalidations": total["invalidations"],
    }
