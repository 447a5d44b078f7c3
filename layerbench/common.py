"""Shared pieces of the layer benchmark: paths, inputs, statistics, output.

Every workload builds the same network — the scaled FLA stand-in at c=3,
served by ``td-appro?max_points=none`` (exact functions, so every oracle can
demand bit-identity) — and reports through :func:`emit`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

#: Checkout root: the directory holding ``layerbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for the program's temporary files and the span dumps.
WORK = ROOT / ".bench_work"

DATASET = "FLA"
NUM_POINTS = 3
SPEC = "td-appro?max_points=none"
DEPLOYMENT = "prod"
DAY_SECONDS = 86_400.0
#: Times each workload sets itself up; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Fewest timed operations a run reports percentiles over.
MIN_SAMPLES = 100


def per_layer_units() -> dict[str, str]:
    """Name → unit of every per-layer metric, in ``BENCHMARK.json`` order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def import_program() -> None:
    """Put the checkout's ``src/`` first on the import path, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"layerbench: no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def private_tempdir() -> Path:
    """Point :mod:`tempfile` (and child processes) inside the checkout."""
    path = WORK / f"tmp-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(path)
    os.environ["TMPDIR"] = str(path)
    return path


def rng_for(seed: int, stream: str):
    """A numpy generator for one named input stream of one seed."""
    import numpy as np

    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng([int(seed), tag])


def digest(values: Iterable[Any]) -> str:
    """Short fingerprint of generated inputs (shows what a seed changed)."""
    h = hashlib.sha256()
    for value in values:
        h.update(repr(value).encode())
    return h.hexdigest()[:16]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def quantiles_ms(values: Sequence[float]) -> dict[str, float]:
    """A coarse latency profile (seconds in, milliseconds out) for details."""
    return {f"p{q}": percentile(values, q) * 1e3 for q in (10, 25, 50, 75, 90, 99)}


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return float(ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid]))


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


class Window:
    """Operations and wall time per segment (untraced, traced) of a window.

    An untraced run is one untraced segment.  A traced run records spans
    only in its middle part — untraced, traced, untraced — so tracing
    overhead is measured against the same run with drift cancelled to first
    order.  The workload switches segments (:meth:`switch`) and credits each
    operation to the segment in which it started; segment times are the
    wall times actually spent between switches.
    """

    def __init__(self) -> None:
        self.traced = False
        self.ops = {True: 0, False: 0}
        self.time = {True: 0.0, False: 0.0}
        self._since = time.perf_counter()

    def switch(self, traced: bool) -> None:
        if traced != self.traced:
            self.close()
            self.traced = traced

    def close(self) -> None:
        """Book the time since the last switch to the current segment."""
        now = time.perf_counter()
        self.time[self.traced] += now - self._since
        self._since = now

    def count(self, traced: bool, ops: int = 1) -> None:
        self.ops[traced] += ops

    def overhead_ratio(self) -> float:
        """Traced over untraced throughput."""
        if not self.time[True] or not self.ops[False]:
            return 0.0
        traced = self.ops[True] / self.time[True]
        return traced / (self.ops[False] / self.time[False])


def pin_to_one_cpu() -> int | None:
    """Run this process, and every thread and process it starts, on one CPU.

    Each workload's timed work is a chain of hand-offs: a closed-loop client
    and its server child pass one request back and forth, and the reader,
    the micro-batch flusher and the update writer pass one interpreter lock.
    Spread over several virtual CPUs, each hand-off wakes an idle one, and
    how long that takes depends on the host's other tenants, so their load
    reached the results several times over.  Measured on a 2-core VM: the
    route-http median moved between 0.84 and 1.31 ms at 0-5 % steal; the
    live-updates p90 doubled (28 to 74 ms) at 25 % steal, where pinned runs
    moved by a fifth.  On one CPU a hand-off never waits for a wake-up, and
    the host's load slows a run only in proportion.  Returns the CPU, or
    None where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        for task in os.listdir("/proc/self/task"):
            os.sched_setaffinity(int(task), {cpu})
    except (AttributeError, OSError, ValueError):
        return None
    return cpu


def cpu_ticks() -> list[int]:
    """The host's cumulative CPU ticks per state (``/proc/stat``), if known."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between.

    Field 8 of ``/proc/stat``'s ``cpu`` line is steal time: a high share
    means the machine's neighbours, not the program, set the pace.
    """
    if len(before) < 8 or len(after) != len(before):
        return None
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas[:8])
    return deltas[7] / total if total else None


def provenance(
    workload: str, seed: int, seconds: float, trace: bool, dataset: str
) -> dict[str, Any]:
    import numpy as np

    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=False,
            ).stdout.strip()
        except OSError:
            sha = ""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "dataset": dataset,
        "num_points": NUM_POINTS,
        "spec": SPEC,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": sha or "unknown",
    }


def emit(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, tuple[float, str]],
    details: dict[str, Any],
) -> None:
    """Print the run's details, then the one-line result object (last line)."""
    print(json.dumps({"details": details}, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
