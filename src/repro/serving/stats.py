"""Operational statistics of the serving layer.

:class:`ServiceStats` is an immutable snapshot of a
:class:`~repro.serving.service.QueryService`'s counters — safe to hand to a
metrics exporter or print in a benchmark report.  Latency percentiles come
from a bounded reservoir of the most recent samples so a long-running service
keeps O(1) memory.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from repro.obs.metrics import LATENCY_BUCKETS_MS, bucket_percentile

__all__ = ["ServiceStats", "LatencyReservoir"]

#: The shared bucket bounds as an ndarray, for vectorized bucketing.
_BUCKET_BOUNDS = np.asarray(LATENCY_BUCKETS_MS, dtype=np.float64)


class LatencyReservoir:
    """Bounded store of recent latency samples (seconds).

    Alongside the bounded sample window (exact percentiles over *recent*
    traffic), the reservoir keeps lifetime counts in the fixed log-scale
    latency buckets shared with :mod:`repro.obs.metrics`.  Bucket counts are
    cumulative and never evicted, so snapshots from several service
    generations can be merged *exactly* by summing them — which is what
    :meth:`ServiceStats.merged` does.

    Not thread-safe on its own; the service records under its lock.
    """

    __slots__ = ("_samples", "_bucket_counts", "_total_ms")

    def __init__(self, maxlen: int = 4096) -> None:
        self._samples: deque[float] = deque(maxlen=maxlen)
        # One slot per bucket bound plus a trailing overflow slot.
        self._bucket_counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        self._total_ms = 0.0

    def record(self, seconds: float) -> None:
        value = float(seconds)
        self._samples.append(value)
        ms = value * 1000.0
        self._bucket_counts[bisect_left(LATENCY_BUCKETS_MS, ms)] += 1
        self._total_ms += ms

    def extend(self, seconds_iterable: Iterable[float]) -> None:
        """Record a whole batch of latencies with vectorized bucketing.

        The flushed-batch path lands here with hundreds of samples at once;
        one ``searchsorted`` + ``bincount`` replaces a per-sample ``bisect``
        (``side="left"`` matches :func:`bisect.bisect_left` exactly).
        """
        values = np.asarray(
            seconds_iterable if isinstance(seconds_iterable, (list, tuple))
            else list(seconds_iterable),
            dtype=np.float64,
        )
        if values.size == 0:
            return
        ms = values * 1000.0
        slots = np.bincount(
            np.searchsorted(_BUCKET_BOUNDS, ms, side="left"),
            minlength=len(self._bucket_counts),
        )
        counts = self._bucket_counts
        for i in np.flatnonzero(slots):
            counts[i] += int(slots[i])
        self._total_ms += float(ms.sum())
        self._samples.extend(values.tolist())

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def bucket_counts(self) -> tuple[int, ...]:
        """Lifetime latency counts per log-scale bucket (overflow last)."""
        return tuple(self._bucket_counts)

    @property
    def total_ms(self) -> float:
        """Lifetime sum of recorded latencies, in milliseconds."""
        return self._total_ms

    def percentile_ms(self, q: float) -> float:
        """The ``q``-th percentile of the stored samples, in milliseconds."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.fromiter(self._samples, dtype=np.float64), q)) * 1000.0


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time summary of a :class:`QueryService`'s behaviour."""

    #: Queries accepted by ``submit`` (including ones still pending).
    queries_submitted: int
    #: Queries whose result (or error) has been delivered.
    queries_answered: int
    #: Queries answered straight from the result cache.
    cache_hits: int
    #: Entries currently held by the result cache.
    cache_entries: int
    #: Times the cache was wiped (updates and explicit invalidation).
    cache_invalidations: int
    #: Batches flushed through the vectorized engine.
    num_batches: int
    #: Mean number of queries per flushed batch.
    avg_batch_size: float
    #: ``avg_batch_size / max_batch_size`` — how full the micro-batches run.
    batch_occupancy: float
    #: Median / tail submit-to-answer latency over the recent sample window.
    p50_latency_ms: float
    p95_latency_ms: float
    #: Answered queries per second of service wall time (first submit to the
    #: most recent answer); 0.0 before the first batch completes.
    throughput_qps: float
    #: Service wall time underlying ``throughput_qps`` (first submit to the
    #: most recent answer).  Carried so snapshots from several service
    #: generations can be merged exactly (see :meth:`merged`).
    elapsed_seconds: float = 0.0
    #: Tail latency over the same recent sample window as p50/p95.
    p99_latency_ms: float = 0.0
    #: Queries rejected at admission (``shed`` policy, or a ``block`` wait
    #: that ran past its admission timeout).
    shed: int = 0
    #: Futures settled with :class:`~repro.exceptions.DeadlineExceededError`.
    deadline_expired: int = 0
    #: Submit attempts retried across a hot swap or worker restart (counted
    #: by the :class:`~repro.serving.EngineHost` routing layer).
    retries: int = 0
    #: Answers served by a deployment's fallback engine while the primary was
    #: unhealthy (host-level counter; 0 on a bare service).
    degraded_answers: int = 0
    #: Times a supervisor aborted and restarted the deployment's worker
    #: (host-level counter; 0 on a bare service).
    worker_restarts: int = 0
    #: Lifetime latency counts in the shared log-scale buckets
    #: (:data:`~repro.obs.metrics.LATENCY_BUCKETS_MS`, overflow slot last).
    #: Empty on snapshots that predate bucket tracking.
    latency_bucket_counts: tuple[int, ...] = ()

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of answered queries served from the cache."""
        if self.queries_answered == 0:
            return 0.0
        return self.cache_hits / self.queries_answered

    def to_dict(self) -> dict[str, object]:
        """A JSON-serialisable snapshot (the gateway's ``/stats`` payload).

        Plain field values plus the derived ``cache_hit_rate``; the bucket
        tuple becomes a list so ``json.dumps`` takes it unmodified.
        """
        return {
            "queries_submitted": self.queries_submitted,
            "queries_answered": self.queries_answered,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_entries": self.cache_entries,
            "cache_invalidations": self.cache_invalidations,
            "num_batches": self.num_batches,
            "avg_batch_size": self.avg_batch_size,
            "batch_occupancy": self.batch_occupancy,
            "p50_latency_ms": self.p50_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "throughput_qps": self.throughput_qps,
            "elapsed_seconds": self.elapsed_seconds,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "retries": self.retries,
            "degraded_answers": self.degraded_answers,
            "worker_restarts": self.worker_restarts,
            "latency_bucket_counts": list(self.latency_bucket_counts),
        }

    @classmethod
    def empty(cls) -> "ServiceStats":
        """An all-zero snapshot with (zeroed) bucket counts.

        What a spawned-but-unqueried (or dead) replica contributes to a
        pool-wide merge, and what merging no snapshots at all returns.
        """
        return cls(
            0, 0, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            latency_bucket_counts=(0,) * (len(LATENCY_BUCKETS_MS) + 1),
        )

    @classmethod
    def merged(cls, parts: Sequence["ServiceStats"]) -> "ServiceStats":
        """Aggregate snapshots from successive service generations.

        An :class:`~repro.serving.EngineHost` deployment retires its
        :class:`~repro.serving.QueryService` on every hot swap; this folds
        the retired generations and the live one into a single view.  Plain
        counters add exactly; ``avg_batch_size`` is recomputed from the
        summed totals; ``throughput_qps`` is total answers over total wall
        time; ``cache_entries`` reflects the *last* part (the live cache —
        retired caches are gone).

        Latency percentiles are merged from the shared histogram buckets,
        which every answering snapshot carries: bucket counts add exactly
        across generations, so the merged p50/p95/p99 are true percentiles
        of the combined distribution (to bucket resolution).  Percentiles
        are *not* averageable — a weighted mean of per-part p99s can produce
        a value no generation ever saw, or one below a part's own p95.
        """
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return replace(parts[0])
        num_batches = sum(p.num_batches for p in parts)
        batched = sum(p.avg_batch_size * p.num_batches for p in parts)
        answered = sum(p.queries_answered for p in parts)
        elapsed = sum(p.elapsed_seconds for p in parts)

        counted = [p for p in parts if p.queries_answered > 0]
        merged_counts = tuple(
            sum(p.latency_bucket_counts[i] for p in counted)
            for i in range(len(LATENCY_BUCKETS_MS) + 1)
        )
        p50 = bucket_percentile(LATENCY_BUCKETS_MS, merged_counts, 50.0)
        p95 = bucket_percentile(LATENCY_BUCKETS_MS, merged_counts, 95.0)
        p99 = bucket_percentile(LATENCY_BUCKETS_MS, merged_counts, 99.0)

        occupancy = (
            sum(p.batch_occupancy * p.num_batches for p in parts) / num_batches
            if num_batches
            else 0.0
        )
        return cls(
            queries_submitted=sum(p.queries_submitted for p in parts),
            queries_answered=answered,
            cache_hits=sum(p.cache_hits for p in parts),
            cache_entries=parts[-1].cache_entries,
            cache_invalidations=sum(p.cache_invalidations for p in parts),
            num_batches=num_batches,
            avg_batch_size=batched / num_batches if num_batches else 0.0,
            batch_occupancy=occupancy,
            p50_latency_ms=p50,
            p95_latency_ms=p95,
            throughput_qps=(answered / elapsed) if elapsed > 0 else 0.0,
            elapsed_seconds=elapsed,
            p99_latency_ms=p99,
            shed=sum(p.shed for p in parts),
            deadline_expired=sum(p.deadline_expired for p in parts),
            retries=sum(p.retries for p in parts),
            degraded_answers=sum(p.degraded_answers for p in parts),
            worker_restarts=sum(p.worker_restarts for p in parts),
            latency_bucket_counts=merged_counts,
        )
