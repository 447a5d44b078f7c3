"""Operational statistics of the serving layer.

:class:`ServiceStats` is an immutable snapshot of a
:class:`~repro.serving.service.QueryService`'s counters — safe to hand to a
metrics exporter or print in a benchmark report.  Latency is carried as
lifetime counts in the shared log-scale buckets of
:class:`repro.obs.metrics.Histogram`; the percentiles are read from those
counts, so a single service, a swap-merged deployment and a replica pool
report them with one meaning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.obs.metrics import LATENCY_BUCKETS_MS, bucket_percentile

__all__ = ["ServiceStats"]


#: Bucket counts of a snapshot that has timed nothing yet.
_NO_LATENCIES: tuple[int, ...] = (0,) * (len(LATENCY_BUCKETS_MS) + 1)


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
    #: Service wall time underlying ``throughput_qps`` (first submit to the
    #: most recent answer).  Carried so snapshots from several service
    #: generations can be merged exactly (see :meth:`merged`).
    elapsed_seconds: float = 0.0
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
    #: Lifetime submit-to-answer latency counts in the shared log-scale
    #: buckets (:data:`~repro.obs.metrics.LATENCY_BUCKETS_MS`, overflow slot
    #: last) — a :class:`~repro.obs.metrics.HistogramValue`'s ``counts``.
    latency_bucket_counts: tuple[int, ...] = _NO_LATENCIES

    @property
    def p50_latency_ms(self) -> float:
        """Median submit-to-answer latency over the snapshot's lifetime,
        interpolated in the shared buckets (p95/p99 alike)."""
        return bucket_percentile(LATENCY_BUCKETS_MS, self.latency_bucket_counts, 50.0)

    @property
    def p95_latency_ms(self) -> float:
        return bucket_percentile(LATENCY_BUCKETS_MS, self.latency_bucket_counts, 95.0)

    @property
    def p99_latency_ms(self) -> float:
        return bucket_percentile(LATENCY_BUCKETS_MS, self.latency_bucket_counts, 99.0)

    @property
    def throughput_qps(self) -> float:
        """Answered queries per second of service wall time; 0.0 before the
        first answer."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.queries_answered / self.elapsed_seconds

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of answered queries served from the cache."""
        if self.queries_answered == 0:
            return 0.0
        return self.cache_hits / self.queries_answered

    def to_dict(self) -> dict[str, object]:
        """A JSON-serialisable snapshot (the gateway's ``/stats`` payload).

        Plain field values plus the derived percentiles, throughput and
        ``cache_hit_rate``; the bucket tuple becomes a list so
        ``json.dumps`` takes it unmodified.
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
        """An all-zero snapshot.

        What a spawned-but-unqueried (or dead) replica contributes to a
        pool-wide merge, and what merging no snapshots at all returns.
        """
        return cls(0, 0, 0, 0, 0, 0, 0.0, 0.0)

    @classmethod
    def merged(cls, parts: Sequence["ServiceStats"]) -> "ServiceStats":
        """Aggregate snapshots from successive service generations.

        An :class:`~repro.serving.EngineHost` deployment retires its
        :class:`~repro.serving.QueryService` on every hot swap; this folds
        the retired generations and the live one into a single view.  Plain
        counters, wall time and latency bucket counts add exactly;
        ``avg_batch_size`` and ``batch_occupancy`` are recomputed from the
        summed totals; ``cache_entries`` reflects the *last* part (the live
        cache — retired caches are gone).  The percentiles and throughput
        are then read from the summed buckets and wall time, never averaged
        across parts.
        """
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return replace(parts[0])
        num_batches = sum(p.num_batches for p in parts)
        batched = sum(p.avg_batch_size * p.num_batches for p in parts)
        occupancy = sum(p.batch_occupancy * p.num_batches for p in parts)
        return cls(
            queries_submitted=sum(p.queries_submitted for p in parts),
            queries_answered=sum(p.queries_answered for p in parts),
            cache_hits=sum(p.cache_hits for p in parts),
            cache_entries=parts[-1].cache_entries,
            cache_invalidations=sum(p.cache_invalidations for p in parts),
            num_batches=num_batches,
            avg_batch_size=batched / num_batches if num_batches else 0.0,
            batch_occupancy=occupancy / num_batches if num_batches else 0.0,
            elapsed_seconds=sum(p.elapsed_seconds for p in parts),
            shed=sum(p.shed for p in parts),
            deadline_expired=sum(p.deadline_expired for p in parts),
            retries=sum(p.retries for p in parts),
            degraded_answers=sum(p.degraded_answers for p in parts),
            worker_restarts=sum(p.worker_restarts for p in parts),
            latency_bucket_counts=tuple(
                map(sum, zip(*(p.latency_bucket_counts for p in parts)))
            ),
        )
