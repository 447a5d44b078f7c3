"""Thread-safe metrics registry: counters, gauges, log-bucket histograms.

The registry is the shared telemetry vocabulary of the whole stack — builds
(:class:`~repro.core.index.TDTreeIndex` phase timings, pool-memory gauges)
and serving (:class:`~repro.serving.QueryService` /
:class:`~repro.serving.EngineHost` traffic counters) publish into the same
instrument space, and the exporters in :mod:`repro.obs.export` turn any
registry into a Prometheus text exposition or a JSON snapshot.

Design points:

* **Labeled instruments.**  ``registry.counter("x_total", "...", ("service",))``
  returns one :class:`Counter`; ``counter.labels(service="prod")`` binds a
  label set into a cheap child handle whose ``inc`` is one lock + one float
  add — bind once on a hot path, not per call.
* **Idempotent registration.**  Asking for an existing name returns the
  existing instrument (type and label names must match), so independent
  components share instruments without coordination.
* **Histograms use fixed log-scale buckets** (:data:`LATENCY_BUCKETS_MS`
  for latencies).  Fixed shared buckets are what makes histograms *mergeable*:
  adding two services' bucket counts is exact, unlike averaging their
  percentiles (see :func:`bucket_percentile` and
  :meth:`~repro.serving.ServiceStats.merged`).
* **Per-process singleton plus injectable instances** — library code defaults
  to :func:`get_registry`; tests build private registries and pass them in.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Callable, Iterator, Mapping, Sequence

__all__ = [
    "LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricSample",
    "MetricsRegistry",
    "bucket_percentile",
    "get_registry",
    "set_registry",
]

#: Fixed log-scale latency bucket upper bounds, in milliseconds.  Spans
#: sub-batch-flush latencies (0.1 ms) to deadline-scale tails (10 s); the
#: implicit final bucket is +inf.  Shared by every latency histogram in the
#: library so snapshots from different services/generations merge exactly.
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    10_000.0,
)

#: One label set, in the instrument's declared label-name order.
LabelValues = tuple[str, ...]


def _label_values(
    labelnames: tuple[str, ...], labels: Mapping[str, str]
) -> LabelValues:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def bucket_percentile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Estimate the ``q``-th percentile from histogram bucket counts.

    ``bounds`` are the finite bucket upper bounds; ``counts`` has one extra
    trailing entry for the +inf overflow bucket.  Uses Prometheus-style
    linear interpolation inside the located bucket; the overflow bucket
    reports its lower bound (the largest finite bound — there is no upper
    edge to interpolate towards).  Returns 0.0 for an empty histogram.
    """
    if len(counts) != len(bounds) + 1:
        raise ValueError("counts must have one entry per bound plus overflow")
    total = sum(counts)
    if total == 0:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    rank = (q / 100.0) * total
    cumulative = 0
    for i, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= rank and count > 0:
            if i == len(bounds):  # overflow bucket: no finite upper edge
                return float(bounds[-1])
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = bounds[i]
            fraction = (rank - previous) / count if count else 1.0
            return float(lower + (upper - lower) * min(max(fraction, 0.0), 1.0))
    return float(bounds[-1])


class _CounterChild:
    """One label set's value of a :class:`Counter` (pre-bound, cheap)."""

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: "Counter", key: LabelValues) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._counter._inc(self._key, amount)

    @property
    def value(self) -> float:
        return self._counter._get(self._key)


class _GaugeChild:
    """One label set's value of a :class:`Gauge` (pre-bound, cheap)."""

    __slots__ = ("_gauge", "_key")

    def __init__(self, gauge: "Gauge", key: LabelValues) -> None:
        self._gauge = gauge
        self._key = key

    def set(self, value: float) -> None:
        self._gauge._set(self._key, value)

    def inc(self, amount: float = 1.0) -> None:
        self._gauge._inc(self._key, amount)

    def dec(self, amount: float = 1.0) -> None:
        self._gauge._inc(self._key, -amount)

    @property
    def value(self) -> float:
        return self._gauge._get(self._key)


class _HistogramChild:
    """One label set's buckets of a :class:`Histogram` (pre-bound)."""

    __slots__ = ("_histogram", "_key")

    def __init__(self, histogram: "Histogram", key: LabelValues) -> None:
        self._histogram = histogram
        self._key = key

    def observe(self, value: float) -> None:
        self._histogram._observe(self._key, value)

    def observe_many(self, values: Sequence[float]) -> None:
        self._histogram._observe_many(self._key, values)

    def merge_counts(self, counts: Sequence[int], sum_delta: float) -> None:
        self._histogram._merge_counts(self._key, counts, sum_delta)

    @property
    def value(self) -> "HistogramValue":
        return self._histogram._get(self._key)


class _Instrument:
    """Common machinery: name, help, label names, per-instrument lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.labelnames: tuple[str, ...] = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, str]) -> LabelValues:
        return _label_values(self.labelnames, labels)


class Counter(_Instrument):
    """A monotonically increasing sum (Prometheus ``counter``)."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[LabelValues, float] = {}

    def labels(self, **labels: str) -> _CounterChild:
        return _CounterChild(self, self._key(labels))

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._inc(self._key(labels), amount)

    def value(self, **labels: str) -> float:
        return self._get(self._key(labels))

    def _inc(self, key: LabelValues, amount: float) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def _get(self, key: LabelValues) -> float:
        with self._lock:
            return self._values.get(key, 0.0)

    def items(self) -> list[tuple[LabelValues, float]]:
        with self._lock:
            return list(self._values.items())


class Gauge(_Instrument):
    """A value that can go up and down (Prometheus ``gauge``)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[LabelValues, float] = {}

    def labels(self, **labels: str) -> _GaugeChild:
        return _GaugeChild(self, self._key(labels))

    def set(self, value: float, **labels: str) -> None:
        self._set(self._key(labels), value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._inc(self._key(labels), amount)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self._inc(self._key(labels), -amount)

    def value(self, **labels: str) -> float:
        return self._get(self._key(labels))

    def _set(self, key: LabelValues, value: float) -> None:
        with self._lock:
            self._values[key] = float(value)

    def _inc(self, key: LabelValues, amount: float) -> None:
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def _get(self, key: LabelValues) -> float:
        with self._lock:
            return self._values.get(key, 0.0)

    def items(self) -> list[tuple[LabelValues, float]]:
        with self._lock:
            return list(self._values.items())


class HistogramValue:
    """An immutable snapshot of one histogram label set."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(
        self, bounds: tuple[float, ...], counts: tuple[int, ...], total: float
    ) -> None:
        #: Finite bucket upper bounds.
        self.bounds = bounds
        #: Observation counts per bucket, plus one overflow entry.
        self.counts = counts
        #: Sum of every observed value.
        self.sum = total
        #: Total number of observations.
        self.count = sum(counts)

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (see :func:`bucket_percentile`)."""
        return bucket_percentile(self.bounds, self.counts, q)


class Histogram(_Instrument):
    """Fixed-bucket distribution (Prometheus ``histogram``).

    Buckets are set at construction and shared by every label set, so any
    two snapshots of the same instrument merge by adding counts.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = LATENCY_BUCKETS_MS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be strictly increasing and non-empty")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("buckets must be finite (+inf is implicit)")
        self.bounds = bounds
        self._counts: dict[LabelValues, list[int]] = {}
        self._sums: dict[LabelValues, float] = {}

    def labels(self, **labels: str) -> _HistogramChild:
        return _HistogramChild(self, self._key(labels))

    def observe(self, value: float, **labels: str) -> None:
        self._observe(self._key(labels), value)

    def value(self, **labels: str) -> HistogramValue:
        return self._get(self._key(labels))

    def _observe(self, key: LabelValues, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.bounds) + 1)
            counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value

    def _observe_many(self, key: LabelValues, values: Sequence[float]) -> None:
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.bounds) + 1)
            total = self._sums.get(key, 0.0)
            for value in values:
                counts[bisect_left(self.bounds, value)] += 1
                total += value
            self._sums[key] = total

    def _merge_counts(
        self, key: LabelValues, deltas: Sequence[int], sum_delta: float
    ) -> None:
        """Add pre-bucketed count deltas (plus their value sum) to ``key``.

        The publisher's buckets must be this instrument's: a private
        histogram with the same bounds (a query service's own latency
        histogram) syncs its count diff in O(buckets) instead of
        re-bucketing every observation.
        """
        if len(deltas) != len(self.bounds) + 1:
            raise ValueError(
                f"expected {len(self.bounds) + 1} bucket counts "
                f"(bounds plus overflow), got {len(deltas)}"
            )
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.bounds) + 1)
            for i, delta in enumerate(deltas):
                if delta:
                    counts[i] += delta
            self._sums[key] = self._sums.get(key, 0.0) + sum_delta

    def _get(self, key: LabelValues) -> HistogramValue:
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.bounds) + 1)
            return HistogramValue(
                self.bounds, tuple(counts), self._sums.get(key, 0.0)
            )

    def items(self) -> list[tuple[LabelValues, HistogramValue]]:
        with self._lock:
            return [
                (
                    key,
                    HistogramValue(
                        self.bounds, tuple(counts), self._sums.get(key, 0.0)
                    ),
                )
                for key, counts in self._counts.items()
            ]


#: One exported sample: (metric name, label pairs, value).
MetricSample = tuple[str, tuple[tuple[str, str], ...], float]


class MetricsRegistry:
    """A named collection of instruments, safe for concurrent use.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    registers the instrument, later calls return it (and reject mismatched
    kinds or label names, which would silently split a metric).  *Refresh
    hooks* let pull-model sources (a :class:`~repro.serving.QueryService`
    publishes its counters batch-wise, not per submit) flush pending deltas
    right before an export reads the registry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}
        self._refresh_hooks: list[Callable[[], None]] = []

    # -- registration --------------------------------------------------
    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        instrument = self._register(Counter, name, help, labelnames)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        instrument = self._register(Gauge, name, help, labelnames)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = LATENCY_BUCKETS_MS,
    ) -> Histogram:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                self._check_match(existing, Histogram, name, labelnames)
                assert isinstance(existing, Histogram)
                if existing.bounds != tuple(float(b) for b in buckets):
                    raise ValueError(
                        f"histogram {name!r} already registered with "
                        "different buckets"
                    )
                return existing
            instrument = Histogram(name, help, labelnames, buckets=buckets)
            self._instruments[name] = instrument
            return instrument

    def _register(
        self,
        kind: "type[Counter] | type[Gauge]",
        name: str,
        help: str,
        labelnames: Sequence[str],
    ) -> "Counter | Gauge":
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                self._check_match(existing, kind, name, labelnames)
                assert isinstance(existing, (Counter, Gauge))
                return existing
            instrument = kind(name, help, labelnames)
            self._instruments[name] = instrument
            return instrument

    @staticmethod
    def _check_match(
        existing: _Instrument, kind: type, name: str, labelnames: Sequence[str]
    ) -> None:
        if type(existing) is not kind:
            raise ValueError(
                f"metric {name!r} already registered as a "
                f"{existing.kind}, not a {kind.__name__.lower()}"
            )
        if existing.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{existing.labelnames}, not {tuple(labelnames)}"
            )

    # -- refresh hooks -------------------------------------------------
    def register_refresh_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` before every :meth:`collect` (export freshness)."""
        with self._lock:
            self._refresh_hooks.append(hook)

    def unregister_refresh_hook(self, hook: Callable[[], None]) -> None:
        with self._lock:
            try:
                self._refresh_hooks.remove(hook)
            except ValueError:
                pass

    def refresh(self) -> None:
        """Fire every refresh hook (exporters call this first)."""
        with self._lock:
            hooks = list(self._refresh_hooks)
        for hook in hooks:
            try:
                hook()
            except Exception:  # noqa: BLE001 - a dead source must not kill exports
                pass

    # -- introspection -------------------------------------------------
    def instruments(self) -> list[_Instrument]:
        """Registered instruments, in registration order."""
        with self._lock:
            return list(self._instruments.values())

    def get(self, name: str) -> "_Instrument | None":
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._instruments)

    def collect(self) -> Iterator[tuple[_Instrument, list[tuple[LabelValues, object]]]]:
        """Refresh, then yield ``(instrument, [(label values, value)])``.

        The value is a float for counters/gauges and a
        :class:`HistogramValue` for histograms.
        """
        self.refresh()
        for instrument in self.instruments():
            yield instrument, list(instrument.items())  # type: ignore[attr-defined]


_default_lock = threading.Lock()
_default_registry: MetricsRegistry | None = None


def get_registry() -> MetricsRegistry:
    """The per-process default registry (created lazily)."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = MetricsRegistry()
        return _default_registry


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Replace the process default (tests); returns the new active registry.

    Passing ``None`` resets to a fresh registry.
    """
    global _default_registry
    with _default_lock:
        _default_registry = registry if registry is not None else MetricsRegistry()
        return _default_registry
