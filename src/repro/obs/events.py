"""Structured event log: typed operational events through one sink.

Before this module, the control plane's state changes were silent — a
supervisor restart, a hot swap, a shed query or an injected fault left no
record beyond a mutated counter.  :class:`EventLog` gives them one shared
sink: every emitter produces a typed :class:`Event` (a *kind* from the
``EVENT_*`` vocabulary, a *subject* such as the deployment name, a clock
timestamp and free-form fields), the log keeps a bounded in-memory ring for
introspection ("what did the supervisor do at 14:03?"), optionally appends
JSONL for offline analysis, and mirrors per-kind totals into the metrics
registry so event rates show up on ``/metrics`` too.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Mapping

from repro.obs.metrics import MetricsRegistry
from repro.utils.timing import SYSTEM_CLOCK, Clock

__all__ = [
    "Event",
    "EventLog",
    "read_events",
    "EVENT_DEPLOY",
    "EVENT_SWAP",
    "EVENT_UNDEPLOY",
    "EVENT_UPDATE",
    "EVENT_TRAFFIC_INGEST",
    "EVENT_TRAFFIC_ACTION",
    "EVENT_RECOVERY",
    "EVENT_HEALTH",
    "EVENT_SHED",
    "EVENT_DEADLINE",
    "EVENT_FAULT",
    "EVENT_ABORT",
    "EVENT_REPLICA_SPAWN",
    "EVENT_REPLICA_RESPAWN",
    "EVENT_RATE_LIMITED",
    "EVENT_GATEWAY_SHED",
]

# The event vocabulary.  Emitters pass these constants; consumers filter on
# them.  New kinds are fine — the log is schemaless past (kind, subject, at).
EVENT_DEPLOY = "deploy"
#: A zero-downtime engine swap completed (fields: old_spec, new_spec, ...).
EVENT_SWAP = "swap"
EVENT_UNDEPLOY = "undeploy"
#: Edge-weight changes were applied by repairing a clone of the live engine
#: and swapping it in (fields: changed_edges, dirty_vertices, seconds).
EVENT_UPDATE = "update"
#: The traffic controller accepted edge-weight updates into its pending
#: batch (fields: updates, pending_edges).
EVENT_TRAFFIC_INGEST = "traffic.ingest"
#: The traffic controller applied one coalesced batch (fields: action,
#: raw_updates, coalesced_edges, seconds, staleness_p50).
EVENT_TRAFFIC_ACTION = "traffic.action"
#: A supervision recovery ran (fields: action=restart/rehydrate/fallback/park,
#: cause, failed_futures).
EVENT_RECOVERY = "supervision.recovery"
#: A deployment's health state changed (fields: state, cause).
EVENT_HEALTH = "supervision.health"
#: A query was rejected at admission (fields: policy).
EVENT_SHED = "shed"
#: A future settled by deadline expiry (fields: deadline_ms).
EVENT_DEADLINE = "deadline"
#: A fault-injection wrapper fired (fields: fault, batch).
EVENT_FAULT = "fault.injected"
#: A service was aborted, failing its in-flight futures (fields: failed).
EVENT_ABORT = "abort"
#: A replica worker process started (fields: replica, pid).
EVENT_REPLICA_SPAWN = "replica.spawn"
#: A dead replica worker was recovered (fields: replica, action=respawn/lost,
#: cause, failed_requests).
EVENT_REPLICA_RESPAWN = "replica.respawn"
#: The gateway rate-limited a client's HTTP request (fields: client, route,
#: retry_after_ms).
EVENT_RATE_LIMITED = "gateway.rate_limited"
#: The gateway shed an HTTP request at its own admission bound (fields:
#: route, in_flight, max_in_flight, retry_after_ms).
EVENT_GATEWAY_SHED = "gateway.shed"


@dataclass(frozen=True)
class Event:
    """One structured operational event."""

    #: What happened — one of the ``EVENT_*`` kinds (or any dotted string).
    kind: str
    #: What it happened to (deployment or service name; may be empty).
    subject: str
    #: Monotonic clock timestamp of the emit.
    at: float
    #: Free-form structured payload.
    fields: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "at": self.at,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Event":
        return cls(
            kind=str(payload["kind"]),
            subject=str(payload.get("subject", "")),
            at=float(payload.get("at", 0.0)),
            fields=dict(payload.get("fields", {})),
        )


class EventLog:
    """Bounded, thread-safe event sink with optional JSONL persistence.

    Parameters
    ----------
    capacity:
        In-memory ring size; the oldest events fall off first.
    clock:
        Timestamp source (inject a fake clock for deterministic tests).
    jsonl_path:
        Append every event as one JSON line to this file; None keeps the
        log purely in-memory.
    registry:
        When given, per-kind totals are mirrored into the counter
        ``repro_events_total{kind=...}`` so event rates are scrapeable.
    """

    def __init__(
        self,
        *,
        capacity: int = 4096,
        clock: Clock = SYSTEM_CLOCK,
        jsonl_path: "str | Path | None" = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.clock = clock
        self.jsonl_path = None if jsonl_path is None else Path(jsonl_path)
        self._lock = threading.Lock()
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._total = 0
        self._file: IO[str] | None = None
        self._counter = (
            registry.counter(
                "repro_events_total", "Structured events emitted, by kind.", ("kind",)
            )
            if registry is not None
            else None
        )

    def emit(self, kind: str, subject: str = "", **fields: Any) -> Event:
        """Record one event; returns it (timestamped with the log's clock)."""
        event = Event(kind=kind, subject=subject, at=self.clock.monotonic(), fields=fields)
        path = self.jsonl_path
        with self._lock:
            self._ring.append(event)
            self._total += 1
            if path is not None:
                if self._file is None:
                    self._file = open(path, "a", encoding="utf-8")
                self._file.write(json.dumps(event.to_dict()) + "\n")
                self._file.flush()
        if self._counter is not None:
            self._counter.inc(1.0, kind=kind)
        return event

    # -- introspection -------------------------------------------------
    def events(
        self, kind: str | None = None, subject: str | None = None
    ) -> list[Event]:
        """Events still in the ring, oldest first, optionally filtered."""
        with self._lock:
            events = list(self._ring)
        if kind is not None:
            events = [e for e in events if e.kind == kind]
        if subject is not None:
            events = [e for e in events if e.subject == subject]
        return events

    @property
    def total(self) -> int:
        """Events emitted over the log's lifetime (ring overflow included)."""
        with self._lock:
            return self._total

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def close(self) -> None:
        """Close the JSONL sink (idempotent)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __repr__(self) -> str:
        return f"EventLog(events={len(self)}, total={self.total})"


def read_events(path: "str | Path") -> list[Event]:
    """Load a JSONL event file back into :class:`Event` objects."""
    events: list[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(Event.from_dict(json.loads(line)))
    return events
