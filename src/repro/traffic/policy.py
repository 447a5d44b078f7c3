"""Patch-vs-swap policy: *when* to repair in place, clone, or rebuild.

``BENCH_fig10_update.json`` shows the incremental repair's cost approaching
full-rebuild cost by ~100 changed edges, so the choice between the three
maintenance actions is a real online decision:

* ``patch`` — repair the live index in place
  (:meth:`EngineHost.apply_updates`).  Cheapest for small dirty cones, but
  queries racing the repair may transiently see mixed old/new weights, so
  it is only safe at low qps.
* ``clone_swap`` — clone in memory, patch the clone, hot-swap
  (:meth:`EngineHost.clone` → ``update_edges`` → :meth:`EngineHost.swap`).
  Never exposes a half-repaired index; costs a copy of the index's
  containers (functions are shared) on top of the repair.
* ``rebuild`` — rebuild from the patched graph and swap.  The trivial upper
  bound that wins once most of the tree is dirty anyway.

:class:`AdaptivePolicy` decides from the observed state
(:class:`PolicyObservation`): the estimated dirty fraction gates patch vs
rebuild structurally, live qps vetoes in-place patching, and the measured
per-action cost EWMAs (:class:`CostModel`) break the tie in the middle band
— the controller learns on its own workload which action is actually cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Protocol

__all__ = [
    "ACTION_PATCH",
    "ACTION_CLONE_SWAP",
    "ACTION_REBUILD",
    "ACTIONS",
    "PolicyObservation",
    "PolicyDecision",
    "UpdatePolicy",
    "AdaptivePolicy",
    "FixedPolicy",
    "CostModel",
]

#: Repair the live index in place (transient mixed answers; cheapest).
ACTION_PATCH = "patch"
#: Snapshot → patch the clone → zero-downtime swap (never mixed).
ACTION_CLONE_SWAP = "clone_swap"
#: Rebuild from the patched graph → swap (the paper's trivial upper bound).
ACTION_REBUILD = "rebuild"
#: Every action a policy may return, in escalation order.
ACTIONS = (ACTION_PATCH, ACTION_CLONE_SWAP, ACTION_REBUILD)


@dataclass(frozen=True)
class PolicyObservation:
    """What the controller knows at decision time (one control step)."""

    #: Raw events drained this step (before per-edge coalescing).
    raw_updates: int
    #: Distinct edges in the coalesced batch.
    coalesced_edges: int
    #: Structural upper bound on vertices an in-place repair would touch
    #: (:func:`repro.traffic.estimate_dirty_vertices`).
    dirty_estimate: int
    #: Vertices in the served graph (the denominator of the dirty fraction).
    num_vertices: int
    #: Observed queries/second against the deployment since the last step.
    qps: float
    #: Age of the oldest un-applied event, seconds (staleness floor).
    backlog_age_seconds: float
    #: Measured cost EWMA per action, seconds; missing key = never measured.
    expected_cost: Mapping[str, float] = field(
        default_factory=lambda: MappingProxyType({})
    )

    @property
    def dirty_fraction(self) -> float:
        """``dirty_estimate`` over the graph size, clamped to [0, 1]."""
        if self.num_vertices <= 0:
            return 1.0
        return min(self.dirty_estimate / self.num_vertices, 1.0)


@dataclass(frozen=True)
class PolicyDecision:
    """An action plus the human-readable reason it was chosen."""

    action: str
    reason: str


class UpdatePolicy(Protocol):
    """The pluggable decision interface of the controller."""

    def decide(self, observation: PolicyObservation) -> PolicyDecision:
        """Choose one of :data:`ACTIONS` for this batch."""
        ...


class CostModel:
    """Per-action cost EWMAs, learned from the controller's own executions.

    ``observe`` folds one measured execution in; ``expect`` returns the
    current estimate (None before the first observation — policies must
    treat unmeasured actions structurally, not as free).  Thread-safe: the
    gateway may snapshot stats while the control loop records.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._lock = threading.Lock()
        self._ewma: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def observe(self, action: str, seconds: float) -> None:
        with self._lock:
            previous = self._ewma.get(action)
            if previous is None:
                self._ewma[action] = float(seconds)
            else:
                self._ewma[action] = (
                    self.alpha * float(seconds) + (1.0 - self.alpha) * previous
                )
            self._counts[action] = self._counts.get(action, 0) + 1

    def expect(self, action: str) -> float | None:
        with self._lock:
            return self._ewma.get(action)

    def snapshot(self) -> Mapping[str, float]:
        """An immutable view of every measured EWMA (for observations)."""
        with self._lock:
            return MappingProxyType(dict(self._ewma))

    def observations(self, action: str) -> int:
        with self._lock:
            return self._counts.get(action, 0)

    def __repr__(self) -> str:
        with self._lock:
            pairs = ", ".join(
                f"{action}={seconds:.3f}s" for action, seconds in self._ewma.items()
            )
        return f"CostModel({pairs or 'unmeasured'})"


class AdaptivePolicy:
    """The default decision rule: structure gates, measurements arbitrate.

    1. ``dirty_fraction >= rebuild_dirty_fraction`` → **rebuild** (the
       repair would walk most of the tree anyway; Fig. 10's crossover).
    2. ``dirty_fraction <= patch_dirty_fraction`` *and* ``qps <=
       patch_max_qps`` → **patch** (small cone, light traffic — nobody is
       watching the transient).
    3. Otherwise → **clone_swap**, unless both clone-swap and rebuild have
       been measured and rebuild's EWMA is cheaper (small scaled graphs
       land there: a fresh build can undercut snapshot + patch + load).

    Deterministic given the observation — the property tests replay it.
    """

    def __init__(
        self,
        *,
        patch_dirty_fraction: float = 0.10,
        rebuild_dirty_fraction: float = 0.50,
        patch_max_qps: float = 50.0,
    ) -> None:
        if not 0.0 <= patch_dirty_fraction <= rebuild_dirty_fraction <= 1.0:
            raise ValueError(
                "thresholds must satisfy 0 <= patch_dirty_fraction <= "
                f"rebuild_dirty_fraction <= 1, got {patch_dirty_fraction} "
                f"and {rebuild_dirty_fraction}"
            )
        self.patch_dirty_fraction = patch_dirty_fraction
        self.rebuild_dirty_fraction = rebuild_dirty_fraction
        self.patch_max_qps = patch_max_qps

    def decide(self, observation: PolicyObservation) -> PolicyDecision:
        fraction = observation.dirty_fraction
        if fraction >= self.rebuild_dirty_fraction:
            return PolicyDecision(
                ACTION_REBUILD,
                f"dirty fraction {fraction:.0%} >= "
                f"{self.rebuild_dirty_fraction:.0%}: incremental repair "
                "would walk most of the tree",
            )
        if fraction <= self.patch_dirty_fraction:
            if observation.qps <= self.patch_max_qps:
                return PolicyDecision(
                    ACTION_PATCH,
                    f"dirty fraction {fraction:.0%} <= "
                    f"{self.patch_dirty_fraction:.0%} at {observation.qps:.0f} "
                    f"qps (<= {self.patch_max_qps:.0f}): in-place repair is "
                    "cheap and lightly observed",
                )
            return PolicyDecision(
                ACTION_CLONE_SWAP,
                f"small dirty cone but {observation.qps:.0f} qps > "
                f"{self.patch_max_qps:.0f}: too much live traffic to patch "
                "under readers",
            )
        clone_cost = observation.expected_cost.get(ACTION_CLONE_SWAP)
        rebuild_cost = observation.expected_cost.get(ACTION_REBUILD)
        if (
            clone_cost is not None
            and rebuild_cost is not None
            and rebuild_cost < clone_cost
        ):
            return PolicyDecision(
                ACTION_REBUILD,
                f"measured rebuild EWMA {rebuild_cost:.3f}s beats clone-swap "
                f"{clone_cost:.3f}s in the middle band",
            )
        return PolicyDecision(
            ACTION_CLONE_SWAP,
            f"dirty fraction {fraction:.0%} in "
            f"({self.patch_dirty_fraction:.0%}, "
            f"{self.rebuild_dirty_fraction:.0%}): patch the clone, swap",
        )

    def __repr__(self) -> str:
        return (
            f"AdaptivePolicy(patch<={self.patch_dirty_fraction:.0%}, "
            f"rebuild>={self.rebuild_dirty_fraction:.0%}, "
            f"patch_max_qps={self.patch_max_qps:g})"
        )


class FixedPolicy:
    """Always the same action — test scaffolding and manual overrides."""

    def __init__(self, action: str) -> None:
        if action not in ACTIONS:
            raise ValueError(f"unknown action {action!r}; expected one of {ACTIONS}")
        self.action = action

    def decide(self, observation: PolicyObservation) -> PolicyDecision:
        return PolicyDecision(self.action, f"fixed policy: always {self.action}")

    def __repr__(self) -> str:
        return f"FixedPolicy({self.action!r})"
