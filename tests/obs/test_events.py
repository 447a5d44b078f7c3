"""Structured event log: round-trips, and one event per control-plane change."""

from __future__ import annotations

from functools import partial

import pytest

from repro.exceptions import AdmissionRejectedError, DeadlineExceededError
from repro.obs import (
    EVENT_DEADLINE,
    EVENT_DEPLOY,
    EVENT_FAULT,
    EVENT_HEALTH,
    EVENT_RECOVERY,
    EVENT_SHED,
    EVENT_SWAP,
    EVENT_UNDEPLOY,
    Event,
    EventLog,
    MetricsRegistry,
    Observability,
    read_events,
)
from repro.serving import EngineHost, HealthState, SupervisionConfig
from repro.utils.timing import FakeClock

FAULT_FREE = "td-appro?budget_fraction=0.4&max_points=16"
POISONED = f"faulty:{FAULT_FREE}&poison_from=1"
MANUAL = {"max_batch_size": 64, "cache_size": 0}


def _config(**overrides):
    defaults = {
        "interval_ms": 60_000.0,
        "wedge_timeout_ms": 60_000.0,
        "failure_threshold": 1,
        "recovery_checks": 2,
        "max_restarts": 3,
    }
    defaults.update(overrides)
    return SupervisionConfig(**defaults)


class TestEventLog:
    def test_emit_filter_and_ring_bound(self):
        clock = FakeClock()
        log = EventLog(capacity=3, clock=clock)
        log.emit("deploy", "prod", spec="td-appro")
        clock.advance(1.0)
        log.emit("swap", "prod")
        log.emit("swap", "staging")
        log.emit("undeploy", "prod")
        assert log.total == 4
        assert len(log) == 3  # the deploy fell off the ring
        assert [e.kind for e in log.events()] == ["swap", "swap", "undeploy"]
        assert [e.subject for e in log.events(kind="swap")] == ["prod", "staging"]
        assert [e.kind for e in log.events(subject="prod")] == ["swap", "undeploy"]
        assert log.events(kind="swap")[0].at == pytest.approx(1.0)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(clock=FakeClock(), jsonl_path=path)
        emitted = [
            log.emit("deploy", "prod", spec="td-appro", fallback=None),
            log.emit("supervision.recovery", "prod", action="restart", failed=3),
        ]
        log.close()
        loaded = read_events(path)
        assert loaded == emitted
        assert isinstance(loaded[0], Event)
        assert loaded[1].fields == {"action": "restart", "failed": 3}

    def test_registry_mirror_counts_by_kind(self):
        registry = MetricsRegistry()
        log = EventLog(registry=registry)
        log.emit("swap", "prod")
        log.emit("swap", "prod")
        log.emit("shed", "svc")
        counter = registry.counter("repro_events_total", "", ("kind",))
        assert counter.value(kind="swap") == 2.0
        assert counter.value(kind="shed") == 1.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


class TestControlPlaneEvents:
    def test_deploy_swap_undeploy_each_emit_once(self, small_grid):
        obs = Observability()
        with EngineHost(**MANUAL, obs=obs) as host:
            host.deploy("prod", FAULT_FREE, small_grid)
            host.swap("prod", FAULT_FREE, small_grid)
            host.undeploy("prod")
        (deploy,) = obs.events.events(kind=EVENT_DEPLOY)
        assert deploy.subject == "prod"
        assert deploy.fields["spec"] == FAULT_FREE
        (swap,) = obs.events.events(kind=EVENT_SWAP)
        assert swap.fields["new_spec"] == FAULT_FREE
        assert swap.fields["build_seconds"] >= 0.0
        (undeploy,) = obs.events.events(kind=EVENT_UNDEPLOY)
        assert undeploy.subject == "prod"

    def test_shed_and_deadline_events(self, approx_index, held_engine):
        obs = Observability()
        held = held_engine(approx_index)
        with EngineHost(
            max_batch_size=64, cache_size=0,
            max_pending=1, admission_policy="shed", obs=obs,
        ) as host:
            host.deploy("prod", held)
            # The plug holds the only admission slot.
            with held.plugged(partial(host.submit, "prod")):
                with pytest.raises(AdmissionRejectedError):
                    # Bypass the host's retry loop: submit on the service.
                    host._service("prod").submit(1, 23, 0.0)
            (shed,) = obs.events.events(kind=EVENT_SHED)
            assert shed.fields["policy"] == "shed"
            # Leaving the block settled the plug, freeing the slot.
            doomed = host.submit("prod", 2, 22, 0.0, deadline_ms=0.001)
            assert isinstance(doomed.exception(5.0), DeadlineExceededError)
            (deadline,) = obs.events.events(kind=EVENT_DEADLINE)
            assert deadline.fields["deadline_ms"] == pytest.approx(0.001)

    def test_fault_injections_land_in_the_deployment_timeline(self, small_grid):
        obs = Observability()
        with EngineHost(**MANUAL, supervision=_config(), obs=obs) as host:
            host.deploy("prod", POISONED, small_grid)
            doomed = host.submit("prod", 0, 24, 0.0)
            assert doomed.exception(5.0) is not None
        faults = obs.events.events(kind=EVENT_FAULT)
        assert len(faults) >= 1
        assert faults[0].fields["fault"] == "poison"
        assert faults[0].fields["batch"] == 1


class TestSupervisionTransitions:
    """Acceptance: every supervision transition appears exactly once."""

    def _recovery_actions(self, obs):
        return [e.fields["action"] for e in obs.events.events(kind=EVENT_RECOVERY)]

    def test_restart_and_promotion_emit_exactly_once(self, small_grid):
        obs = Observability()
        crash_once = f"faulty:{FAULT_FREE}&crash_batch=1"
        with EngineHost(**MANUAL, supervision=_config(), obs=obs) as host:
            host.deploy("prod", crash_once, small_grid)
            doomed = host.submit("prod", 0, 24, 0.0)
            assert doomed.exception(5.0) is not None
            assert host.check()["prod"].action == "restart"
            host.check(), host.check()  # two clean passes promote to HEALTHY
            assert host.health("prod").state is HealthState.HEALTHY
        assert self._recovery_actions(obs) == ["restart"]
        health = obs.events.events(kind=EVENT_HEALTH, subject="prod")
        assert [e.fields["state"] for e in health] == ["degraded", "healthy"]

    def test_rehydrate_emits_exactly_once(self, small_grid, tmp_path):
        obs = Observability()
        with EngineHost(
            **MANUAL, supervision=_config(max_restarts=0), obs=obs
        ) as host:
            host.deploy("prod", POISONED, small_grid)
            host.snapshot("prod", tmp_path / "snap")
            doomed = host.submit("prod", 0, 24, 0.0)
            assert doomed.exception(5.0) is not None
            assert host.check()["prod"].action == "rehydrate"
        assert self._recovery_actions(obs) == ["rehydrate"]

    def test_fallback_then_park_escalation_each_exactly_once(self, small_grid):
        obs = Observability()
        with EngineHost(
            **MANUAL, supervision=_config(max_restarts=1), obs=obs
        ) as host:
            host.deploy("prod", POISONED, small_grid, fallback="td-dijkstra")
            for expected in ("restart", "fallback"):
                doomed = host.submit("prod", 0, 24, 0.0)
                assert doomed.exception(5.0) is not None
                assert host.check()["prod"].action == expected
            assert host.health("prod").state is HealthState.UNHEALTHY
        assert self._recovery_actions(obs) == ["restart", "fallback"]
        health = obs.events.events(kind=EVENT_HEALTH, subject="prod")
        assert [e.fields["state"] for e in health] == ["degraded", "unhealthy"]

    def test_park_emits_exactly_once(self, small_grid):
        obs = Observability()
        with EngineHost(
            **MANUAL, supervision=_config(max_restarts=0), obs=obs
        ) as host:
            host.deploy("prod", POISONED, small_grid)
            doomed = host.submit("prod", 0, 24, 0.0)
            assert doomed.exception(5.0) is not None
            assert host.check()["prod"].action == "park"
            assert host.check() == {}  # parked: later passes stay silent
        assert self._recovery_actions(obs) == ["park"]
        health = obs.events.events(kind=EVENT_HEALTH, subject="prod")
        assert [e.fields["state"] for e in health] == ["unhealthy"]
