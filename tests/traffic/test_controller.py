"""TrafficController: coalescing, action execution, staleness accounting.

Every action's end state is checked against the strongest oracle available:
a fresh engine built from a shadow graph that tracked the same updates —
answers must match bit for bit.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import create_engine
from repro.exceptions import (
    TrafficControlError,
    UnknownDeploymentError,
    WorkerCrashedError,
)
from repro.obs import Observability
from repro.serving import EngineHost, HealthState, InjectedFaultError, SupervisionConfig
from repro.traffic import (
    ACTION_CLONE_SWAP,
    ACTION_PATCH,
    ACTION_REBUILD,
    ACTIONS,
    FixedPolicy,
    PolicyDecision,
    ScenarioDriver,
    TrafficController,
)
from repro.utils.timing import FakeClock


def _workload(graph, count=20, seed=91):
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


@pytest.fixture()
def host(small_grid):
    with EngineHost(max_batch_size=32) as h:
        h.deploy("prod", "td-h2h", small_grid.copy())
        yield h


class TestLifecycle:
    def test_unknown_deployment_rejected_eagerly(self, host):
        with pytest.raises(UnknownDeploymentError):
            TrafficController(host, "ghost")

    def test_step_with_empty_stream_is_a_noop(self, host):
        with TrafficController(host, "prod") as controller:
            assert controller.step() is None
            assert controller.stats().steps == 0

    def test_closed_controller_refuses_steps_and_pushes(self, host):
        controller = TrafficController(host, "prod")
        controller.close()
        with pytest.raises(TrafficControlError):
            controller.step()
        with pytest.raises(TrafficControlError):
            controller.emit_delay(0, 1, 60.0)
        controller.close()  # idempotent


class TestCoalescing:
    def test_latest_event_per_edge_wins(self, host, small_grid):
        clock = FakeClock()
        with TrafficController(
            host, "prod", policy=FixedPolicy(ACTION_PATCH), clock=clock
        ) as controller:
            base = small_grid.weight(0, 1)
            # Out-of-order arrival: the newer event is pushed first.
            controller.stream.emit(0, 1, base.shift(600.0), event_at=10.0)
            controller.stream.emit(0, 1, base.shift(60.0), event_at=5.0)
            report = controller.step()
            assert report is not None
            assert report.raw_updates == 2
            assert report.coalesced_edges == 1
            live = host.deployment("prod").engine.graph
            assert live.weight(0, 1).allclose(base.shift(600.0))
            stats = controller.stats()
            assert stats.updates_ingested == 2
            assert stats.updates_coalesced == 1


class TestActions:
    @pytest.mark.parametrize("action", ACTIONS)
    def test_each_action_converges_to_fresh_rebuild_oracle(
        self, host, small_grid, action
    ):
        shadow = small_grid.copy()
        queries = _workload(shadow)
        with TrafficController(
            host, "prod", policy=FixedPolicy(action)
        ) as controller:
            driver = ScenarioDriver(shadow, seed=4)
            events = driver.flash_incident(edges=3, delay=420.0)
            for update in driver.updates(events, origin=0.0):
                controller.ingest(update)
                shadow.set_weight(update.source, update.target, update.weight)
            report = controller.step()
            assert report is not None
            assert report.action == action
            assert report.coalesced_edges == 3
            assert report.dirty_estimate >= 1
            oracle = create_engine("td-h2h", shadow.copy())
            for source, target, departure in queries:
                assert (
                    host.query("prod", source, target, departure)
                    == oracle.query(source, target, departure).cost
                )
            stats = controller.stats()
            assert stats.steps == 1
            assert stats.actions[action] == 1
            assert stats.last_action == action

    def test_emit_delay_is_baseline_relative_and_clears(self, host, small_grid):
        queries = _workload(small_grid, count=10, seed=92)
        baseline = create_engine("td-h2h", small_grid.copy())
        expected = [baseline.query(s, t, d).cost for s, t, d in queries]
        with TrafficController(
            host, "prod", policy=FixedPolicy(ACTION_PATCH)
        ) as controller:
            # Repeated emits do not compound: each is relative to baseline.
            controller.emit_delay(0, 1, 300.0)
            controller.step()
            controller.emit_delay(0, 1, 600.0)
            controller.step()
            controller.emit_delay(0, 1, 0.0)  # the incident clears
            controller.step()
            served = [host.query("prod", s, t, d) for s, t, d in queries]
            assert served == expected

    def test_rebuild_downgrades_to_clone_swap_without_a_spec(
        self, host, small_grid, tmp_path
    ):
        # A snapshot-restored deployment has no buildable rebuild spec.
        snapshot = host.snapshot("prod", tmp_path / "snap")
        host.swap("prod", f"snapshot:{snapshot}")
        shadow = small_grid.copy()
        with TrafficController(
            host, "prod", policy=FixedPolicy(ACTION_REBUILD)
        ) as controller:
            base = shadow.weight(0, 1)
            shadow.set_weight(0, 1, base.shift(240.0))
            controller.stream.emit(0, 1, base.shift(240.0), event_at=0.0)
            report = controller.step()
            assert report is not None
            assert report.action == ACTION_CLONE_SWAP
            assert "downgraded" in report.reason
            oracle = create_engine("td-h2h", shadow.copy())
            for source, target, departure in _workload(shadow, count=8, seed=93):
                assert (
                    host.query("prod", source, target, departure)
                    == oracle.query(source, target, departure).cost
                )

    def test_rebuild_after_clone_swap_keeps_build_options(self, small_grid):
        """clone_swap must not degrade the deployment's recorded spec.

        The clone is swapped in as a ready engine; without the spec carried
        through, a later rebuild would silently drop options such as
        ``?max_points=none`` and build a lossy engine whose answers drift
        from the fresh-rebuild oracle.
        """
        spec = "td-h2h?max_points=none"
        shadow = small_grid.copy()
        with EngineHost(max_batch_size=32) as host:
            host.deploy("prod", spec, small_grid.copy())
            base = shadow.weight(0, 1)
            with TrafficController(
                host, "prod", policy=FixedPolicy(ACTION_CLONE_SWAP)
            ) as controller:
                shadow.set_weight(0, 1, base.shift(120.0))
                controller.stream.emit(0, 1, base.shift(120.0), event_at=0.0)
                controller.step()
            assert host.deployment("prod").spec == spec
            # A fresh controller rebuilds with the full spec intact.
            with TrafficController(
                host, "prod", policy=FixedPolicy(ACTION_REBUILD)
            ) as controller:
                shadow.set_weight(0, 1, base.shift(240.0))
                controller.stream.emit(0, 1, base.shift(240.0), event_at=0.0)
                report = controller.step()
            assert report is not None and report.action == ACTION_REBUILD
            rebuilt = host.deployment("prod").engine
            assert rebuilt.index.max_points is None
            oracle = create_engine(spec, shadow.copy())
            for source, target, departure in _workload(shadow, count=8, seed=95):
                assert (
                    host.query("prod", source, target, departure)
                    == oracle.query(source, target, departure).cost
                )

    def test_patch_downgrades_when_engine_cannot_update(self, small_grid):
        with EngineHost(max_batch_size=32) as host:
            host.deploy("ref", "td-dijkstra", small_grid.copy())
            with TrafficController(
                host, "ref", policy=FixedPolicy(ACTION_PATCH)
            ) as controller:
                decision = controller._downgrade_locked(
                    PolicyDecision(ACTION_PATCH, "test")
                )
                assert decision.action == ACTION_CLONE_SWAP
                assert "downgraded" in decision.reason


class TestSupervisionAfterSteps:
    """A clone_swap step must not leave supervision a rehydration source."""

    POISONED = "faulty:td-appro?max_points=none&poison_from=1"

    @staticmethod
    def _supervised_host():
        return EngineHost(
            max_batch_size=32,
            cache_size=0,
            supervision=SupervisionConfig(
                interval_ms=60_000.0, max_restarts=0, failure_threshold=1
            ),
        )

    @staticmethod
    def _clone_swap_step(host, graph, delay):
        with TrafficController(
            host, "prod", policy=FixedPolicy(ACTION_CLONE_SWAP)
        ) as controller:
            controller.stream.emit(0, 1, graph.weight(0, 1).shift(delay))
            report = controller.step()
        assert report is not None and report.action == ACTION_CLONE_SWAP

    def _poison(self, host, graph):
        host.swap("prod", self.POISONED, graph.copy())
        for source in range(3):
            future = host.submit("prod", source, 24, 0.0)
            host.flush("prod")
            assert isinstance(future.exception(5.0), InjectedFaultError)

    def test_poisoned_deployment_parks_after_a_closed_controller(
        self, small_grid
    ):
        with self._supervised_host() as host:
            host.deploy("prod", "td-appro?max_points=none", small_grid.copy())
            self._clone_swap_step(host, small_grid, 300.0)
            self._poison(host, small_grid)

            report = host.check()["prod"]
            assert report.action == "park"
            assert host.health("prod").state is HealthState.UNHEALTHY
            with pytest.raises(WorkerCrashedError):
                host.submit("prod", 0, 24, 0.0)

    def test_step_leaves_the_rehydration_source_as_it_found_it(
        self, small_grid, tmp_path
    ):
        with self._supervised_host() as host:
            host.deploy("prod", "td-appro?max_points=none", small_grid.copy())
            snapshot = host.snapshot("prod", tmp_path / "known-good")
            self._clone_swap_step(host, small_grid, 300.0)
            self._clone_swap_step(host, small_grid, 600.0)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["known-good"]
            self._poison(host, small_grid)

            report = host.check()["prod"]
            assert report.action == "rehydrate"
            assert host.deployment("prod").spec == f"snapshot:{snapshot}"
            known_good = create_engine(f"snapshot:{snapshot}")
            assert host.query("prod", 0, 24, 0.0) == known_good.query(0, 24, 0.0).cost


class TestStaleness:
    def test_staleness_measured_from_event_time(self, host):
        clock = FakeClock(start=1000.0)
        with TrafficController(
            host, "prod", policy=FixedPolicy(ACTION_PATCH), clock=clock
        ) as controller:
            controller.emit_delay(0, 1, 120.0)  # stamped at t=1000
            clock.advance(10.0)
            report = controller.step()
            assert report is not None
            assert report.staleness_p50_s == pytest.approx(10.0)
            assert report.staleness_max_s == pytest.approx(10.0)
            stats = controller.stats()
            assert stats.staleness_p50_s == pytest.approx(10.0)
            assert stats.staleness_p99_s == pytest.approx(10.0)
            assert stats.staleness_max_s == pytest.approx(10.0)

    def test_staleness_metrics_published(self, small_grid):
        obs = Observability()
        with EngineHost(max_batch_size=32, obs=obs) as host:
            host.deploy("prod", "td-h2h", small_grid.copy())
            with TrafficController(
                host, "prod", policy=FixedPolicy(ACTION_PATCH)
            ) as controller:
                controller.emit_delay(0, 1, 60.0)
                controller.step()
            text = host.metrics_text()
            assert "repro_traffic_staleness_seconds" in text
            assert (
                'repro_traffic_actions_total{deployment="prod",action="patch"} 1'
                in text
            )
            assert "repro_traffic_updates_total" in text
            kinds = [event.kind for event in obs.events.events()]
            assert "traffic.ingest" in kinds
            assert "traffic.action" in kinds


class TestBackgroundLoop:
    def test_loop_applies_updates_without_manual_steps(self, host, small_grid):
        with TrafficController(
            host, "prod", policy=FixedPolicy(ACTION_PATCH)
        ) as controller:
            controller.start(interval_seconds=0.01)
            base = small_grid.weight(0, 1)
            controller.stream.emit(0, 1, base.shift(180.0))
            deadline = time.monotonic() + 10.0
            while controller.stats().steps == 0:
                assert time.monotonic() < deadline, "loop never applied the batch"
                time.sleep(0.01)
            controller.stop()
            live = host.deployment("prod").engine.graph
            assert live.weight(0, 1).allclose(base.shift(180.0))

    def test_start_is_idempotent_and_restartable(self, host):
        with TrafficController(host, "prod") as controller:
            controller.start(interval_seconds=0.05)
            first = controller._loop_thread
            controller.start(interval_seconds=0.05)  # no second thread
            assert controller._loop_thread is first
            controller.stop()
            controller.start(interval_seconds=0.05)  # restartable after stop
        with pytest.raises(TrafficControlError):
            controller.start()  # but never after close
