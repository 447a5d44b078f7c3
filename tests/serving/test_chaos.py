"""Chaos suite: injected faults against a supervised EngineHost.

Every scenario enforces the resilience layer's core guarantees:

* injected failures are *detected* (by probe signal, not by luck),
* every in-flight future *settles with a typed error* — nothing ever hangs,
* the deployment *recovers by itself* (restart → rehydrate → fallback), and
* post-recovery answers are *bit-identical* to the engine's scalar ``query``.

Detection thresholds come from a :class:`SupervisionConfig` with a huge
``interval_ms`` so the background thread never races the test — each
scenario drives ``host.check()`` by hand and stays deterministic.  The one
exception is :class:`TestBackgroundSupervisor`, which proves the timing
thread end-to-end.
"""

from __future__ import annotations

import threading
import time
from functools import partial

import pytest

from repro.api import create_engine
from repro.exceptions import HostError, WorkerCrashedError
from repro.serving import (
    EngineHost,
    HealthState,
    InjectedFaultError,
    QueryService,
    SupervisionConfig,
)
from repro.utils.timing import FakeClock

FAULT_FREE = "td-appro?budget_fraction=0.4&max_points=16"
CRASH_ONCE = f"faulty:{FAULT_FREE}&crash_batch=1"
POISONED = f"faulty:{FAULT_FREE}&poison_from=1"

#: Service knobs that keep every flush whole and nothing served from cache.
#: Scenarios that need queries to wait in the queue plug the flusher with a
#: ``held_engine`` (see tests/conftest.py); then nothing flushes until the
#: test says so.
MANUAL = {"max_batch_size": 64, "cache_size": 0}

#: check() is driven manually; the background loop effectively never fires.
MANUAL_CHECKS = 60_000.0


def _config(**overrides):
    defaults = {
        "interval_ms": MANUAL_CHECKS,
        "wedge_timeout_ms": 60_000.0,
        "failure_threshold": 1,
        "recovery_checks": 2,
        "max_restarts": 3,
    }
    defaults.update(overrides)
    return SupervisionConfig(**defaults)


def _answer(host, source=0, target=24, departure=0.0):
    """One deterministic round trip: submit, flush, settle."""
    future = host.submit("prod", source, target, departure)
    host.flush("prod")
    return future.result(5.0)


class TestCrashRecovery:
    def test_hard_crash_detected_futures_typed_and_restarted(
        self, small_grid, held_engine
    ):
        engine = create_engine(CRASH_ONCE, small_grid)
        held = held_engine(engine)
        with EngineHost(**MANUAL, supervision=_config()) as host:
            host.deploy("prod", held)
            with held.plugged(partial(host.submit, "prod")):
                futures = [host.submit("prod", v, 24 - v, 0.0) for v in range(4)]
                host.flush("prod")  # batch 1 crashes inside batch_query

                # Guarantee 1+2: everything settles, with the injected error.
                for future in futures:
                    assert future.done()
                    assert isinstance(future.exception(5.0), InjectedFaultError)

                # Guarantee 3: one check() pass detects and restarts (while
                # the plug is held, so its clean batch cannot reset the
                # failure streak first).
                report = host.check()["prod"]
                assert report.action == "restart"
                assert "whole-batch failures" in report.cause
                assert host.health("prod").state is HealthState.DEGRADED

                # Guarantee 4: recovered answers match the engine's scalar path.
                assert _answer(host) == engine.query(0, 24, 0.0).cost

            # Two clean checks promote DEGRADED back to HEALTHY.
            assert host.check() == {}
            assert host.health("prod").state is HealthState.DEGRADED
            assert host.check() == {}
            assert host.health("prod").state is HealthState.HEALTHY
            assert host.stats("prod").worker_restarts == 1

    def test_recovery_abort_fails_pending_futures_typed(
        self, small_grid, held_engine
    ):
        # The wedge signal: the flusher's batch is stuck in the engine, and
        # the queries behind it age past the timeout.  Aging rides the
        # injectable monotonic clock, so a FakeClock advance makes them
        # "old" instantly — no wall-clock sleep needed.
        clock = FakeClock()
        config = _config(wedge_timeout_ms=40.0)
        held = held_engine(create_engine(FAULT_FREE, small_grid))
        with EngineHost(**MANUAL, supervision=config, clock=clock) as host:
            host.deploy("prod", held)
            with held.plugged(partial(host.submit, "prod")):
                stranded = [host.submit("prod", v, 24 - v, 0.0) for v in range(3)]
                clock.advance(0.08)

                report = host.check()["prod"]
                assert report.action == "restart"
                assert "batch wedged" in report.cause
                assert report.failed_futures == 3
                for future in stranded:
                    assert isinstance(future.exception(5.0), WorkerCrashedError)
                # The restarted worker serves immediately.
                assert _answer(host) > 0.0

    def test_queries_aging_behind_a_stuck_flusher_are_detected(
        self, small_grid, held_engine
    ):
        # The flusher is stuck outside the engine (in a settle callback), so
        # no batch is wedged; only the age of the queue shows the stall.
        clock = FakeClock()
        config = _config(wedge_timeout_ms=40.0)
        held = held_engine(create_engine(FAULT_FREE, small_grid))
        stuck = threading.Event()
        unstick = threading.Event()
        with EngineHost(**MANUAL, supervision=config, clock=clock) as host:
            host.deploy("prod", held)
            with held.plugged(partial(host.submit, "prod")) as plug:
                plug.add_done_callback(lambda _: (stuck.set(), unstick.wait(10.0)))
                held.release()
                assert stuck.wait(5.0)
                stranded = [host.submit("prod", v, 24 - v, 0.0) for v in range(3)]
                clock.advance(0.08)

                report = host.check()["prod"]
                assert report.action == "restart"
                assert "pending query aged" in report.cause
                assert report.failed_futures == 3
                for future in stranded:
                    assert isinstance(future.exception(5.0), WorkerCrashedError)
                unstick.set()
            assert _answer(host) > 0.0

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_flusher_detected_and_restarted(self, small_grid):
        with EngineHost(**MANUAL, supervision=_config()) as host:
            host.deploy("prod", FAULT_FREE, small_grid)
            service = host._service("prod")

            def suicide() -> bool:
                raise SystemExit  # terminates the flusher thread quietly

            service._flusher_step = suicide
            deadline = time.perf_counter() + 5.0
            while service._flusher.is_alive() and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert not service._flusher.is_alive()

            report = host.check()["prod"]
            assert report.action == "restart"
            assert "flusher" in report.cause
            assert _answer(host) > 0.0

    def test_wedged_batch_detected_and_nothing_hangs(self, small_grid):
        spec = f"faulty:{FAULT_FREE}&latency_every=1&latency_ms=400"
        config = _config(wedge_timeout_ms=50.0)
        with EngineHost(**MANUAL, supervision=config) as host:
            host.deploy("prod", spec, small_grid)
            future = host.submit("prod", 0, 24, 0.0)
            time.sleep(0.15)  # the flusher's batch is asleep inside the engine

            report = host.check()["prod"]
            assert report.action == "restart"
            assert "wedged" in report.cause
            # The wedged batch still settles its future once it wakes up —
            # no future is ever stranded by the restart.
            assert future.result(5.0) > 0.0


class TestEscalation:
    def test_rehydrate_from_snapshot_when_engine_is_poisoned(
        self, small_grid, tmp_path
    ):
        engine = create_engine(POISONED, small_grid)
        config = _config(max_restarts=0)
        with EngineHost(**MANUAL, supervision=config) as host:
            host.deploy("prod", engine)
            host.snapshot("prod", tmp_path / "prod-snap")

            doomed = host.submit("prod", 0, 24, 0.0)
            host.flush("prod")
            assert isinstance(doomed.exception(5.0), InjectedFaultError)

            report = host.check()["prod"]
            assert report.action == "rehydrate"
            info = host.deployment("prod")
            assert info.spec.startswith("snapshot:")
            # The snapshot held the *inner* index: answers are bit-identical
            # to the unwrapped engine's scalar query.
            assert _answer(host) == engine.inner.query(0, 24, 0.0).cost

            host.check(), host.check()
            assert host.health("prod").state is HealthState.HEALTHY
            assert host.stats("prod").worker_restarts == 1

    def test_fallback_serves_when_restarts_exhausted(self, small_grid):
        config = _config(max_restarts=1)
        with EngineHost(**MANUAL, supervision=config) as host:
            host.deploy("prod", POISONED, small_grid, fallback="td-dijkstra")

            for expected_action in ("restart", "fallback"):
                doomed = host.submit("prod", 0, 24, 0.0)
                assert isinstance(doomed.exception(5.0), InjectedFaultError)
                assert host.check()["prod"].action == expected_action

            health = host.health("prod")
            assert health.state is HealthState.UNHEALTHY
            assert health.cause is not None

            # Traffic now routes to the fallback, bit-identical to querying
            # the fallback engine directly, and counted as degraded.
            exact = create_engine("td-dijkstra", small_grid)
            assert _answer(host) == exact.query(0, 24, 0.0).cost
            stats = host.stats("prod")
            assert stats.degraded_answers == 1
            assert stats.worker_restarts == 1

            # swap() installs a good engine and resets the health machine.
            host.swap("prod", FAULT_FREE, small_grid)
            assert host.health("prod").state is HealthState.HEALTHY
            assert _answer(host) > 0.0

    def test_park_fails_fast_when_no_recovery_path_remains(
        self, small_grid, held_engine
    ):
        config = _config(max_restarts=0)
        held = held_engine(create_engine(POISONED, small_grid))
        with EngineHost(**MANUAL, supervision=config) as host:
            host.deploy("prod", held)
            doomed = host.submit("prod", 0, 24, 0.0)
            assert isinstance(doomed.exception(5.0), InjectedFaultError)
            with held.plugged(partial(host.submit, "prod")):
                stranded = [host.submit("prod", v, 23 - v, 0.0) for v in range(2)]

                report = host.check()["prod"]
                assert report.action == "park"
                assert report.failed_futures == 2
                for future in stranded:
                    assert isinstance(future.exception(5.0), WorkerCrashedError)

            # Parked: submits fail fast with the recorded cause, and further
            # checks leave the deployment alone until a swap.
            with pytest.raises(WorkerCrashedError) as excinfo:
                host.submit("prod", 0, 24, 0.0)
            assert excinfo.value.deployment == "prod"
            assert host.check() == {}
            assert host.health("prod").state is HealthState.UNHEALTHY


class TestBackgroundSupervisor:
    def test_self_recovery_without_manual_checks(self, small_grid):
        config = _config(interval_ms=25.0, recovery_checks=1)
        with EngineHost(**MANUAL, supervision=config) as host:
            host.deploy("prod", CRASH_ONCE, small_grid)
            doomed = host.submit("prod", 0, 24, 0.0)
            assert isinstance(doomed.exception(5.0), InjectedFaultError)

            # No manual check(): the supervisor thread must notice the
            # crashed batch and restart the worker within its interval.
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                if host.stats("prod").worker_restarts >= 1:
                    break
                time.sleep(0.01)
            assert host.stats("prod").worker_restarts == 1

            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                if host.health("prod").state is HealthState.HEALTHY:
                    break
                time.sleep(0.01)
            assert host.health("prod").state is HealthState.HEALTHY
            assert _answer(host) > 0.0


class TestConcurrentClose:
    """Satellite: close() is idempotent and safe under concurrent callers."""

    def test_racing_service_closes_drain_exactly_once(
        self, approx_index, held_engine
    ):
        held = held_engine(approx_index)
        for _ in range(5):
            svc = QueryService(held, **MANUAL)
            barrier = threading.Barrier(8)
            errors: list[BaseException] = []
            drained: list[int] = []

            def racer(service: QueryService = svc) -> None:
                try:
                    barrier.wait()
                    drained.append(service.close())
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=racer) for _ in range(8)]
            with held.plugged(svc.submit):
                # Queued behind the plug, so only a close() drain answers them.
                futures = [svc.submit(v, 24 - v, 0.0) for v in range(4)]
                for t in threads:
                    t.start()
                while not svc.probe().closed:
                    time.sleep(0.001)
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert sorted(drained) == [0] * 7 + [4]
            # The single drain settled everything with real answers.
            for future in futures:
                assert future.done()
                assert future.result() > 0.0
            svc.close()  # still idempotent afterwards

    def test_racing_host_closes_are_idempotent(self, small_grid):
        host = EngineHost(**MANUAL, supervision=_config())
        host.deploy("a", FAULT_FREE, small_grid)
        host.deploy("b", "td-dijkstra", small_grid)
        pending = [host.submit("a", v, 24 - v, 0.0) for v in range(3)]
        barrier = threading.Barrier(6)
        errors: list[BaseException] = []

        def racer() -> None:
            try:
                barrier.wait()
                host.close()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=racer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert host.closed
        assert host.deployments() == ()
        for future in pending:
            assert future.done()  # drained on close: zero stranded futures
        with pytest.raises(HostError):
            host.deploy("c", "td-dijkstra", small_grid)
        host.close()  # idempotent
