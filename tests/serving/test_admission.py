"""Admission control, deadlines, and the shared retry helper.

The admission queue bounds how much work a :class:`QueryService` will hold
(``block`` = backpressure, ``shed`` = typed rejection), deadlines bound how
long any caller can be kept waiting, and :func:`retry_submit` is the one
deterministic backoff loop every serving-layer caller shares.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import (
    AdmissionRejectedError,
    DeadlineExceededError,
    ServiceClosedError,
)
from repro.serving import (
    ADMISSION_POLICIES,
    ADMIT_BLOCK,
    ADMIT_SHED,
    QueryService,
    backoff_delays,
    retry_submit,
)


# ----------------------------------------------------------------------
# Backoff schedule / retry helper (no service needed)
# ----------------------------------------------------------------------
class TestBackoffDelays:
    def test_deterministic_across_calls(self):
        assert backoff_delays(8, seed=7) == backoff_delays(8, seed=7)

    def test_seed_changes_jitter_not_shape(self):
        a = backoff_delays(6, seed=1)
        b = backoff_delays(6, seed=2)
        assert a != b
        assert len(a) == len(b) == 5

    def test_delays_double_up_to_the_cap(self):
        delays = backoff_delays(8, base_delay_ms=1.0, max_delay_ms=4.0, seed=0)
        # Jitter scales each delay into [0.5x, 1.0x) of the nominal value.
        nominal_ms = [1.0, 2.0, 4.0, 4.0, 4.0, 4.0, 4.0]
        for got, nominal in zip(delays, nominal_ms):
            assert nominal * 0.5 / 1000.0 <= got < nominal / 1000.0

    def test_single_attempt_sleeps_never(self):
        assert backoff_delays(1) == ()
        assert backoff_delays(0) == ()


class TestRetrySubmit:
    def test_first_success_returns_immediately(self):
        calls = []
        assert retry_submit(lambda: calls.append(1) or 42) == 42
        assert calls == [1]

    def test_retries_only_listed_errors(self):
        with pytest.raises(ValueError):
            retry_submit(lambda: (_ for _ in ()).throw(ValueError("boom")))

    def test_exhaustion_reraises_the_last_error(self):
        attempts = []

        def always_closed():
            attempts.append(len(attempts))
            raise ServiceClosedError("submit")

        with pytest.raises(ServiceClosedError):
            retry_submit(always_closed, attempts=3, base_delay_ms=0.0)
        assert len(attempts) == 3

    def test_succeeds_after_transient_failures(self):
        state = {"failures": 2}

        def flaky():
            if state["failures"] > 0:
                state["failures"] -= 1
                raise ServiceClosedError("submit")
            return "ok"

        notified = []
        result = retry_submit(
            flaky,
            base_delay_ms=0.0,
            on_retry=lambda attempt, exc: notified.append((attempt, type(exc))),
        )
        assert result == "ok"
        assert notified == [(0, ServiceClosedError), (1, ServiceClosedError)]

    def test_custom_retry_on_covers_shedding(self):
        state = {"shed": 1}

        def shed_once():
            if state["shed"]:
                state["shed"] = 0
                raise AdmissionRejectedError(8)
            return 1.5

        assert (
            retry_submit(
                shed_once,
                retry_on=(ServiceClosedError, AdmissionRejectedError),
                base_delay_ms=0.0,
            )
            == 1.5
        )

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            retry_submit(lambda: 1, attempts=0)


# ----------------------------------------------------------------------
# Admission policies on a live service
# ----------------------------------------------------------------------
class TestAdmission:
    def test_policy_names_are_the_public_constants(self):
        assert ADMISSION_POLICIES == (ADMIT_BLOCK, ADMIT_SHED)

    def test_unknown_policy_rejected_at_construction(self, approx_index):
        with pytest.raises(ValueError):
            QueryService(approx_index, admission_policy="drop-everything")

    def test_invalid_bounds_rejected(self, approx_index):
        with pytest.raises(ValueError):
            QueryService(approx_index, max_pending=0)
        with pytest.raises(ValueError):
            QueryService(approx_index, admission_timeout_ms=-1.0)
        with pytest.raises(ValueError):
            QueryService(approx_index, default_deadline_ms=0.0)

    def test_shed_policy_raises_typed_error_at_capacity(
        self, approx_index, held_engine
    ):
        held = held_engine(approx_index)
        with QueryService(
            held,
            max_batch_size=64,
            cache_size=0,
            max_pending=3,
            admission_policy="shed",
        ) as svc, held.plugged(svc.submit):
            # The plug takes the first of the three slots.
            first = svc.submit(0, 24, 0.0)
            svc.submit(1, 23, 0.0)
            with pytest.raises(AdmissionRejectedError) as excinfo:
                svc.submit(2, 22, 0.0)
            assert excinfo.value.max_pending == 3
            assert excinfo.value.policy == "shed"
            svc.flush()
            # Capacity freed by the flush: admission succeeds again.
            readmitted = svc.submit(2, 22, 0.0)
            svc.flush()
            assert first.result(5.0) > 0.0
            assert readmitted.result(5.0) > 0.0
            stats = svc.stats()
            assert stats.shed == 1
            assert stats.queries_answered == 3

    def test_block_policy_waits_for_capacity(self, approx_index, held_engine):
        held = held_engine(approx_index)
        with QueryService(
            held,
            max_batch_size=64,
            cache_size=0,
            max_pending=2,
            admission_policy="block",
        ) as svc, held.plugged(svc.submit):
            svc.submit(0, 24, 0.0)  # with the plug, capacity is full
            admitted = threading.Event()

            def blocked_submitter():
                svc.submit(1, 23, 0.0)
                admitted.set()

            thread = threading.Thread(target=blocked_submitter, daemon=True)
            thread.start()
            # The submitter must actually block (capacity is full)...
            assert not admitted.wait(0.05)
            svc.flush()  # ...and proceed once the flush frees the slot.
            assert admitted.wait(5.0)
            thread.join(timeout=5.0)
            svc.flush()
            assert svc.stats().shed == 0

    def test_block_policy_sheds_past_the_admission_timeout(
        self, approx_index, held_engine
    ):
        held = held_engine(approx_index)
        with QueryService(
            held,
            max_batch_size=64,
            cache_size=0,
            max_pending=1,
            admission_policy="block",
            admission_timeout_ms=30.0,
        ) as svc, held.plugged(svc.submit):  # the plug holds the only slot
            started = time.perf_counter()
            with pytest.raises(AdmissionRejectedError) as excinfo:
                svc.submit(1, 23, 0.0)
            waited = time.perf_counter() - started
            assert excinfo.value.policy == "block"
            assert waited >= 0.025
            assert svc.stats().shed == 1

    def test_cache_hits_bypass_admission(self, approx_index, held_engine):
        held = held_engine(approx_index)
        with QueryService(
            held,
            max_batch_size=64,
            max_pending=1,
            admission_policy="shed",
        ) as svc:
            warm = svc.submit(0, 24, 0.0)
            warm.result(5.0)
            with held.plugged(svc.submit):  # the plug occupies the only slot
                # A cached answer consumes no worker capacity: never shed.
                hit = svc.submit(0, 24, 0.0)
                assert hit.done()
                assert hit.result() == warm.result()

    def test_close_wakes_blocked_admission_waiters(self, approx_index, held_engine):
        held = held_engine(approx_index)
        svc = QueryService(
            held,
            max_batch_size=64,
            cache_size=0,
            max_pending=1,
            admission_policy="block",
        )
        outcome: list[BaseException] = []

        def blocked_submitter():
            try:
                svc.submit(1, 23, 0.0)
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                outcome.append(exc)

        thread = threading.Thread(target=blocked_submitter, daemon=True)
        # close() wakes the waiter before it waits for the pinned flusher.
        closer = threading.Thread(target=svc.close, daemon=True)
        with held.plugged(svc.submit):  # the plug holds the only slot
            thread.start()
            time.sleep(0.05)
            closer.start()
            thread.join(timeout=5.0)
        closer.join(timeout=5.0)
        assert not thread.is_alive()
        assert not closer.is_alive()
        assert len(outcome) == 1
        assert isinstance(outcome[0], ServiceClosedError)


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_deadline_must_be_positive(self, approx_index):
        with QueryService(approx_index) as svc:
            with pytest.raises(ValueError):
                svc.submit(0, 24, 0.0, deadline_ms=0.0)

    def test_answer_beats_a_generous_deadline(self, approx_index):
        with QueryService(approx_index, max_batch_size=4) as svc:
            future = svc.submit(0, 24, 0.0, deadline_ms=30_000.0)
            svc.flush()
            assert future.result(5.0) == approx_index.query(0, 24, 0.0).cost
            assert svc.stats().deadline_expired == 0

    def test_consumer_unblocks_at_deadline_even_with_wedged_worker(
        self, approx_index
    ):
        with QueryService(approx_index, max_batch_size=64, cache_size=0) as svc:
            # Wedge the worker: the flush path sleeps far past the deadline.
            original = svc._batch_compute

            def wedged(sources, targets, departures):
                time.sleep(0.5)
                return original(sources, targets, departures)

            svc._batch_compute = wedged
            future = svc.submit(0, 24, 0.0, deadline_ms=40.0)
            started = time.perf_counter()
            with pytest.raises(DeadlineExceededError) as excinfo:
                future.result()
            elapsed = time.perf_counter() - started
            assert elapsed < 0.4  # unblocked by the deadline, not the worker
            assert excinfo.value.deadline_ms == 40.0

    def test_flusher_expires_overdue_queries_without_a_consumer(
        self, approx_index, held_engine
    ):
        held = held_engine(approx_index)
        with QueryService(
            held,
            max_batch_size=64,
            cache_size=0,
            max_pending=2,
            admission_policy="shed",
            default_deadline_ms=20.0,
        ) as svc:
            with held.plugged(svc.submit):
                abandoned = svc.submit(0, 24, 0.0)  # nobody calls result()
                time.sleep(0.03)  # overdue while queued behind the plug
            # The freed flusher expires it instead of running it.
            deadline = time.perf_counter() + 5.0
            while not abandoned.done() and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert isinstance(abandoned.exception(1.0), DeadlineExceededError)
            # The expiry freed the admission slot: the next submit is not shed.
            svc.submit(1, 23, 0.0)
            stats = svc.stats()
            assert stats.deadline_expired == 1
            assert stats.shed == 0

    def test_default_deadline_applies_when_submit_passes_none(
        self, approx_index, held_engine
    ):
        held = held_engine(approx_index)
        with QueryService(
            held,
            max_batch_size=64,
            cache_size=0,
            default_deadline_ms=25.0,
        ) as svc, held.plugged(svc.submit):
            future = svc.submit(0, 24, 0.0)
            with pytest.raises(DeadlineExceededError) as excinfo:
                future.result()
            assert excinfo.value.deadline_ms == 25.0

    def test_late_batch_cannot_overwrite_an_expired_future(
        self, approx_index, held_engine
    ):
        held = held_engine(approx_index)
        with QueryService(
            held, max_batch_size=64, cache_size=0
        ) as svc, held.plugged(svc.submit):
            future = svc.submit(0, 24, 0.0, deadline_ms=10.0)
            with pytest.raises(DeadlineExceededError):
                future.result()
            svc.flush()  # the batch settles late; first settlement wins
            with pytest.raises(DeadlineExceededError):
                future.result(1.0)
