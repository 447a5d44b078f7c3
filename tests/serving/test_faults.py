"""Deterministic fault injection: the FaultyEngine wrapper and its spec form.

Faults are seeded and trigger on exact batch ordinals, so every chaos test
in this suite (and :mod:`tests.serving.test_chaos`) is reproducible.
"""

from __future__ import annotations

import time

import pytest

from repro.api import available_engines, create_engine
from repro.api.engine import Engine
from repro.exceptions import ReproError
from repro.serving import (
    FaultPlan,
    FaultyEngine,
    InjectedFaultError,
    QueryService,
    TransientInjectedFaultError,
)


@pytest.fixture()
def inner_engine(small_grid):
    return create_engine("td-appro?budget_fraction=0.4&max_points=16", small_grid)


class TestFaultPlan:
    def test_defaults_disable_everything(self):
        plan = FaultPlan()
        assert plan.fail_batch == 0
        assert plan.crash_batch == 0
        assert plan.poison_from == 0
        assert plan.latency_every == 0

    def test_negative_triggers_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_batch=-1)
        with pytest.raises(ValueError):
            FaultPlan(latency_ms=-0.5)


class TestErrorTaxonomy:
    def test_transient_fault_degrades_gracefully(self):
        # ReproError from a vectorized batch makes the service fall back to
        # per-query evaluation; a transient injected fault must ride that path.
        assert issubclass(TransientInjectedFaultError, ReproError)
        assert issubclass(TransientInjectedFaultError, InjectedFaultError)

    def test_hard_fault_is_a_crash(self):
        # A hard crash must NOT be a ReproError, or the service would degrade
        # instead of failing the whole batch like a real worker death.
        assert not issubclass(InjectedFaultError, ReproError)
        assert issubclass(InjectedFaultError, RuntimeError)

    def test_message_carries_batch_and_kind(self):
        error = InjectedFaultError(3, kind="crash")
        assert error.batch_number == 3
        assert "3" in str(error) and "crash" in str(error)


class TestFaultyEngine:
    def test_zero_plan_is_transparent(self, inner_engine):
        wrapper = FaultyEngine(inner_engine)
        direct = inner_engine.query(0, 24, 0.0)
        wrapped = wrapper.query(0, 24, 0.0)
        assert wrapped.cost == direct.cost
        matrix = wrapper.batch_query([0, 1], [24, 23], [0.0, 0.0])
        assert matrix.engine == wrapper.name
        assert wrapper.batch_calls == 1

    def test_satisfies_engine_protocol(self, inner_engine):
        assert isinstance(FaultyEngine(inner_engine), Engine)

    def test_results_are_retagged_with_wrapper_name(self, inner_engine):
        wrapper = FaultyEngine(inner_engine, name="faulty")
        assert wrapper.query(0, 24, 0.0).engine == "faulty"
        profile = wrapper.profile(0, 24)
        assert profile.engine == "faulty"

    def test_crash_batch_raises_hard_fault_once(self, inner_engine):
        wrapper = FaultyEngine(inner_engine, FaultPlan(crash_batch=2))
        wrapper.batch_query([0], [24], [0.0])  # batch 1: fine
        with pytest.raises(InjectedFaultError) as excinfo:
            wrapper.batch_query([0], [24], [0.0])  # batch 2: crash
        assert excinfo.value.batch_number == 2
        assert not isinstance(excinfo.value, ReproError)
        # One-shot: the next batch succeeds (a restarted worker recovers).
        assert wrapper.batch_query([0], [24], [0.0]).costs[0] > 0.0

    def test_fail_batch_raises_transient_fault(self, inner_engine):
        wrapper = FaultyEngine(inner_engine, FaultPlan(fail_batch=1))
        with pytest.raises(TransientInjectedFaultError):
            wrapper.batch_query([0], [24], [0.0])
        assert wrapper.batch_query([0], [24], [0.0]).costs[0] > 0.0

    def test_poison_from_is_persistent(self, inner_engine):
        wrapper = FaultyEngine(inner_engine, FaultPlan(poison_from=2))
        wrapper.batch_query([0], [24], [0.0])
        for _ in range(3):  # poisoned engines never come back
            with pytest.raises(InjectedFaultError):
                wrapper.batch_query([0], [24], [0.0])

    def test_scalar_queries_are_unaffected_by_batch_faults(self, inner_engine):
        # Recovery verification uses scalar query() on the same engine;
        # faults target the batch path only.
        wrapper = FaultyEngine(inner_engine, FaultPlan(poison_from=1))
        with pytest.raises(InjectedFaultError):
            wrapper.batch_query([0], [24], [0.0])
        assert wrapper.query(0, 24, 0.0).cost == inner_engine.query(0, 24, 0.0).cost

    def test_latency_spike_is_deterministic(self, inner_engine):
        plan = FaultPlan(latency_every=2, latency_ms=40.0, seed=9)
        timings = []
        for trial in range(2):
            wrapper = FaultyEngine(inner_engine, plan)
            per_batch = []
            for _ in range(2):
                started = time.perf_counter()
                wrapper.batch_query([0], [24], [0.0])
                per_batch.append(time.perf_counter() - started)
            timings.append(per_batch)
        for per_batch in timings:
            assert per_batch[0] < 0.02  # batch 1: no spike
            assert per_batch[1] >= 0.02  # batch 2: spiked
        # Seeded jitter: both trials sleep the same amount (within scheduling
        # noise).
        assert timings[0][1] == pytest.approx(timings[1][1], abs=0.02)

    def test_unknown_attributes_delegate_to_inner(self, inner_engine):
        wrapper = FaultyEngine(inner_engine)
        assert wrapper.capabilities() == inner_engine.capabilities()
        assert wrapper.graph is inner_engine.graph

    def test_only_serving_wiring_is_delegated(self, inner_engine):
        wrapper = FaultyEngine(inner_engine)
        assert wrapper.index is inner_engine.index
        # Nothing else resolves against the wrapped engine: a name only the
        # inner engine has, or a misspelling, is an AttributeError.
        assert hasattr(inner_engine, "statistics")
        with pytest.raises(AttributeError):
            wrapper.statistics
        with pytest.raises(AttributeError):
            wrapper.indx

    def test_hooks_are_a_no_op_over_an_engine_without_them(self, small_grid):
        inner = create_engine("td-dijkstra", small_grid)
        assert not hasattr(inner, "register_invalidation_hook")
        wrapper = FaultyEngine(inner)
        wrapper.register_invalidation_hook(lambda: None)
        wrapper.unregister_invalidation_hook(lambda: None)


class TestRegistrySpec:
    def test_faulty_is_listed(self):
        assert "faulty" in available_engines()

    def test_spec_builds_wrapper_over_inner_spec(self, small_grid):
        engine = create_engine(
            "faulty:td-appro?crash_batch=2&budget_fraction=0.4&max_points=16",
            small_grid,
        )
        assert engine.name == "faulty"
        assert engine.inner.name == "td-appro"
        assert engine.plan.crash_batch == 2
        engine.batch_query([0], [24], [0.0])
        with pytest.raises(InjectedFaultError):
            engine.batch_query([0], [24], [0.0])

    def test_spec_separates_fault_options_from_inner_options(self, small_grid):
        engine = create_engine(
            "faulty:td-appro?fail_batch=3&latency_ms=1.5&budget_fraction=0.4"
            "&max_points=16",
            small_grid,
        )
        assert engine.plan.fail_batch == 3
        assert engine.plan.latency_ms == 1.5
        # budget_fraction went to the inner engine, not the plan.
        assert engine.plan.seed == 0

    def test_wrapped_engine_serves_through_a_service(self, small_grid):
        engine = create_engine(
            "faulty:td-appro?fail_batch=1&budget_fraction=0.4&max_points=16",
            small_grid,
        )
        baseline = engine.inner.query(0, 24, 0.0).cost
        with QueryService(engine, max_batch_size=8) as svc:
            futures = [svc.submit(v, 24 - v, 0.0) for v in range(8)]
            svc.flush()
            # The transient fault degraded the batch to per-query evaluation:
            # every answer still arrives.
            costs = [f.result(5.0) for f in futures]
        assert costs[0] == baseline
        assert all(c > 0.0 for c in costs)
