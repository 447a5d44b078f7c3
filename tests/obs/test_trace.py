"""Span/trace lifecycle, the tracer ring, and serving-layer completeness."""

from __future__ import annotations

import json

import pytest

from repro.api import create_engine
from repro.obs import (
    STATUS_ERROR,
    STATUS_OK,
    Observability,
    Tracer,
)
from repro.serving import InjectedFaultError, QueryService
from repro.utils.timing import FakeClock


class TestSpanLifecycle:
    def test_spans_measure_on_the_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, jsonl_path=None)
        trace = tracer.trace("query", service="prod")
        clock.advance(0.5)
        span = trace.span("engine")
        clock.advance(0.25)
        trace.end(span)
        assert span.status == STATUS_OK
        assert span.duration == pytest.approx(0.25)
        assert span.parent is trace.root
        trace.finish()
        assert trace.complete
        assert trace.duration == pytest.approx(0.75)

    def test_end_is_first_wins(self):
        tracer = Tracer(clock=FakeClock())
        trace = tracer.trace("query")
        span = trace.span("engine")
        trace.end(span, STATUS_ERROR, "boom")
        trace.end(span, STATUS_OK)  # no-op: the error status sticks
        assert span.status == STATUS_ERROR
        assert span.detail == "boom"

    def test_finish_closes_orphaned_spans_with_the_final_status(self):
        tracer = Tracer(clock=FakeClock())
        trace = tracer.trace("query")
        orphan = trace.span("pending")  # never explicitly ended
        trace.finish(STATUS_ERROR, "WorkerCrashedError")
        assert trace.complete
        assert orphan.status == STATUS_ERROR
        assert orphan.detail == "WorkerCrashedError"
        assert trace.status == STATUS_ERROR

    def test_finish_records_exactly_once(self):
        tracer = Tracer(clock=FakeClock())
        trace = tracer.trace("query")
        trace.finish()
        trace.finish(STATUS_ERROR)  # idempotent: first settle wins
        assert tracer.completed == 1
        assert trace.status == STATUS_OK

    def test_find_and_to_dict(self):
        tracer = Tracer(clock=FakeClock())
        trace = tracer.trace("query", source=1, target=2)
        trace.span("admission")
        trace.finish()
        assert trace.find("admission") is not None
        assert trace.find("missing") is None
        payload = trace.to_dict()
        assert payload["name"] == "query"
        assert payload["attrs"] == {"source": 1, "target": 2}
        assert [s["name"] for s in payload["spans"]] == ["query", "admission"]


class TestTracer:
    def test_ring_is_bounded_newest_last(self):
        tracer = Tracer(clock=FakeClock(), ring_size=3)
        for i in range(5):
            tracer.trace("query", i=i).finish()
        recent = tracer.recent()
        assert len(recent) == 3
        assert [t.attrs["i"] for t in recent] == [2, 3, 4]
        assert [t.attrs["i"] for t in tracer.recent(2)] == [3, 4]
        assert tracer.started == 5
        assert tracer.completed == 5

    def test_jsonl_sampling(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer(clock=FakeClock(), sample_every=2, jsonl_path=str(path))
        for i in range(5):
            tracer.trace("query", i=i).finish()
        tracer.close()
        sampled = [json.loads(line) for line in path.read_text().splitlines()]
        # Every 2nd completion: the 2nd and 4th traces.
        assert [t["attrs"]["i"] for t in sampled] == [1, 3]

    def test_sample_every_zero_disables_the_log(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer(clock=FakeClock(), sample_every=0, jsonl_path=str(path))
        tracer.trace("query").finish()
        tracer.close()
        assert not path.exists()


class TestServiceTraces:
    def test_every_answered_query_yields_a_complete_span_tree(self, approx_index):
        obs = Observability()
        service = QueryService(
            approx_index, max_batch_size=4, cache_size=16, name="traced", obs=obs
        )
        try:
            futures = [service.submit(v, 24 - v, 0.0) for v in range(4)]
            for future in futures:
                assert future.result(5.0) > 0.0
            # A cache hit gets a trace too (no pending/engine spans).
            assert service.submit(0, 24, 0.0).result(5.0) > 0.0
        finally:
            service.close()
        traces = service.recent_traces()
        assert len(traces) == 5
        for trace in traces:
            assert trace.complete
            assert trace.status == STATUS_OK
        batched = [t for t in traces if not t.attrs.get("cache_hit")]
        assert len(batched) == 4
        for trace in batched:
            assert [s.name for s in trace.spans] == [
                "query", "admission", "pending", "engine",
            ]
        (hit,) = [t for t in traces if t.attrs.get("cache_hit")]
        assert hit.find("engine") is None

    def test_worker_crash_settles_orphaned_spans_with_error_status(
        self, small_grid, held_engine
    ):
        """Satellite: crash paths still yield complete traces."""
        obs = Observability()
        engine = held_engine(
            create_engine(
                "faulty:td-appro?budget_fraction=0.4&max_points=16&crash_batch=1",
                small_grid,
            )
        )
        service = QueryService(
            engine, max_batch_size=4, cache_size=0, name="crashy", obs=obs
        )
        try:
            with engine.plugged(service.submit):
                # The four fill a batch: it flushes inline, and crashes.
                futures = [service.submit(v, 24 - v, 0.0) for v in range(4)]
                for future in futures:
                    assert isinstance(future.exception(5.0), InjectedFaultError)
                traces = service.recent_traces()
        finally:
            service.close()
        assert len(traces) == 4
        for trace in traces:
            assert trace.complete  # the engine span was open at crash time
            assert trace.status == STATUS_ERROR
            assert trace.root.detail == "InjectedFaultError"
            engine_span = trace.find("engine")
            assert engine_span is not None
            assert engine_span.status == STATUS_ERROR

    def test_disabled_observability_records_nothing(self, approx_index):
        obs = Observability.disabled()
        service = QueryService(approx_index, max_batch_size=2, cache_size=0, obs=obs)
        try:
            assert service.submit(0, 24, 0.0) and service.submit(1, 23, 0.0)
        finally:
            service.close()
        assert service.recent_traces() == []
        assert obs.tracer.started == 0
