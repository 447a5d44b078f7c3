"""Readers racing ``EngineHost.apply_updates`` see one generation or the other.

``apply_updates`` clones the live index, repairs the clone and swaps it in;
the engine serving readers is never mutated.  So while an update runs,
every settled answer must equal, exactly, the scalar answer of either the
pre-update engine or the repaired one — never a mix of old and new bag
functions.  After the flip the retired engine must still answer as it did
before: the clone shares no mutable state with it.

The interpreter's switch interval is shortened while the update runs, so
reader threads get scheduled between the repair's steps.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph import grid_network
from repro.serving import EngineHost

SPECS = ("td-appro?max_points=none", "td-h2h")
READERS = 3
QUERIES = 24


def _queries(graph, seed):
    rng = np.random.default_rng(seed)
    vertices = sorted(graph.vertices())
    return [
        (
            int(rng.choice(vertices)),
            int(rng.choice(vertices)),
            float(rng.uniform(0.0, 86_400.0)),
        )
        for _ in range(QUERIES)
    ]


def _scalar(engine, queries):
    return [engine.query(s, t, d).cost for s, t, d in queries]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec=st.sampled_from(SPECS),
    grid_seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_readers_see_the_old_or_the_repaired_engine(spec, grid_seed, data):
    graph = grid_network(5, 5, num_points=3, seed=grid_seed)
    edges = sorted(graph.edges(), key=lambda e: (e[0], e[1]))
    picks = data.draw(
        st.lists(st.integers(0, len(edges) - 1), min_size=1, max_size=4, unique=True),
        label="edges",
    )
    delays = data.draw(
        st.lists(
            st.floats(60.0, 1_800.0), min_size=len(picks), max_size=len(picks)
        ),
        label="delays",
    )
    changes = {
        (edges[i][0], edges[i][1]): edges[i][2].shift(delay)
        for i, delay in zip(picks, delays)
    }
    queries = _queries(graph, grid_seed)

    with EngineHost(max_batch_size=8, cache_size=0) as host:
        host.deploy("prod", spec, graph.copy())
        old = host.deployment("prod").engine
        before = _scalar(old, queries)

        answers: list[tuple[int, float]] = []
        errors: list[BaseException] = []
        stop = threading.Event()
        started = threading.Barrier(READERS + 1)

        def reader(offset: int) -> None:
            started.wait()
            i = offset
            try:
                while not stop.is_set():
                    k = i % QUERIES
                    i += 1
                    answers.append((k, host.query("prod", *queries[k])))
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(r * 7,), daemon=True)
            for r in range(READERS)
        ]
        for thread in threads:
            thread.start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            started.wait()
            host.apply_updates("prod", changes)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)

        assert not errors, errors[0]
        new = host.deployment("prod").engine
        assert new is not old
        after = _scalar(new, queries)
        for k, cost in answers:
            assert cost == before[k] or cost == after[k], (k, cost)
        assert _scalar(old, queries) == before
