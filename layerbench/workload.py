"""The interface between ``run.py`` and the workload modules."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Iterator

from common import DATASET, MIN_SAMPLES, NUM_POINTS, SETUP_REPEATS
from spans import Recorder


@dataclass
class Config:
    """One run's parameters; ``recorder`` is set only for a traced run."""

    seed: int
    seconds: float
    trace: bool
    dataset: str = DATASET
    num_points: int = NUM_POINTS
    setup_repeats: int = SETUP_REPEATS
    min_samples: int = MIN_SAMPLES
    recorder: Recorder | None = None

    def span(self, name: str, rows: int = 0) -> contextlib.AbstractContextManager:
        """A span of the benchmark's own code (no-op when untraced)."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name, rows)

    def set_traced(self, on: bool) -> None:
        """Switch hot-path span recording on or off (traced runs only)."""
        if self.recorder is not None:
            self.recorder.enabled = on

    def take_spans(self) -> list[tuple]:
        return self.recorder.take() if self.recorder is not None else []

    @contextlib.contextmanager
    def setup_phase(self) -> Iterator[None]:
        """Record every span during one set-up repetition."""
        self.set_traced(True)
        try:
            yield
        finally:
            self.set_traced(False)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    #: End-to-end metrics, name → (value, unit).
    metrics: dict[str, tuple[float, str]]
    #: Per-layer metrics of a traced run, name → (value, unit).
    layers: dict[str, tuple[float, str]] | None
    details: dict[str, Any] = field(default_factory=dict)
    #: Every span of a traced run (set-up repetitions first).
    spans: list[tuple] = field(default_factory=list)
