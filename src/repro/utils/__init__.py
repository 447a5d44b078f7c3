"""Generic utilities: LCA queries, timing, and the memory model."""

from repro.utils.lca import LCAIndex
from repro.utils.memory import DEFAULT_MEMORY_MODEL, MemoryBreakdown, MemoryModel
from repro.utils.timing import (
    SYSTEM_CLOCK,
    Clock,
    FakeClock,
    MonotonicClock,
    Stopwatch,
    Timer,
    time_call,
)

__all__ = [
    "LCAIndex",
    "MemoryModel",
    "MemoryBreakdown",
    "DEFAULT_MEMORY_MODEL",
    "Clock",
    "MonotonicClock",
    "FakeClock",
    "SYSTEM_CLOCK",
    "Stopwatch",
    "Timer",
    "time_call",
]
