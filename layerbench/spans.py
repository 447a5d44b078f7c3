"""In-memory span recording around the public entry points of each layer.

A traced run wraps functions *where their callers look them up*: a module
global such as ``repro.core.index.batch_cost_query`` is replaced in the
module that imported it, and a method such as ``EngineHost.submit`` is
replaced on its class.  Nothing under ``src/`` is edited, and
:meth:`Recorder.uninstall` restores every original.

Each span is one tuple ``(id, name, start, end, parent, request, rows)``:
``parent`` is the id of the enclosing span (``0`` for none), ``request`` the
request id bound with :func:`request_scope` (``""`` for none) and ``rows``
the work the call carried (queries in a batch, functions in a kernel call).
Parents and request ids travel in context variables, so they follow both
threads and asyncio tasks.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "ENTRY_POINTS",
    "REQUEST_HEADER",
    "Recorder",
    "request_scope",
    "self_times",
    "write_spans",
]

#: HTTP header carrying the client's request id into the server child.
REQUEST_HEADER = "x-bench-request"

_parent: contextvars.ContextVar[int] = contextvars.ContextVar("bench_parent", default=0)
_request: contextvars.ContextVar[str] = contextvars.ContextVar("bench_request", default="")


def _rows_arg1(args: tuple) -> int:
    """``len`` of the second positional argument (the sources array)."""
    return int(len(args[1]))


def _rows_kernel(args: tuple) -> int:
    """Functions in a kernel call's leading :class:`PLFBatch`."""
    return int(getattr(args[0], "count", 0))


def _request_of_scope(args: tuple) -> str:
    """The benchmark request id of an ASGI ``(self, scope, ...)`` call."""
    key = REQUEST_HEADER.encode("latin-1")
    for name, value in args[1].get("headers", ()):
        if name == key:
            return value.decode("latin-1")
    return ""


#: ``(module, attribute, span name, rows)`` for every wrapped entry point,
#: grouped by layer.  ``module`` is where the caller resolves the name.
#: Spans named in :data:`ALWAYS` are recorded whenever the wrappers are
#: installed; the rest only while :attr:`Recorder.enabled` is set.
ENTRY_POINTS: tuple[tuple[str, str, str, Callable[[tuple], int] | None], ...] = (
    # repro.gateway
    ("repro.gateway.app", "GatewayApp.__call__", "gateway.app", None),
    # repro.serving: host and service
    ("repro.serving.host", "EngineHost.aquery", "serving.aquery", None),
    ("repro.serving.host", "EngineHost.submit", "serving.submit", None),
    ("repro.serving.host", "EngineHost.deploy", "serving.deploy", None),
    ("repro.serving.host", "EngineHost.swap", "serving.swap", None),
    ("repro.serving.host", "EngineHost.apply_updates", "serving.apply_updates", None),
    ("repro.serving.host", "EngineHost.snapshot", "serving.snapshot", None),
    # repro.api: the host resolves create_engine from the package per call
    ("repro.api", "create_engine", "api.create_engine", None),
    ("repro.api.adapters", "EngineAdapter.batch_query", "engine.batch_query", _rows_arg1),
    # repro.core: the index resolves these in its own namespace
    ("repro.core.index", "batch_cost_query", "core.batch_cost_query", _rows_arg1),
    ("repro.core.index", "decompose", "core.decompose", None),
    ("repro.core.index", "build_shortcut_catalog", "core.shortcuts", None),
    ("repro.core.index", "select_greedy", "core.selection", None),
    ("repro.core.update", "apply_edge_updates", "core.update", None),
    # repro.functions: batch kernels, at each core module that calls them
    ("repro.core.query", "evaluate_many", "functions.evaluate_many", _rows_kernel),
    ("repro.core.query", "evaluate_grid", "functions.evaluate_grid", _rows_kernel),
    ("repro.core.elimination", "compound_many", "functions.compound_many", _rows_kernel),
    ("repro.core.elimination", "simplify_many", "functions.simplify_many", _rows_kernel),
    ("repro.core.shortcuts", "compound_many", "functions.compound_many", _rows_kernel),
    ("repro.core.shortcuts", "minimum_many", "functions.minimum_many", _rows_kernel),
    ("repro.core.shortcuts", "simplify_many", "functions.simplify_many", _rows_kernel),
    # repro.traffic
    ("repro.traffic.controller", "TrafficController.step", "traffic.step", None),
    # repro.persistence: host.snapshot and the snapshot engine import these
    # from the package per call
    ("repro.persistence", "save_index", "persistence.save", None),
    ("repro.persistence", "load_index", "persistence.load", None),
)


#: Rare, slow calls (set-up and the update path): recorded for the whole
#: traced run, so a run's few maintenance steps are never split by the
#: traced/untraced segments that price the hot path.
ALWAYS = frozenset(
    {
        "serving.deploy",
        "serving.swap",
        "serving.apply_updates",
        "serving.snapshot",
        "api.create_engine",
        "core.decompose",
        "core.shortcuts",
        "core.selection",
        "core.update",
        "traffic.step",
        "persistence.save",
        "persistence.load",
    }
)


@contextlib.contextmanager
def request_scope(request_id: str) -> Iterator[None]:
    """Bind ``request_id`` to every span opened inside the block."""
    token = _request.set(request_id)
    try:
        yield
    finally:
        _request.reset(token)


class Recorder:
    """Collects spans while :attr:`enabled`; a cheap pass-through otherwise."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._originals: list[tuple[Any, str, Any]] = []

    def take(self) -> list[tuple]:
        """Return every span recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    # ------------------------------------------------------------------
    # Spans of the benchmark's own code
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, rows: int = 0) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        sid = next(self._ids)
        parent = _parent.get()
        token = _parent.set(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            _parent.reset(token)
            self.spans.append((sid, name, start, end, parent, _request.get(), rows))

    # ------------------------------------------------------------------
    # Wrapping the program's entry points
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every :data:`ENTRY_POINTS` entry (idempotent per recorder)."""
        if self._originals:
            return
        for module_name, attribute, name, rows in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            if name == "serving.submit":
                wrapper = self._wrap_submit(original)
            elif inspect.iscoroutinefunction(original):
                binds = _request_of_scope if name == "gateway.app" else None
                wrapper = self._wrap_async(original, name, binds)
            else:
                wrapper = self._wrap_sync(original, name, rows, name in ALWAYS)
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        while self._originals:
            owner, leaf, original = self._originals.pop()
            setattr(owner, leaf, original)

    def _wrap_sync(
        self,
        fn: Callable,
        name: str,
        rows: Callable[[tuple], int] | None,
        always: bool,
    ) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not (self.enabled or always):
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = _parent.get()
            token = _parent.set(sid)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                _parent.reset(token)
                count = rows(args) if rows is not None else 0
                self.spans.append((sid, name, start, end, parent, _request.get(), count))

        return wrapper

    def _wrap_async(
        self, fn: Callable, name: str, binds: Callable[[tuple], str] | None
    ) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return await fn(*args, **kwargs)
            request_token = _request.set(binds(args)) if binds is not None else None
            sid = next(self._ids)
            parent = _parent.get()
            token = _parent.set(sid)
            start = self.clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = self.clock()
                _parent.reset(token)
                self.spans.append((sid, name, start, end, parent, _request.get(), 0))
                if request_token is not None:
                    _request.reset(request_token)

        return wrapper

    def _wrap_submit(self, fn: Callable) -> Callable:
        """``EngineHost.submit`` plus a ``serving.pending`` span to settle.

        The pending span runs from submit to the future's settlement on
        whichever thread settles it, as a sibling of the submit span.  A
        future already settled when submit returns (a result-cache hit)
        gets no pending span.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = _parent.get()
            request = _request.get()
            token = _parent.set(sid)
            start = self.clock()
            try:
                future = fn(*args, **kwargs)
            finally:
                end = self.clock()
                _parent.reset(token)
                self.spans.append((sid, "serving.submit", start, end, parent, request, 0))
            if not future.done():
                pending_id = next(self._ids)

                def _settled(_future: Any) -> None:
                    self.spans.append(
                        (pending_id, "serving.pending", start, self.clock(),
                         parent, request, 0)
                    )

                future.add_done_callback(_settled)
            return future

        return wrapper


def self_times(spans: Iterable[tuple]) -> dict[int, float]:
    """Span id → duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _name, start, end, parent, _request_id, _rows in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    result: dict[int, float] = {}
    for sid, _name, start, end, _parent_id, _request_id, _rows in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(sid, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sid] = (end - start) - covered
    return result


def write_spans(path: Path, spans: Iterable[tuple]) -> None:
    """Write spans as JSON lines (one object per span)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("id", "name", "start", "end", "parent", "request", "rows")
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")
