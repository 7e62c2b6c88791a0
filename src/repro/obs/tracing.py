"""Lightweight tracing: spans, cross-process context, JSON-lines dumps.

A :class:`Span` is a named interval with ids (``trace_id`` shared by a
whole trace, ``span_id`` unique, ``parent_id`` linking upward), a wall
clock start, a duration, free-form ``attrs`` and optional ``events``.
The process-wide :data:`TRACER` is **off by default**: with no active
collection, :meth:`Tracer.span` costs one attribute read and yields
``None`` — the property the scheduler-overhead guard in
``benchmarks/test_bench_perf.py`` asserts.  Activate it with::

    with TRACER.collect() as spans:
        result = run_plan(plan, workers=fleet)
    write_trace("trace.jsonl", spans)

Inside a collection, ``run_plan`` opens a ``plan`` span, each dispatch
unit a ``batch`` span, and every ``EvalCell`` a ``cell`` span — across
all three executors.  The parent link crosses process boundaries as a
:class:`SpanContext` (a two-field picklable dataclass): the process
pool ships it with the batch arguments, the fleet coordinator inside
``Batch`` frames; workers build their spans with :func:`span_into`
(which needs no active collection) and ship the finished spans back in
the batch return value / ``Results`` frame, where
:meth:`Tracer.record` folds them into the live collection.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "TRACER",
    "Span",
    "SpanContext",
    "Tracer",
    "load_trace",
    "span_into",
    "write_trace",
]


def _new_id(bits: int = 64) -> str:
    return uuid.uuid4().hex[: bits // 4]


@dataclass(frozen=True)
class SpanContext:
    """The picklable parent link that crosses process/wire boundaries."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One named interval of a trace.

    ``start`` is wall-clock (``time.time``), ``duration`` is measured
    on the monotonic clock; ``attrs`` carry bounded identifying detail
    (series/fraction/repeat for cells, worker ids for utilization);
    ``events`` are point-in-time annotations (retry attempts).
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    start: float = 0.0
    duration: float = 0.0
    attrs: dict = field(default_factory=dict)
    events: list = field(default_factory=list)

    def context(self) -> SpanContext:
        """This span as a parent link for children."""
        return SpanContext(self.trace_id, self.span_id)

    def add_event(self, name: str, **attrs) -> None:
        """Append a point-in-time annotation to this span."""
        self.events.append({"time": time.time(), "name": name, **attrs})

    def as_dict(self) -> dict:
        """Plain-JSON form (the ``--trace FILE`` line format)."""
        out = {"name": self.name, "trace_id": self.trace_id,
               "span_id": self.span_id, "parent_id": self.parent_id,
               "start": self.start, "duration": self.duration,
               "attrs": self.attrs}
        if self.events:
            out["events"] = self.events
        return out

    @classmethod
    def from_dict(cls, data: dict) -> Span:
        """Rebuild a span from its :meth:`as_dict` form."""
        return cls(name=data["name"], trace_id=data["trace_id"],
                   span_id=data["span_id"], parent_id=data.get("parent_id"),
                   start=data.get("start", 0.0),
                   duration=data.get("duration", 0.0),
                   attrs=dict(data.get("attrs", {})),
                   events=list(data.get("events", [])))


#: The current span of this execution context (shared by
#: :meth:`Tracer.span` and :func:`span_into`, so retry events land on
#: worker-side spans too).
_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None)


@contextmanager
def span_into(sink: list, name: str, *, trace_id: str | None = None,
              parent: SpanContext | Span | None = None, attrs: dict | None = None):
    """Time a block into a :class:`Span` appended to *sink*.

    The worker-side primitive: it needs no active collection and no
    global state — a fleet/pool worker creates its batch and cell spans
    into a local list and ships the list back to the parent.  The new
    span inherits ids from *parent* (a :class:`SpanContext` off the
    wire, or a local :class:`Span`); without one it starts a new trace.
    """
    if parent is not None:
        trace_id = parent.trace_id
        parent_id = parent.span_id
    else:
        trace_id = trace_id or _new_id(128)
        parent_id = None
    span = Span(name=name, trace_id=trace_id, span_id=_new_id(),
                parent_id=parent_id, start=time.time(),
                attrs=dict(attrs or {}))
    token = _CURRENT.set(span)
    t0 = time.perf_counter()
    try:
        yield span
    finally:
        span.duration = time.perf_counter() - t0
        _CURRENT.reset(token)
        sink.append(span)


class Tracer:
    """Collection-scoped tracing with near-zero cost when idle.

    :meth:`collect` pushes a live collection; :meth:`span` records into
    every active collection (collections are rare and usually single,
    but nesting is legal and each nested collection sees the spans of
    its scope).  With no active collection, :meth:`span` yields ``None``
    after a single attribute check and :meth:`event` is a no-op unless
    a :func:`span_into` block is active.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._collections: list[list] = []

    @property
    def enabled(self) -> bool:
        """Whether at least one collection is active."""
        return bool(self._collections)

    @contextmanager
    def collect(self):
        """Activate tracing; yields the list finished spans land in."""
        spans: list[Span] = []
        with self._lock:
            self._collections.append(spans)
        try:
            yield spans
        finally:
            with self._lock:
                self._collections.remove(spans)

    def record(self, spans) -> None:
        """Fold externally produced spans (workers, wire) into collections."""
        if not self._collections:
            return
        with self._lock:
            for collection in self._collections:
                collection.extend(spans)

    @contextmanager
    def span(self, name: str, *, parent: Span | SpanContext | None = None,
             attrs: dict | None = None):
        """Time a block into a new span (or yield ``None`` when idle).

        *parent* defaults to the context-local current span, so nested
        ``with TRACER.span(...)`` blocks link up automatically; pass it
        explicitly when the child runs on another thread.
        """
        if not self._collections:
            yield None
            return
        if parent is None:
            parent = _CURRENT.get()
        sink: list[Span] = []
        with span_into(sink, name, parent=parent, attrs=attrs) as span:
            yield span
        self.record(sink)

    def current_context(self) -> SpanContext | None:
        """The context-local current span as a parent link, if any."""
        span = _CURRENT.get()
        return span.context() if span is not None else None

    def event(self, name: str, **attrs) -> None:
        """Annotate the context-local current span (no-op without one)."""
        span = _CURRENT.get()
        if span is not None:
            span.add_event(name, **attrs)


#: The process-wide tracer every instrumented layer records through.
TRACER = Tracer()


def write_trace(path, spans) -> int:
    """Dump *spans* as JSON lines to *path*; returns the span count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def load_trace(path) -> list[Span]:
    """Read a :func:`write_trace` JSON-lines file back into spans."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans
