"""Hierarchical span tracing with contextvars propagation.

A *span* is one timed region of work -- ``with tracer.span("inum.build_cache",
query=name):`` -- carrying monotonic start/duration, free-form attributes,
and children.  The *current* span lives in a :class:`contextvars.ContextVar`,
so nesting needs no plumbing: whatever opens a span inside the ``with`` block
becomes a child, across function and module boundaries.

Tracing is **opt-in and free when off**: ``tracer.span(...)`` with no active
trace returns a shared no-op context manager (no allocation, no clock reads).
A trace begins when something opens a *root* span (``root=True``) -- the
session does this when a request asks for a trace, the TCP server per
request, the online daemon per poll when configured.  When a root span
closes, it is handed to the tracer's *sinks* (``--trace-out`` registers one
that appends NDJSON) and then dropped, so tracing never accumulates memory.

One boundary needs help: ``ContextVar`` values don't follow work submitted to
a thread pool, so callers wrap the callable with
``contextvars.copy_context().run`` (see ``api/server.py``), after which spans
opened on the worker thread parent correctly.
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from typing import Callable, Dict, List, Optional


def _new_trace_id() -> str:
    return uuid.uuid4().hex


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed region: identity, timing, attributes, children."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_time",
        "duration_seconds",
        "attributes",
        "children",
        "_started_monotonic",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        #: Wall-clock start (epoch seconds) for export; durations come from
        #: the monotonic clock so they never go backwards.
        self.start_time = time.time()
        self.duration_seconds = 0.0
        self.attributes: Dict[str, object] = dict(attributes) if attributes else {}
        self.children: List[Span] = []
        self._started_monotonic = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def set(self, **attributes: object) -> "Span":
        """Attach attributes (last write wins); returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def add(self, key: str, amount: float = 1) -> None:
        """Bump a numeric attribute -- span-local counters (memo hits, ...)."""
        self.attributes[key] = self.attributes.get(key, 0) + amount

    def finish(self) -> None:
        self.duration_seconds = time.perf_counter() - self._started_monotonic

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The span subtree as JSON-able nested dicts."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "duration_ms": round(self.duration_seconds * 1000.0, 6),
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def flatten(self) -> List[dict]:
        """Depth-first list of single-span dicts (no nesting) for NDJSON."""
        record = self.to_dict()
        record.pop("children")
        rows = [record]
        for child in self.children:
            rows.extend(child.flatten())
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_seconds * 1000.0:.3f} ms, "
            f"{len(self.children)} children)"
        )


class _NullSpan:
    """The no-op span handed out when no trace is active."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    duration_seconds = 0.0
    attributes: Dict[str, object] = {}
    children: List[Span] = []

    def set(self, **attributes: object) -> "_NullSpan":
        return self

    def add(self, key: str, amount: float = 1) -> None:
        return None

    def to_dict(self) -> dict:
        return {}

    def flatten(self) -> List[dict]:
        return []


#: Shared no-op span: every untraced ``tracer.span(...)`` enters this.
NULL_SPAN = _NullSpan()


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _SpanContext:
    """Context manager that opens a real span and restores the previous one."""

    __slots__ = ("_tracer", "_name", "_parent", "_attributes", "_span", "_token")

    def __init__(self, tracer, name, parent, attributes):
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attributes = attributes

    def __enter__(self) -> Span:
        parent = self._parent
        if parent is not None:
            span = Span(
                self._name, parent.trace_id, parent.span_id, self._attributes
            )
        else:
            span = Span(self._name, _new_trace_id(), None, self._attributes)
        self._span = span
        self._token = self._tracer._var.set(span)
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.finish()
        if exc_type is not None:
            span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._var.reset(self._token)
        if self._parent is not None:
            self._parent.children.append(span)
        else:
            self._tracer._emit(span)
        return False


class Tracer:
    """Produces spans and owns the current-span context.

    One process-wide instance (:func:`get_tracer`) serves the whole stack;
    per-request isolation comes from contextvars, not tracer instances.
    """

    def __init__(self) -> None:
        self._var: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "repro_current_span", default=None
        )
        self._sink_lock = threading.Lock()
        self._sinks: List[Callable[[Span], None]] = []

    # -- span creation -----------------------------------------------------

    def span(self, name: str, root: bool = False, **attributes: object):
        """Context manager for one span.

        Without an active trace this is a shared no-op unless ``root=True``,
        which *starts* a trace: the span records unconditionally and is
        handed to the sinks when it closes.  Under an active trace the new
        span becomes a child of the current one (``root`` is then moot --
        the span nests like any other).
        """
        parent = self._var.get()
        if parent is None and not root:
            return _NULL_CONTEXT
        return _SpanContext(self, name, parent, attributes)

    @property
    def current(self) -> Optional[Span]:
        """The active span in this context (``None`` outside any trace)."""
        return self._var.get()

    @property
    def active(self) -> bool:
        """True when a trace is being recorded in this context."""
        return self._var.get() is not None

    def current_trace_id(self) -> str:
        """The active trace id, or ``""`` outside any trace."""
        span = self._var.get()
        return span.trace_id if span is not None else ""

    def add(self, key: str, amount: float = 1) -> None:
        """Bump a counter attribute on the current span (no-op untraced).

        This is the hot-path-friendly alternative to opening a span per
        event: a memo hit costs one dict update, and nothing at all when
        no trace is active.
        """
        span = self._var.get()
        if span is not None:
            span.add(key, amount)

    # -- sinks -------------------------------------------------------------

    def add_sink(self, sink: Callable[[Span], None]) -> None:
        """Register a callable receiving every finished *root* span."""
        with self._sink_lock:
            self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[Span], None]) -> None:
        with self._sink_lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def _emit(self, span: Span) -> None:
        with self._sink_lock:
            sinks = list(self._sinks)
        for sink in sinks:
            sink(span)


#: The process-wide tracer the whole stack records through.
_DEFAULT_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _DEFAULT_TRACER
