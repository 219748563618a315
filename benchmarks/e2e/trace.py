"""Outside-in span recorder: timing wrappers around each layer's entry points.

The program's own ``repro.obs`` spans are deliberately not read -- a later
change may rename them.  A traced run instead patches the public entry
points listed in :data:`ENTRY_POINTS` (class methods on the class and on
every subclass that overrides them; module functions in every loaded
``repro`` module that holds a reference, because ``from x import f`` copies
the name) with wrappers that record ``(id, name, start, end, parent, thread,
request, child time)`` tuples in memory.  An untraced run installs nothing.

* *busy* of a name = the sum of its spans' durations;
* *self* of a span = its duration minus the part its child spans cover.

Each thread has its own span stack, so the server's executor threads nest
correctly; a wrapper that finds its own name on top of the stack (a base
method delegating to an override) records nothing, so a layer is never
counted twice.  Spans must not stay open across an ``await``: coroutines of
one thread interleave, so client round trips are added after the fact with
:meth:`SpanRecorder.add_closed`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (span name, module, class or None, attribute) -- what a traced run wraps.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("query.parse", "repro.query.parser", None, "parse_statement"),
    # template_fingerprint() -- what the sliding window and the compressor
    # call per statement -- is parameterized_sql() plus a digest.
    ("query.templatize", "repro.query.templates", None, "parameterized_sql"),
    ("query.templatize", "repro.query.templates", None, "templatize"),
    ("workloads.compress", "repro.workloads.compress", None, "compress_workload"),
    ("advisor.candidates", "repro.advisor.candidates", "CandidateGenerator", "for_workload"),
    ("advisor.candidates", "repro.advisor.candidates", "CandidateGenerator", "for_query"),
    ("optimizer.optimize", "repro.optimizer.optimizer", "Optimizer", "optimize"),
    ("optimizer.whatif", "repro.optimizer.whatif", "WhatIfCallCache",
     "optimize_with_configuration"),
    ("pinum.build", "repro.pinum.cache_builder", "PinumCacheBuilder", "build_cache"),
    ("inum.build", "repro.inum.cache_builder", "InumCacheBuilder", "build_cache"),
    ("inum.compile", "repro.inum.compiled", None, "compile_cache"),
    ("inum.arena_compile", "repro.inum.arena", None, "compile_arena"),
    ("inum.estimate", "repro.inum.compiled", "CompiledCostEngine", "estimate"),
    ("inum.estimate", "repro.inum.compiled", "CompiledCostEngine", "estimate_detail"),
    ("inum.estimate", "repro.inum.compiled", "CompiledCostEngine", "estimate_batch"),
    ("inum.arena_frontier", "repro.inum.arena", "WorkloadArena", "frontier_detail"),
    ("inum.arena_frontier", "repro.inum.arena", "WorkloadArena", "evaluate_frontier"),
    ("inum.arena_evaluate", "repro.inum.arena", "WorkloadArena", "evaluate"),
    ("inum.arena_evaluate", "repro.inum.arena", "WorkloadArena", "evaluate_detail"),
    ("inum.arena_evaluate", "repro.inum.arena", "WorkloadArena", "evaluate_batch"),
    ("inum.store_save", "repro.inum.serialization", "CacheStore", "save"),
    ("inum.store_load", "repro.inum.serialization", "CacheStore", "load"),
    ("advisor.select", "repro.advisor.lazy_greedy", "LazyGreedySelector", "select"),
    ("advisor.select", "repro.advisor.greedy", "GreedySelector", "select"),
    ("advisor.select", "repro.advisor.ilp.selector", "IlpSelector", "select"),
    ("api.session.recommend", "repro.api.session", "TuningSession", "recommend"),
    ("api.session.evaluate", "repro.api.session", "TuningSession", "evaluate"),
    ("api.session.what_if", "repro.api.session", "TuningSession", "what_if"),
    ("api.session.add_queries", "repro.api.session", "TuningSession", "add_queries"),
    ("api.serve.handle", "repro.api.serve", "ServeFrontend", "handle"),
    ("online.source_poll", "repro.online.stream", "MemoryStatementSource", "poll"),
    ("online.window", "repro.online.window", "SlidingWindow", "append"),
    ("online.drift", "repro.online.drift", "DriftDetector", "observe"),
    ("online.poll", "repro.online.daemon", "OnlineTuner", "poll"),
)

#: A closed span: (id, name, start, end, parent id, thread, request, child seconds).
Span = Tuple[int, str, float, float, int, int, object, float]


class SpanRecorder:
    """Collects spans in memory; thread-aware; written out once at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_root(self, name: str, request: object = None) -> None:
        """Open the span of one benchmark operation on this thread."""
        frame = [next(self._ids), name, 0.0, request, time.perf_counter()]
        self._stack().append(frame)

    def close_root(self) -> None:
        self._close(self._stack(), time.perf_counter())

    def _close(self, stack: list, end: float) -> None:
        span_id, name, child_seconds, request, start = stack.pop()
        parent = 0
        if stack:
            stack[-1][2] += end - start
            parent = stack[-1][0]
        self.spans.append(
            (span_id, name, start, end, parent, threading.get_ident(), request,
             child_seconds)
        )

    def add_closed(self, name: str, start: float, end: float, request: object) -> None:
        """A span measured elsewhere (a client round trip spanning awaits)."""
        self.spans.append(
            (next(self._ids), name, start, end, 0, threading.get_ident(), request, 0.0)
        )

    def wrap(self, function: Callable, name: str,
             request_of: Optional[Callable[..., object]] = None) -> Callable:
        """``function`` timed as a span called ``name``.

        ``request_of(*args)`` names the request a top-level span belongs to
        (the server's handler threads have no enclosing operation span).
        """
        stack_of = self._stack
        close = self._close
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                if stack[-1][1] == name:
                    return function(*args, **kwargs)
                request = stack[-1][3]
            else:
                request = request_of(*args) if request_of is not None else None
            stack.append([next(ids), name, 0.0, request, clock()])
            try:
                return function(*args, **kwargs)
            finally:
                close(stack, clock())

        return traced

    # -- installation ------------------------------------------------------

    def install(self, entry_points: Iterable[Tuple[str, str, Optional[str], str]] = ENTRY_POINTS
                ) -> None:
        """Patch every entry point; :meth:`uninstall` restores the originals."""
        for name, module_name, class_name, attribute in entry_points:
            module = importlib.import_module(module_name)
            if class_name is None:
                self._patch_function(name, module, attribute)
            else:
                self._patch_method(name, getattr(module, class_name), attribute)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _replace(self, owner: object, attribute: str, replacement: object) -> None:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, replacement)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def _patch_function(self, name: str, module: object, attribute: str) -> None:
        original = getattr(module, attribute)
        traced = self.wrap(original, name)
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._replace(other, key, traced)

    def _patch_method(self, name: str, cls: type, attribute: str) -> None:
        request_of = _serve_request if name == "api.serve.handle" else None
        pending = [cls]
        while pending:
            owner = pending.pop()
            pending.extend(owner.__subclasses__())
            if attribute in owner.__dict__:
                original = owner.__dict__[attribute]
                if isinstance(original, (staticmethod, classmethod)):
                    raise TypeError(f"{owner.__name__}.{attribute} is not a plain method")
                self._replace(owner, attribute, self.wrap(original, name, request_of))

    # -- reduction ---------------------------------------------------------

    def view(self, start: int = 0) -> "Spans":
        """The spans recorded from position ``start`` on, ready to reduce."""
        return Spans(self.spans[start:])


class Spans:
    """A fixed set of closed spans and the reductions the layer table needs."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        self._by_name: Dict[str, List[Span]] = {}
        for span in spans:
            self._by_name.setdefault(span[1], []).append(span)

    def __len__(self) -> int:
        return len(self.spans)

    def named(self, name: str) -> List[Span]:
        return self._by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def busy_ms(self, name: str) -> float:
        return sum(span[3] - span[2] for span in self.named(name)) * 1000.0

    def self_ms(self, name: str) -> float:
        return sum(span[3] - span[2] - span[7] for span in self.named(name)) * 1000.0

    def durations_ms(self, name: str) -> List[float]:
        return [(span[3] - span[2]) * 1000.0 for span in self.named(name)]

    def children_of(self, parent_name: str, child_name: str) -> int:
        """How many ``child_name`` spans sit directly under a ``parent_name`` span."""
        parents = {span[0] for span in self.named(parent_name)}
        return sum(1 for span in self.named(child_name) if span[4] in parents)

    def by_request(self, name: str) -> Dict[object, float]:
        """Summed duration (ms) of ``name`` spans per request id."""
        totals: Dict[object, float] = {}
        for span in self.named(name):
            if span[6] is not None:
                totals[span[6]] = totals.get(span[6], 0.0) + (span[3] - span[2]) * 1000.0
        return totals

    def self_time_gap(self) -> float:
        """Largest relative gap, over root spans, between a root's duration
        and the self times of its tree -- 0 when every interval is accounted
        for exactly once."""
        self_by_root: Dict[int, float] = {}
        parent_of = {span[0]: span[4] for span in self.spans}
        for span in self.spans:
            root = span[0]
            while parent_of.get(root, 0):
                root = parent_of[root]
            self_by_root[root] = self_by_root.get(root, 0.0) + span[3] - span[2] - span[7]
        worst = 0.0
        for span in self.spans:
            if span[4] == 0 and span[3] > span[2]:
                duration = span[3] - span[2]
                worst = max(worst, abs(self_by_root[span[0]] - duration) / duration)
        return worst

    def dump(self, path: Path) -> None:
        """Write every span as one NDJSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, thread, request, child in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread, "request": request,
                    "self": end - start - child,
                }) + "\n")


def _serve_request(frontend: object, payload: object) -> object:
    """Request id of a ``ServeFrontend.handle`` call: session id + echoed id."""
    if isinstance(payload, dict):
        return f"{payload.get('session_id')}#{payload.get('id')}"
    return None
