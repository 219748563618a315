"""Tests for span tracing: nesting, propagation, NDJSON export."""

from __future__ import annotations

import contextvars
import io
import json
import threading

from repro.obs import NULL_SPAN, Span, Tracer, write_spans_ndjson


class TestOptIn:
    def test_untraced_span_is_the_shared_null_context(self):
        tracer = Tracer()
        with tracer.span("anything") as span:
            assert span is NULL_SPAN
            assert not tracer.active
        assert tracer.current is None
        assert tracer.current_trace_id() == ""

    def test_null_span_swallows_everything(self):
        NULL_SPAN.set(key="value")
        NULL_SPAN.add("count")
        assert NULL_SPAN.to_dict() == {}
        assert NULL_SPAN.flatten() == []
        assert NULL_SPAN.attributes == {}

    def test_tracer_add_is_a_noop_untraced(self):
        tracer = Tracer()
        tracer.add("memo_hits")  # must not raise, must not allocate a trace
        assert not tracer.active

    def test_root_starts_a_trace(self):
        tracer = Tracer()
        with tracer.span("request", root=True) as span:
            assert tracer.active
            assert tracer.current is span
            assert tracer.current_trace_id() == span.trace_id
        assert not tracer.active


class TestNesting:
    def test_children_nest_and_carry_the_trace_id(self):
        tracer = Tracer()
        with tracer.span("root", root=True) as root:
            with tracer.span("child", op="x") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert [span.name for span in root.children] == ["child"]
        assert child.children[0] is grandchild
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert child.attributes == {"op": "x"}
        assert root.duration_seconds >= child.duration_seconds >= 0.0

    def test_span_counters_accumulate(self):
        tracer = Tracer()
        with tracer.span("root", root=True) as root:
            tracer.add("hits")
            tracer.add("hits", 2)
        assert root.attributes["hits"] == 3

    def test_exception_marks_the_span_and_propagates(self):
        tracer = Tracer()
        try:
            with tracer.span("root", root=True) as root:
                raise ValueError("boom")
        except ValueError:
            pass
        assert root.attributes["error"] == "ValueError"
        assert not tracer.active

    def test_sinks_see_finished_roots_only(self):
        tracer = Tracer()
        seen = []
        tracer.add_sink(seen.append)
        with tracer.span("root", root=True):
            with tracer.span("child"):
                pass
            assert seen == []  # nothing emitted until the root closes
        assert [span.name for span in seen] == ["root"]
        tracer.remove_sink(seen.append)
        with tracer.span("again", root=True):
            pass
        assert len(seen) == 1


class TestSerialization:
    def _build_tree(self) -> Span:
        tracer = Tracer()
        with tracer.span("root", root=True, kind="test") as root:
            with tracer.span("left"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("right", n=2):
                pass
        return root

    def test_flatten_links_children_by_parent_id(self):
        root = self._build_tree()
        rows = root.flatten()
        assert [row["name"] for row in rows] == ["root", "left", "leaf", "right"]
        by_id = {row["span_id"]: row for row in rows}
        for row in rows:
            assert "children" not in row
            assert row["trace_id"] == root.trace_id
            if row["parent_id"] is not None:
                assert row["parent_id"] in by_id

    def test_write_spans_ndjson(self):
        root = self._build_tree()
        stream = io.StringIO()
        assert write_spans_ndjson(root, stream) == 4
        lines = stream.getvalue().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[0])["name"] == "root"


class TestThreadPropagation:
    def test_copy_context_carries_the_span_across_threads(self):
        """The serve executor idiom: copy_context().run on the worker."""
        tracer = Tracer()

        def work() -> None:
            with tracer.span("on_worker"):
                pass

        with tracer.span("request", root=True) as root:
            context = contextvars.copy_context()
            thread = threading.Thread(target=context.run, args=(work,))
            thread.start()
            thread.join()
        assert [span.name for span in root.children] == ["on_worker"]

    def test_bare_thread_does_not_inherit_the_span(self):
        tracer = Tracer()
        recorded = []

        def work() -> None:
            recorded.append(tracer.active)

        with tracer.span("request", root=True):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        assert recorded == [False]
