"""Tests for span tracing (repro.observability.tracing)."""

import sys
import threading

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Span, SpanContext, Tracer
from repro.util.clock import VirtualClock


@pytest.fixture()
def clock():
    return VirtualClock()


@pytest.fixture()
def tracer(clock):
    return Tracer(clock.now)


class TestSpanLifecycle:
    def test_span_measures_modelled_time(self, tracer, clock):
        with tracer.span("op") as span:
            clock.sleep(1.5)
        assert span.finished
        assert span.duration == pytest.approx(1.5)

    def test_unfinished_span_has_no_duration(self, tracer):
        ctx = tracer.span("op")
        span = ctx.span
        with pytest.raises(RuntimeError, match="has not finished"):
            _ = span.duration
        ctx.__exit__(None, None, None)

    def test_attributes(self, tracer):
        with tracer.span("op", procedure="domain.create") as span:
            span.set_attribute("outcome", "ok")
        assert span.attributes == {"procedure": "domain.create", "outcome": "ok"}

    def test_to_dict(self, tracer, clock):
        clock.sleep(2.0)
        with tracer.span("op") as span:
            clock.sleep(0.5)
        d = span.to_dict()
        assert d["name"] == "op"
        assert d["start"] == pytest.approx(2.0)
        assert d["end"] == pytest.approx(2.5)
        assert d["duration"] == pytest.approx(0.5)
        assert d["error"] is None


class TestNesting:
    def test_child_inherits_trace_id(self, tracer):
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                pass
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None

    def test_siblings_share_trace(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.trace_id == b.trace_id == root.trace_id
        assert a.parent_id == b.parent_id == root.span_id

    def test_separate_roots_get_separate_traces(self, tracer):
        with tracer.span("first") as first:
            pass
        with tracer.span("second") as second:
            pass
        assert first.trace_id != second.trace_id

    def test_current_tracks_the_stack(self, tracer):
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_manual_out_of_order_exit_recovers(self, tracer):
        # dispatch code calls __exit__ by hand; an inner span left open
        # must not wedge the stack when the outer one finishes first
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__exit__(None, None, None)
        assert tracer.current is None
        inner.__exit__(None, None, None)  # already popped; harmless
        assert tracer.spans_finished == 2

    def test_out_of_order_exit_orphans_counts_and_buffers_the_inner_spans(self, clock):
        registry = MetricsRegistry(now=clock.now)
        tracer = Tracer(clock.now, metrics=registry)
        outer = tracer.span("outer")
        middle = tracer.span("middle")
        inner = tracer.span("inner")
        clock.advance(2.0)
        outer.__exit__(None, None, None)
        assert tracer.current is None and tracer.spans_open == 0
        assert tracer.spans_orphaned == 2 and tracer.spans_failed == 2
        assert [s.name for s in tracer.finished_spans()] == ["inner", "middle", "outer"]
        for orphan in (middle.span, inner.span):
            assert orphan.error == "orphaned: enclosing span 'outer' exited first"
            assert orphan.duration == 2.0
        assert outer.span.error is None
        # every one of the three left its sample, looked up once per name
        by_name = dict(
            (labels["name"], child.count)
            for labels, child in registry.get("span_seconds").samples()
        )
        assert by_name == {"outer": 1, "middle": 1, "inner": 1}

    def test_an_orphan_keeps_the_error_it_already_had(self, tracer):
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        inner.span.error = "ValueError('first')"
        outer.__exit__(None, None, None)
        assert inner.span.error == "ValueError('first')"
        assert tracer.spans_orphaned == 1

    def test_a_detached_span_finishing_leaves_the_stack_alone(self, tracer):
        with tracer.span("outer") as outer:
            detached = tracer.start_span("detached")
            assert detached.parent_id == outer.span_id
            assert tracer.current is outer  # never pushed
            tracer.finish_span(detached)
            assert tracer.current is outer and tracer.spans_orphaned == 0


class TestIdAllocation:
    def test_ids_drawn_from_many_threads_never_collide(self, clock):
        """Ids come from a bare ``next()`` on one ``itertools.count`` (no
        lock of their own): more threads than cores, a short switch
        interval, and a lost update would show as a duplicate id."""
        tracers = [Tracer(clock.now) for _ in range(2)]  # one id space for all
        drawn = [[] for _ in range(8)]

        def draw(ids, tracer):
            for _ in range(5000):
                ids.append(tracer.start_span("x").span_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=draw, args=(ids, tracers[i % 2]))
                for i, ids in enumerate(drawn)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ids = [span_id for per_thread in drawn for span_id in per_thread]
        assert len(ids) == 40000 and len(set(ids)) == len(ids)
        assert sum(t.spans_started for t in tracers) == 40000
        assert all(per_thread == sorted(per_thread) for per_thread in drawn)


class TestAmbientParent:
    """``span()`` reads its parent's ids off the stack top or the
    attached context; neither leaks into the span's attributes."""

    def test_under_an_attached_context(self, tracer):
        token = tracer.attach(SpanContext(41, 42))
        try:
            with tracer.span("adopted", driver="qemu") as span:
                assert (span.trace_id, span.parent_id) == (41, 42)
                assert span.attributes == {"driver": "qemu"}
        finally:
            tracer.detach(token)
        assert tracer.spans_propagated == 0  # ambient, not handed over
        with tracer.span("root") as root:
            assert root.parent_id is None and root.trace_id == root.span_id

    def test_a_stacked_span_wins_over_the_attached_context(self, tracer):
        tracer.attach(SpanContext(41, 42))
        with tracer.span("outer") as outer:
            with tracer.span("inner", procedure="domain.create") as inner:
                assert (inner.trace_id, inner.parent_id) == (41, outer.span_id)
                assert inner.attributes == {"procedure": "domain.create"}
        tracer.detach(None)

    def test_an_explicit_parent_wins_over_both_and_is_counted(self, tracer):
        tracer.attach(SpanContext(41, 42))
        with tracer.span("outer"):
            with tracer.span("remote", parent=SpanContext(7, 8)) as span:
                assert (span.trace_id, span.parent_id) == (7, 8)
                assert span.attributes == {}
        assert tracer.spans_propagated == 1
        tracer.detach(None)


class TestAttributeOwnership:
    """Decision (PR 22): a ``Span`` adopts the dict it is given.  The
    tracer only ever hands it the ``**attributes`` dict of the call being
    made, which no caller can hold; a caller constructing ``Span``
    directly gives its dict away."""

    def test_span_adopts_the_dict_it_is_constructed_with(self):
        given = {"procedure": "domain.create"}
        span = Span("rpc.dispatch", 2, 1, 0.0, attributes=given)
        assert span.attributes is given
        assert Span("bare", 3, 1, 0.0).attributes == {}
        assert span.to_dict()["attributes"] is not given  # exports still copy

    def test_keyword_attributes_never_alias_the_callers_dict(self, tracer):
        attrs = {"procedure": "domain.create", "serial": 7}
        with tracer.span("rpc.dispatch", **attrs) as span:
            span.set_attribute("status", "ok")
        interrupted = tracer.record_interrupted(
            "rpc.dispatch", span_id=90, trace_id=90, start=0.0, **attrs
        )
        assert interrupted.attributes == {**attrs, "status": "interrupted"}
        assert attrs == {"procedure": "domain.create", "serial": 7}


class TestErrors:
    def test_exception_recorded_and_counted(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("bad input")
        assert span.error == "ValueError('bad input')"
        assert tracer.spans_failed == 1

    def test_manual_exit_with_exception(self, tracer):
        ctx = tracer.span("op")
        exc = RuntimeError("wedged")
        ctx.__exit__(type(exc), exc, None)
        assert ctx.span.error == "RuntimeError('wedged')"
        assert tracer.spans_failed == 1


class TestBuffer:
    def test_ring_buffer_bounded(self, clock):
        tracer = Tracer(clock.now, max_finished=8)
        for i in range(20):
            with tracer.span(f"op{i}"):
                pass
        assert tracer.spans_started == 20
        assert tracer.spans_finished == 8
        names = [s.name for s in tracer.finished_spans()]
        assert names == [f"op{i}" for i in range(12, 20)]

    def test_find_and_export(self, tracer):
        with tracer.span("rpc.dispatch", procedure="domain.create"):
            pass
        with tracer.span("driver.op"):
            pass
        assert len(tracer.find("rpc.dispatch")) == 1
        assert tracer.find("nothing") == []
        exported = tracer.export()
        assert len(exported) == 2
        assert exported[0]["attributes"] == {"procedure": "domain.create"}

    def test_reset(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("x"):
                raise ValueError()
        tracer.reset()
        assert tracer.spans_started == 0
        assert tracer.spans_failed == 0
        assert tracer.spans_finished == 0
        assert tracer.finished_spans() == []

    def test_reset_with_spans_open(self, tracer):
        """Open spans survive a reset: still on the stack, still
        queryable, and they finish into the emptied buffer."""
        with tracer.span("done"):
            pass
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.reset()
                assert tracer.spans_started == 0 and tracer.spans_finished == 0
                assert {s.name for s in tracer.open_spans()} == {"outer", "inner"}
                assert tracer.current is inner
                with tracer.span("after") as after:
                    assert after.parent_id == inner.span_id
            assert tracer.current is outer
        assert [s.name for s in tracer.finished_spans()] == ["after", "inner", "outer"]
        assert tracer.spans_open == 0 and tracer.spans_orphaned == 0
