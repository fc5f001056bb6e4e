"""Span recording from outside, self time, coverage and queue waits."""

import asyncio
import threading

import pytest

from tracer import (
    Span,
    SpanRecorder,
    covered_seconds,
    layer_seconds,
    match_queue_waits,
    outermost,
    self_times,
    union_length,
)


def span(sid, name, start, end, parent=None, thread=0):
    return Span(sid, name, start, end, parent, thread)


def test_self_time_subtracts_child_coverage():
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "a", 1.0, 3.0, parent=0),
        span(2, "b", 2.0, 5.0, parent=0),   # overlaps a: union is 1..5
        span(3, "c", 4.0, 4.5, parent=2),   # grandchild: not outer's child
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(0.5)


def test_self_time_clips_children_to_the_parent():
    # A child on another thread may outlive the span that caused it.
    spans = [span(0, "p", 0.0, 2.0), span(1, "c", 1.5, 3.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_layer_seconds_sum_self_times_and_nesting_of_one_layer():
    spans = [
        span(0, "ml.predict", 0.0, 4.0),
        span(1, "ml.predict", 1.0, 3.0, parent=0),  # predict -> proba
        span(2, "serve.parse", 5.0, 6.0),
    ]
    assert layer_seconds(spans) == pytest.approx(
        {"ml.predict": 4.0, "serve.parse": 1.0})
    assert [s.id for s in outermost(spans, "ml.predict")] == [0]


def test_union_and_coverage_over_threads():
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    spans = [span(0, "a", 0.0, 2.0, thread=1),
             span(1, "b", 1.0, 3.0, thread=2),
             span(2, "c", 9.0, 12.0)]
    assert covered_seconds(spans, 0.0, 10.0) == pytest.approx(4.0)


def test_queue_wait_matches_the_call_that_answered():
    # Calls: [1, 2), [3, 5), [6, 7).  A future completes after its call
    # returns and before the next one starts.
    starts, ends = [1.0, 3.0, 6.0], [2.0, 5.0, 7.0]
    submits = [(0.5, 2.1), (0.9, 2.2), (2.5, 5.5), (5.9, 7.0)]
    assert match_queue_waits(submits, starts, ends) == pytest.approx(
        [0.5, 0.1, 0.5, 0.1])


def test_queue_wait_rejects_inconsistent_matches():
    starts, ends = [1.0, 3.0], [2.0, 5.0]
    with pytest.raises(ValueError):      # done before any call started
        match_queue_waits([(0.0, 0.5)], starts, ends)
    with pytest.raises(ValueError):      # done while its call still ran
        match_queue_waits([(2.5, 4.0)], starts, ends)
    with pytest.raises(ValueError):      # call began before the submit
        match_queue_waits([(3.5, 5.5)], starts, ends)


class _Layer:
    def work(self, x):
        return x + 1


class _Child(_Layer):
    pass


def test_wrap_records_nested_spans_and_restores_originals():
    rec = SpanRecorder()
    original = _Layer.work
    rec.wrap(_Layer, "work", "layer.work",
             after=lambda attrs, args, kwargs, result: attrs.update(x=args[1]))
    rec.wrap(_Child, "work", "child.work")  # inherited attribute
    rec.enabled = True
    with rec.span("outer"):
        assert _Child().work(1) == 2
    rec.enabled = False
    assert _Layer().work(5) == 6  # disabled: no span
    by_name = {s.name: s for s in rec.spans}
    assert set(by_name) == {"outer", "child.work", "layer.work"}
    assert by_name["child.work"].parent == by_name["outer"].id
    assert by_name["layer.work"].parent == by_name["child.work"].id
    assert by_name["layer.work"].attrs == {"x": 1}
    rec.restore()
    assert _Layer.work is original
    assert "work" not in vars(_Child)


def test_threads_and_tasks_keep_their_own_parents():
    rec = SpanRecorder()
    rec.enabled = True

    def in_thread():
        with rec.span("thread"):
            pass

    async def task(name):
        with rec.span(name):
            await asyncio.sleep(0.01)

    async def main():
        await asyncio.gather(task("t1"), task("t2"))

    with rec.span("outer"):
        t = threading.Thread(target=in_thread)
        t.start()
        t.join(timeout=5)
        assert not t.is_alive()
    asyncio.run(main())
    by_name = {s.name: s for s in rec.spans}
    assert by_name["thread"].parent is None
    # Interleaved tasks do not nest in each other.
    assert by_name["t1"].parent is None and by_name["t2"].parent is None
