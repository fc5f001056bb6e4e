"""A span recorder that instruments the program from outside.

The program itself carries no benchmark spans.  For a traced run the
benchmark replaces public functions and methods of each layer with
wrappers that record a span around the call (:meth:`SpanRecorder.wrap`)
and puts the originals back afterwards (:meth:`SpanRecorder.restore`).

Spans are kept in memory -- name, start, end, parent span and thread --
and written out once, when the run ends.  The parent is the span open in
the caller's context (a ``contextvars`` variable), so spans nest along
the call stack, asyncio tasks each keep their own stack, and threads
start with none.

Analysis is pure functions over the recorded spans:

* :func:`self_times` -- a span's duration minus the part of its interval
  its child spans cover;
* :func:`covered_seconds` -- how much of a window any span covers, on
  any thread (what ``trace.unattributed_ratio`` leaves out);
* :func:`match_queue_waits` -- for each admitted request, the wait from
  its shard submit to the start of the predict call that answered it.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "thread": self.thread, **self.attrs}


class SpanRecorder:
    """In-memory spans plus the wrappers that produce them."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[Span] = []
        #: Spans are recorded only while enabled; wrappers stay in place.
        self.enabled = False
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object, bool]] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its (mutable) attribute dict."""
        attrs: dict = {}
        if not self.enabled:
            yield attrs
            return
        sid = next(self._ids)
        token = _CURRENT.set(sid)
        parent = token.old_value
        if parent is contextvars.Token.MISSING:
            parent = None
        start = self.clock()
        try:
            yield attrs
        finally:
            end = self.clock()
            _CURRENT.reset(token)
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), attrs))

    def wrap(self, owner, attr: str, name: str | None, after=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``after(attrs, args, kwargs, result)`` may annotate the span
        (row counts, byte sizes) once the call has returned.  With
        ``name=None`` no span is recorded and only ``after`` runs.
        """
        own = attr in vars(owner)
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
                if after is not None and self.enabled:
                    after({}, args, kwargs, result)
                return result
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if after is not None and self.enabled:
                    after(attrs, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def between(self, lo: float, hi: float) -> list[Span]:
        """Spans that started and ended inside ``[lo, hi]``."""
        return [s for s in self.spans if s.start >= lo and s.end <= hi]


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end))
                   for lo, hi in children.get(s.id, ())
                   if hi > s.start and lo < s.end]
        out[s.id] = s.duration - union_length(clipped)
    return out


def layer_seconds(spans) -> dict[str, float]:
    """Layer name -> summed self time of its spans."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out


def outermost(spans, name: str) -> list[Span]:
    """``name`` spans not nested in another ``name`` span.

    A layer that calls itself (``predict`` calling ``predict_proba``)
    counts one call, not two.
    """
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(s)
    return out


def covered_seconds(spans, lo: float, hi: float) -> float:
    """Seconds of ``[lo, hi]`` during which some span, on any thread, ran."""
    return union_length(
        (max(s.start, lo), min(s.end, hi))
        for s in spans if s.end > lo and s.start < hi
    )


def match_queue_waits(submits, call_starts, call_ends) -> list[float]:
    """Queue wait of each request: its submit to its predict call's start.

    ``submits`` holds ``(t_submit, t_done)`` per request, where
    ``t_done`` is when its future completed; ``call_starts`` /
    ``call_ends`` are the predict calls of the one shard that served
    them.  A future completes after its predict call returns and before
    the shard's next call starts, so the answering call is the last one
    started at or before ``t_done``.  Raises ``ValueError`` when the
    match is inconsistent (no such call, a call that had not returned,
    or one that started before the request was submitted).
    """
    calls = sorted(zip(call_starts, call_ends))
    starts = [c[0] for c in calls]
    waits = []
    for t_submit, t_done in submits:
        i = bisect.bisect_right(starts, t_done) - 1
        if i < 0:
            raise ValueError(f"no predict call started by {t_done}")
        start, end = calls[i]
        if end > t_done:
            raise ValueError("matched predict call had not returned")
        if start < t_submit:
            raise ValueError("matched predict call started before submit")
        waits.append(start - t_submit)
    return waits
