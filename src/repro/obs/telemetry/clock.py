"""The one clock abstraction behind all windowed telemetry.

Windowed metrics, SLO monitors and drift monitors never read the wall
clock directly: they take a ``clock`` callable returning seconds as a
float, defaulting to :func:`system_clock`.  That keeps every window
boundary, burn-rate evaluation and drift decision unit-testable without
sleeping -- tests pass a :class:`ManualClock` and advance it explicitly.

This module is the *only* place in ``repro.obs.telemetry`` allowed to
touch ``time`` (lint rule ``obs.telemetry-clock``): everything else
must thread a ``clock`` parameter through.
"""

from __future__ import annotations

import time
from collections.abc import Callable

__all__ = ["Clock", "ManualClock", "system_clock"]

#: Anything callable returning "now" in seconds (monotonic preferred).
Clock = Callable[[], float]


def system_clock() -> float:
    """Monotonic seconds -- immune to wall-clock (NTP/DST) skew."""
    return time.monotonic()


class ManualClock:
    """An injectable clock tests drive by hand.

    ``ManualClock(t0)()`` returns ``t0`` until :meth:`advance` or
    :meth:`set` move it.  Because windowed telemetry only ever *reads*
    the clock, a manual clock makes window rollover, SLO evaluation
    cadence and breaker timeouts fully deterministic.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> "ManualClock":
        if seconds < 0:
            raise ValueError("manual clocks only advance; use set()")
        self._now += float(seconds)
        return self

    def set(self, now: float) -> "ManualClock":
        self._now = float(now)
        return self
