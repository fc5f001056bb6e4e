"""Trajectories: polylines that campaigns walk or drive repeatedly.

The paper's methodology is trajectory-centric: each area has a handful of
fixed routes (12 at the Intersection, NB/SB at the Airport, one 1300 m
Loop), and every route is traversed at least 30 times.  A
:class:`Trajectory` is an ordered polyline with constant-speed-independent
geometry; mobility models sample positions along it by arclength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.geo.geometry import unit_to_heading


@dataclass(frozen=True)
class Trajectory:
    """A named polyline route in local-meter coordinates."""

    name: str
    waypoints: tuple[tuple[float, float], ...]
    closed: bool = False  # loops (e.g. the 1300 m Loop) wrap around

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("a trajectory needs at least two waypoints")

    # Derived once per (frozen) route; pickling carries the cache along.
    @cached_property
    def segments(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        pts = list(self.waypoints)
        if self.closed:
            pts.append(pts[0])
        return tuple(zip(pts[:-1], pts[1:]))

    @cached_property
    def _segment_lengths(self) -> np.ndarray:
        lengths = np.array([math.hypot(b[0] - a[0], b[1] - a[1])
                            for a, b in self.segments])
        lengths.flags.writeable = False  # one array, shared by every caller
        return lengths

    @cached_property
    def length_m(self) -> float:
        return float(self._segment_lengths.sum())

    def point_at(self, s_m: float) -> tuple[float, float]:
        """Position at arclength ``s_m`` from the start.

        Closed trajectories wrap; open trajectories clamp at the ends.
        """
        total = self.length_m
        if self.closed:
            s_m = s_m % total
        else:
            s_m = min(max(s_m, 0.0), total)
        for (a, b), seg_len in zip(self.segments, self._segment_lengths):
            if s_m <= seg_len or seg_len == 0.0:
                if seg_len == 0.0:
                    continue
                t = s_m / seg_len
                return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            s_m -= seg_len
        return self.waypoints[0] if self.closed else self.waypoints[-1]

    def heading_at(self, s_m: float) -> float:
        """Compass heading of travel at arclength ``s_m``."""
        total = self.length_m
        if self.closed:
            s_m = s_m % total
        else:
            s_m = min(max(s_m, 0.0), total - 1e-9)
        for (a, b), seg_len in zip(self.segments, self._segment_lengths):
            if s_m < seg_len and seg_len > 0.0:
                return unit_to_heading(b[0] - a[0], b[1] - a[1])
            s_m -= seg_len
        last_a, last_b = self.segments[-1]
        return unit_to_heading(last_b[0] - last_a[0], last_b[1] - last_a[1])

    def reversed(self, name: str | None = None) -> "Trajectory":
        """The same route walked in the opposite direction."""
        return Trajectory(
            name=name or f"{self.name}-rev",
            waypoints=tuple(reversed(self.waypoints)),
            closed=self.closed,
        )


@dataclass
class TraversalState:
    """Progress of one pass along a trajectory."""

    trajectory: Trajectory
    s_m: float = 0.0
    finished: bool = False

    def advance(self, speed_mps: float, dt_s: float = 1.0) -> None:
        self.s_m += max(speed_mps, 0.0) * dt_s
        if not self.trajectory.closed and self.s_m >= self.trajectory.length_m:
            self.s_m = self.trajectory.length_m
            self.finished = True

    @property
    def position(self) -> tuple[float, float]:
        return self.trajectory.point_at(self.s_m)

    @property
    def heading_deg(self) -> float:
        return self.trajectory.heading_at(self.s_m)


def rectangle_loop(name: str, width_m: float, height_m: float,
                   origin: tuple[float, float] = (0.0, 0.0)) -> Trajectory:
    """Convenience builder for rectangular loop routes."""
    x0, y0 = origin
    return Trajectory(
        name=name,
        waypoints=(
            (x0, y0),
            (x0 + width_m, y0),
            (x0 + width_m, y0 + height_m),
            (x0, y0 + height_m),
        ),
        closed=True,
    )
