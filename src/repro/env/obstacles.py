"""Obstacle primitives and line-of-sight tests.

mmWave links are blocked by concrete structures, tinted glass, booths and
foliage.  We model obstacles as axis-aligned rectangles in the local-meter
plane, each with a penetration loss in dB (effectively infinite for
concrete, moderate for glass/booths) and a reflectivity coefficient used by
the propagation model to decide whether a useful NLoS reflective path exists
(the paper observes such "properly deflected" paths, e.g. the Airport south
panel outlier in Sec. 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x_min, x_max] x [y_min, y_max] in meters."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError("degenerate rectangle: min > max")

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def intersects_segment(
        self, a: tuple[float, float], b: tuple[float, float]
    ) -> bool:
        """True if segment a-b passes through the rectangle.

        Standard slab (Liang-Barsky) clipping test.
        """
        (x0, y0), (x1, y1) = a, b
        dx, dy = x1 - x0, y1 - y0
        t0, t1 = 0.0, 1.0
        for p, q in (
            (-dx, x0 - self.x_min),
            (dx, self.x_max - x0),
            (-dy, y0 - self.y_min),
            (dy, self.y_max - y0),
        ):
            if p == 0.0:
                if q < 0.0:
                    return False  # parallel and outside the slab
                continue
            t = q / p
            if p < 0.0:
                if t > t1:
                    return False
                t0 = max(t0, t)
            else:
                if t < t0:
                    return False
                t1 = min(t1, t)
        return t0 <= t1


@dataclass(frozen=True)
class Obstacle:
    """A blocking structure in the environment.

    Parameters
    ----------
    shape:
        Footprint rectangle.
    penetration_loss_db:
        Extra path loss applied when the direct ray crosses the obstacle.
        Concrete high-rises use a very large value (full blockage); booths
        and glass use moderate values, letting attenuated signal through.
    reflectivity:
        In [0, 1]; probability-like weight that the obstacle offers a usable
        reflected (NLoS) path to UEs near it.
    name:
        Label for debugging and map legends.
    """

    shape: Rect
    penetration_loss_db: float = 200.0
    reflectivity: float = 0.0
    name: str = ""


@dataclass
class ObstacleMap:
    """Collection of obstacles with aggregate blockage queries."""

    obstacles: list[Obstacle] = field(default_factory=list)

    def add(self, obstacle: Obstacle) -> None:
        self.obstacles.append(obstacle)

    def slabs(self, origin: tuple[float, float]) -> tuple:
        """Per obstacle, in map order: ``origin``'s slab offsets (the ``q``
        terms of :meth:`Rect.intersects_segment`), loss and reflectivity."""
        x0, y0 = origin
        return tuple(
            ((x0 - r.x_min, r.x_max - x0, y0 - r.y_min, r.y_max - y0),
             o.penetration_loss_db, o.reflectivity)
            for o in self.obstacles for r in (o.shape,)
        )

    def penetration_loss_db(
        self, a: tuple[float, float], b: tuple[float, float]
    ) -> float:
        """Total structural penetration loss along the direct ray a-b."""
        return ray_blockage(self.slabs(a), b[0] - a[0], b[1] - a[1])[0]

    def has_los(
        self,
        a: tuple[float, float],
        b: tuple[float, float],
        loss_threshold_db: float = 15.0,
    ) -> bool:
        """Line of sight exists if cumulative blockage loss is small."""
        return self.penetration_loss_db(a, b) <= loss_threshold_db

    def best_reflectivity(
        self, a: tuple[float, float], b: tuple[float, float]
    ) -> float:
        """Strongest reflective-path weight offered by blocking obstacles.

        When the direct ray is blocked, a reflective surface on the blocker
        (or nearby) may still deliver a usable NLoS path; we approximate
        this by the maximum reflectivity among the blockers.
        """
        return ray_blockage(self.slabs(a), b[0] - a[0], b[1] - a[1])[1]


def ray_blockage(slabs: tuple, dx: float, dy: float) -> tuple[float, float]:
    """``(penetration loss, best reflectivity)`` of the ray from the origin
    of ``slabs`` by ``(dx, dy)``: the slab test of
    :meth:`Rect.intersects_segment` (same pairs and branch order, ``max``
    and ``min`` as comparisons), crossed losses added in map order."""
    pen = refl = 0.0
    ps = (-dx, dx, -dy, dy)
    for qs, loss, r in slabs:
        t0, t1 = 0.0, 1.0
        for p, q in zip(ps, qs):
            if p == 0.0:
                if q < 0.0:
                    break
                continue
            t = q / p
            if p < 0.0:
                if t > t1:
                    break
                if t > t0:
                    t0 = t
            elif t < t0:
                break
            elif t < t1:
                t1 = t
        else:
            if t0 <= t1:
                pen += loss
                if r > refl:
                    refl = r
    return pen, refl
