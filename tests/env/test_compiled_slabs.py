"""The compiled slab test against ``Rect.intersects_segment``, its oracle.

``ObstacleMap.slabs`` precomputes, per obstacle, the slab offsets of a
ray origin; ``ray_blockage`` runs the Liang-Barsky test on them.  Both
must agree with the scalar ``Rect.intersects_segment`` on every segment,
and above all on the degenerate ones: axis-parallel rays (``p == 0``),
endpoints on edges and corners, zero-length rays, rays whose ``t`` lands
exactly on 0 or 1, and endpoints one ulp off an edge.
"""

import itertools
import math

import numpy as np
import pytest

from repro.env.obstacles import Obstacle, ObstacleMap, Rect, ray_blockage

RECT = Rect(2.0, -1.0, 5.0, 3.0)


def compiled_hit(rect, a, b) -> bool:
    slabs = ObstacleMap([Obstacle(rect, penetration_loss_db=1.0)]).slabs(a)
    return ray_blockage(slabs, b[0] - a[0], b[1] - a[1])[0] == 1.0


def assert_agrees(rect, segments) -> int:
    hits = 0
    for a, b in segments:
        expected = rect.intersects_segment(a, b)
        assert compiled_hit(rect, a, b) == expected, (rect, a, b)
        hits += expected
    return hits


def grid_points(xs, ys):
    return [(float(x), float(y)) for x in xs for y in ys]


class TestAgainstOracle:
    def test_random_segments(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3.0, 9.0, size=(4000, 4)).tolist()
        hits = assert_agrees(RECT, [((x0, y0), (x1, y1))
                                    for x0, y0, x1, y1 in pts])
        assert 0 < hits < len(pts)

    def test_grid_through_edges_and_corners(self):
        """Every segment between points on the rectangle's edge lines,
        inside and outside it: axis-parallel, corner-to-corner,
        edge-grazing and zero-length (a == b) segments, with ``t``
        landing exactly on 0 or 1 wherever an endpoint sits on an edge."""
        pts = grid_points((0.0, 2.0, 3.5, 5.0, 7.0),
                          (-3.0, -1.0, 1.0, 3.0, 5.0))
        assert_agrees(RECT, itertools.product(pts, repeat=2))

    def test_one_ulp_off_the_edges(self):
        xs = [v for e in (2.0, 5.0)
              for v in (math.nextafter(e, -math.inf), e,
                        math.nextafter(e, math.inf))]
        ys = [v for e in (-1.0, 3.0)
              for v in (math.nextafter(e, -math.inf), e,
                        math.nextafter(e, math.inf))]
        pts = grid_points(xs + [0.0, 7.0], ys + [-3.0, 5.0])
        assert_agrees(RECT, itertools.product(pts, repeat=2))

    def test_degenerate_rectangles(self):
        """Zero-width and zero-area rectangles (a wall, a post)."""
        pts = grid_points((0.0, 2.0, 3.0, 4.0), (0.0, 1.0, 2.0, 3.0))
        for rect in (Rect(2.0, 0.0, 2.0, 3.0), Rect(0.0, 1.0, 4.0, 1.0),
                     Rect(2.0, 1.0, 2.0, 1.0)):
            assert_agrees(rect, itertools.product(pts, repeat=2))

    @pytest.mark.parametrize("a, b, expected", [
        ((3.0, 1.0), (3.0, 1.0), True),     # zero length, inside
        ((0.0, 1.0), (0.0, 1.0), False),    # zero length, outside
        ((2.0, -1.0), (2.0, -1.0), True),   # zero length, on a corner
        ((0.0, 1.0), (9.0, 1.0), True),     # horizontal, p == 0 in y
        ((0.0, 4.0), (9.0, 4.0), False),    # horizontal, outside the y slab
        ((3.0, -5.0), (3.0, 9.0), True),    # vertical, p == 0 in x
        ((1.0, -5.0), (1.0, 9.0), False),   # vertical, outside the x slab
        ((0.0, 3.0), (9.0, 3.0), True),     # along an edge
        ((5.0, 1.0), (9.0, 1.0), True),     # starts on an edge: t0 == 0
        ((0.0, 1.0), (2.0, 1.0), True),     # ends on an edge: t1 == 1
        ((0.0, 5.0), (4.0, -3.0), True),    # diagonal across the x = 2 edge
        ((1.0, 4.0), (2.0, 3.0), True),     # ends on a corner
        ((0.0, 5.0), (2.0, 3.5), False),    # ends just above the corner
    ])
    def test_named_cases(self, a, b, expected):
        assert RECT.intersects_segment(a, b) is expected
        assert compiled_hit(RECT, a, b) is expected


class TestMapQueries:
    """``penetration_loss_db`` / ``best_reflectivity`` are the 1 x K case:
    losses of the oracle's blockers added in map order, their best
    reflectivity (0.0 when nothing blocks)."""

    def test_random_maps(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            obstacles = []
            for _ in range(int(rng.integers(1, 6))):
                x0, y0 = rng.uniform(-10, 10, size=2).round(1).tolist()
                w, h = rng.uniform(0, 6, size=2).round(1).tolist()
                obstacles.append(Obstacle(
                    Rect(x0, y0, x0 + w, y0 + h),
                    penetration_loss_db=float(rng.uniform(0, 40)),
                    reflectivity=float(rng.uniform(0, 1)),
                ))
            m = ObstacleMap(list(obstacles))
            for x0, y0, x1, y1 in rng.uniform(-12, 12, (20, 4)).round(0):
                a, b = (float(x0), float(y0)), (float(x1), float(y1))
                blockers = [o for o in obstacles
                            if o.shape.intersects_segment(a, b)]
                pen = 0.0
                for o in blockers:
                    pen += o.penetration_loss_db
                refl = max((o.reflectivity for o in blockers), default=0.0)
                assert m.penetration_loss_db(a, b) == pen
                assert m.best_reflectivity(a, b) == refl
                assert m.has_los(a, b) == (pen <= 15.0)
