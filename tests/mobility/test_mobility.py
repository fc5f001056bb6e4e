"""Tests for trajectories and mobility models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.models import (
    DrivingModel,
    StationaryModel,
    WalkingModel,
    kmph,
    mps,
)
from repro.mobility.trajectory import TraversalState, Trajectory, rectangle_loop


class TestTrajectory:
    def line(self):
        return Trajectory("line", ((0.0, 0.0), (0.0, 100.0)))

    def test_length(self):
        assert self.line().length_m == pytest.approx(100.0)

    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError):
            Trajectory("dot", ((0.0, 0.0),))

    def test_point_interpolation(self):
        t = self.line()
        assert t.point_at(50.0) == pytest.approx((0.0, 50.0))

    def test_open_trajectory_clamps(self):
        t = self.line()
        assert t.point_at(150.0) == pytest.approx((0.0, 100.0))
        assert t.point_at(-5.0) == pytest.approx((0.0, 0.0))

    def test_heading_north(self):
        assert self.line().heading_at(10.0) == pytest.approx(0.0)

    def test_reversed(self):
        rev = self.line().reversed("back")
        assert rev.name == "back"
        assert rev.heading_at(10.0) == pytest.approx(180.0)
        assert rev.length_m == pytest.approx(100.0)

    def test_closed_loop_wraps(self):
        loop = rectangle_loop("loop", 100.0, 50.0)
        assert loop.length_m == pytest.approx(300.0)
        assert loop.point_at(0.0) == pytest.approx(loop.point_at(300.0))
        assert loop.point_at(310.0) == pytest.approx(loop.point_at(10.0))

    def test_corner_heading_changes(self):
        loop = rectangle_loop("loop", 100.0, 50.0)
        assert loop.heading_at(50.0) == pytest.approx(90.0)   # east leg
        assert loop.heading_at(120.0) == pytest.approx(0.0)   # north leg

    def test_cached_geometry_travels_through_pickling(self):
        """Segments and lengths are derived once per route and cached on
        the instance; a pickled route (a campaign worker's copy) carries
        the cache and still equals and hashes like the original."""
        import pickle

        loop = rectangle_loop("loop", 100.0, 50.0)
        assert loop.segments is loop.segments
        assert loop.length_m == 300.0
        copy = pickle.loads(pickle.dumps(loop))
        assert {"segments", "_segment_lengths", "length_m"} <= set(vars(copy))
        assert copy == loop and hash(copy) == hash(loop)
        assert copy.length_m == 300.0
        assert copy.segments == loop.segments
        assert copy.point_at(310.0) == loop.point_at(310.0)

    @given(st.floats(0.0, 299.9))
    @settings(max_examples=100)
    def test_points_on_perimeter(self, s):
        loop = rectangle_loop("loop", 100.0, 50.0)
        x, y = loop.point_at(s)
        on_edge = (
            abs(y - 0.0) < 1e-6 or abs(y - 50.0) < 1e-6
            or abs(x - 0.0) < 1e-6 or abs(x - 100.0) < 1e-6
        )
        assert on_edge


class TestTraversal:
    def test_advance_and_finish(self):
        t = Trajectory("line", ((0.0, 0.0), (0.0, 10.0)))
        state = TraversalState(t)
        state.advance(6.0)
        assert not state.finished
        state.advance(6.0)
        assert state.finished
        assert state.position == pytest.approx((0.0, 10.0))

    def test_closed_never_finishes(self):
        loop = rectangle_loop("loop", 10.0, 10.0)
        state = TraversalState(loop)
        state.advance(1000.0)
        assert not state.finished


class TestSpeedConversions:
    def test_roundtrip(self):
        assert kmph(mps(45.0)) == pytest.approx(45.0)

    def test_walking_pace(self):
        assert kmph(1.4) == pytest.approx(5.04)


class TestWalkingModel:
    def test_speed_range_matches_paper(self):
        # Paper: walking speeds hover between 0 and 7 km/h.
        model = WalkingModel()
        rng = np.random.default_rng(0)
        model.reset(rng)
        speeds = [kmph(model.next_speed_mps(rng)) for _ in range(2000)]
        assert 0.0 <= min(speeds)
        assert max(speeds) <= 7.0
        assert 3.0 < np.median(speeds) < 6.0

    def test_activity_label(self):
        assert WalkingModel().activity == "WALKING"
        assert not WalkingModel().in_vehicle


class TestDrivingModel:
    def test_speed_range_matches_paper(self):
        model = DrivingModel()
        rng = np.random.default_rng(1)
        model.reset(rng)
        speeds = [kmph(model.next_speed_mps(rng, s_m=i * 10.0))
                  for i in range(2000)]
        assert max(speeds) <= 45.0
        assert min(speeds) == 0.0  # stop-and-go reaches standstill

    def test_red_light_forces_stop(self):
        model = DrivingModel(traffic_lights=(100.0,),
                             red_light_probability=1.0,
                             stop_probability_per_s=0.0)
        rng = np.random.default_rng(2)
        model.reset(rng)
        s, stopped = 0.0, False
        for _ in range(200):
            v = model.next_speed_mps(rng, s_m=s, route_length_m=1000.0)
            s += v
            if 60.0 < s < 180.0 and v == 0.0:
                stopped = True
        assert stopped

    def test_green_light_never_stops(self):
        model = DrivingModel(traffic_lights=(100.0,),
                             red_light_probability=0.0,
                             stop_probability_per_s=0.0)
        rng = np.random.default_rng(3)
        model.reset(rng)
        s = 0.0
        stops_after_rolling = 0
        for _ in range(120):
            v = model.next_speed_mps(rng, s_m=s, route_length_m=1e9)
            if s > 50.0 and v == 0.0:
                stops_after_rolling += 1
            s += v
        assert stops_after_rolling == 0

    def test_in_vehicle_flag(self):
        assert DrivingModel().in_vehicle
        assert DrivingModel().activity == "IN_VEHICLE"


class TestStationary:
    def test_always_zero(self):
        model = StationaryModel()
        rng = np.random.default_rng(0)
        assert model.next_speed_mps(rng) == 0.0
