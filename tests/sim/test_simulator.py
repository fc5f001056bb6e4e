"""Tests for the link simulator and measurement passes."""

import numpy as np
import pytest

from repro.env.areas import build_airport, build_loop
from repro.mobility.models import StationaryModel, WalkingModel
from repro.radio.handoff import RadioType
from repro.sim.simulator import LinkSimulator, SimulationConfig, simulate_pass


@pytest.fixture(scope="module")
def airport():
    return build_airport()


class TestLinkSimulator:
    def test_strong_position_yields_gbps(self, airport):
        sim = LinkSimulator(airport, rng=np.random.default_rng(0))
        # 20 m in front of the south panel, walking toward it.
        outs = [
            sim.step((0.0, 20.0), heading_deg=180.0, speed_mps=1.4,
                     in_vehicle=False)
            for _ in range(20)
        ]
        steady = [o.throughput_mbps for o in outs[5:]]
        assert max(steady) > 1000.0
        assert outs[-1].radio_type is RadioType.NR

    def test_deep_dead_zone_falls_back_to_lte(self, airport):
        sim = LinkSimulator(airport, rng=np.random.default_rng(1))
        # Far behind the south panel: no usable 5G.
        outs = [
            sim.step((0.0, -150.0), heading_deg=0.0, speed_mps=1.4,
                     in_vehicle=False)
            for _ in range(20)
        ]
        assert outs[-1].radio_type is RadioType.LTE
        assert outs[-1].throughput_mbps < 300.0

    def test_body_blockage_direction_asymmetry(self, airport):
        """Walking toward vs away from a panel changes throughput a lot."""
        def run(heading):
            rng = np.random.default_rng(42)
            sim = LinkSimulator(airport, rng=rng)
            vals = [
                sim.step((0.0, 60.0), heading_deg=heading, speed_mps=1.4,
                         in_vehicle=False).throughput_mbps
                for _ in range(30)
            ]
            return float(np.median(vals[10:]))

        toward_south = run(180.0)  # theta_m = 180 for the south panel
        away_from_south = run(0.0)
        assert toward_south > away_from_south

    def test_airtime_share_halves_throughput(self, airport):
        rng = np.random.default_rng(3)
        sim = LinkSimulator(airport, rng=rng)
        full = [sim.step((0.0, 25.0), 180.0, 0.0, False, airtime_share=1.0)
                for _ in range(15)]
        sim2 = LinkSimulator(airport, rng=np.random.default_rng(3))
        half = [sim2.step((0.0, 25.0), 180.0, 0.0, False, airtime_share=0.5)
                for _ in range(15)]
        assert half[-1].throughput_mbps < full[-1].throughput_mbps

    def test_reset_changes_run_offset(self, airport):
        sim = LinkSimulator(airport, rng=np.random.default_rng(4))
        first = sim.run_offset_db
        sim.reset()
        assert sim.run_offset_db != first


class TestSimulatePass:
    def test_open_trajectory_terminates(self, airport):
        recs = simulate_pass(
            airport, airport.trajectories["NB"], WalkingModel(),
            run_id=0, rng=np.random.default_rng(0),
        )
        # ~340 m at ~1.4 m/s: roughly 4 minutes of samples.
        assert 150 < len(recs) < 500
        assert recs[-1].run_id == 0

    def test_duration_limits_stationary_run(self, airport):
        recs = simulate_pass(
            airport, airport.trajectories["NB"], StationaryModel(),
            run_id=1, rng=np.random.default_rng(0), duration_s=45,
        )
        assert len(recs) == 45
        assert all(r.true_speed_mps == 0.0 for r in recs)

    def test_records_have_tower_geometry_when_surveyed(self, airport):
        recs = simulate_pass(
            airport, airport.trajectories["NB"], WalkingModel(),
            run_id=0, rng=np.random.default_rng(0),
        )
        on_5g = [r for r in recs if r.radio_type == "5G"]
        assert on_5g, "expected some 5G attachment on the airport walk"
        assert all(np.isfinite(r.ue_panel_distance_m) for r in on_5g)
        assert all(0.0 <= r.positional_angle_deg <= 180.0 for r in on_5g)
        assert all(0.0 <= r.mobility_angle_deg < 360.0 for r in on_5g)

    def test_loop_records_have_nan_geometry(self):
        env = build_loop()
        recs = simulate_pass(
            env, env.trajectories["LOOP-CW"], WalkingModel(),
            run_id=0, rng=np.random.default_rng(0), duration_s=120,
        )
        assert all(np.isnan(r.ue_panel_distance_m) for r in recs)

    def test_throughput_range_sane(self, airport):
        recs = simulate_pass(
            airport, airport.trajectories["NB"], WalkingModel(),
            run_id=0, rng=np.random.default_rng(5),
        )
        tput = np.asarray([r.throughput_mbps for r in recs])
        assert tput.min() >= 0.0
        assert tput.max() < 2100.0  # below the theoretical deployment cap

    def test_handoffs_logged_as_flags(self, airport):
        recs = simulate_pass(
            airport, airport.trajectories["NB"], WalkingModel(),
            run_id=0, rng=np.random.default_rng(6),
        )
        assert any(r.vertical_handoff for r in recs)
        assert all(r.horizontal_handoff in (0, 1) for r in recs)

    def test_deterministic_given_seed(self, airport):
        a = simulate_pass(airport, airport.trajectories["NB"],
                          WalkingModel(), 0, np.random.default_rng(9))
        b = simulate_pass(airport, airport.trajectories["NB"],
                          WalkingModel(), 0, np.random.default_rng(9))
        assert len(a) == len(b)
        assert [r.throughput_mbps for r in a] == [r.throughput_mbps for r in b]

    def test_spatial_field_shared_across_runs(self, airport):
        """The shadowing field is a property of the place, not the run."""
        sim1 = LinkSimulator(airport, rng=np.random.default_rng(1))
        sim2 = LinkSimulator(airport, rng=np.random.default_rng(2))
        f1 = sim1._fields.values_db(3.0, 40.0)
        f2 = sim2._fields.values_db(3.0, 40.0)
        assert f1.tobytes() == f2.tobytes()
