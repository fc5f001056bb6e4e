"""The compiled link budget against the per-panel one, its oracle.

``PerPanelSimulator`` is the link budget as it was before the site was
compiled: one scalar ``ShadowingProcess`` and one ``SpatialShadowingField``
per panel, the obstacle scan through ``Rect.intersects_segment``, path
loss through ``PathLossModel.mean_loss_db``, the LTE macro distance from
``PanelDirectory.nearest``.  Stepped side by side from equal seeds, both
simulators must return the same bits and leave their ``rng`` in the same
state after every step.
"""

import zlib

import numpy as np
import pytest

from repro.env.areas import build_area
from repro.geo.geometry import distance, mobility_angle
from repro.mobility.models import (
    DrivingModel,
    StationaryModel,
    WalkingModel,
    kmph,
)
from repro.net.tcp import BulkTransferModel
from repro.radio.beams import BeamCodebook, BeamTracker
from repro.radio.handoff import AttachmentState, HandoffTracker
from repro.radio.propagation import ShadowingProcess, SpatialShadowingField
from repro.sim import simulator
from repro.sim.simulator import LinkSimulator, SimulationConfig, simulate_pass
from repro.ue.telemetry import TelemetryRecord


class PerPanelSimulator(LinkSimulator):
    def reset(self) -> None:
        cfg, panels = self.config, self.env.panels.panels
        env_seed = zlib.crc32(self.env.name.encode()) % (2**31)
        self._panel_fields = {
            p.panel_id: SpatialShadowingField(
                sigma_db=cfg.spatial_shadow_sigma_db,
                correlation_length_m=cfg.spatial_shadow_correlation_m,
                seed=env_seed + p.panel_id,
            )
            for p in panels
        }
        self._panel_shadowing = {}
        for p in panels:
            proc = ShadowingProcess(sigma_db=cfg.temporal_shadow_sigma_db,
                                    decorrelation_distance_m=10.0)
            proc.reset(self.rng)
            self._panel_shadowing[p.panel_id] = proc
        if cfg.beams is not None:
            self._beam_trackers = {
                p.panel_id: BeamTracker(cfg.beams,
                                        sweep_period_s=cfg.beam_sweep_period_s)
                for p in panels
            }
        self.attachment = AttachmentState()
        self.tracker = HandoffTracker()
        self.tcp = BulkTransferModel()
        self._prev_serving_los = None
        self.run_offset_db = float(
            self.rng.normal(0.0, cfg.run_offset_sigma_db))

    def _panel_loss_db(self, panel, ue_xy, heading_deg, speed_mps,
                       in_vehicle):
        cfg = self.config
        d = distance(panel.position, ue_xy)
        blockers = [o for o in self.env.obstacles.obstacles
                    if o.shape.intersects_segment(panel.position, ue_xy)]
        pen_db = sum(o.penetration_loss_db for o in blockers)
        los = pen_db <= 15.0
        if pen_db > 0.0:
            refl = max(o.reflectivity for o in blockers)
            pen_db *= 1.0 - refl * cfg.reflection_recovery
            pen_db += 3.0
        pl = cfg.path_loss.mean_loss_db(d, los)
        shadow = (
            self._panel_fields[panel.panel_id].value_db(*ue_xy)
            + self._panel_shadowing[panel.panel_id].step(speed_mps, 1.0,
                                                         self.rng)
        )
        theta_m = mobility_angle(panel.bearing_deg, heading_deg)
        body_db = cfg.body_blockage.loss_db(theta_m, driving=in_vehicle)
        vehicle_db = cfg.vehicle.loss_db(kmph(speed_mps), in_vehicle)
        beam_db = 0.0
        if cfg.beams is not None:
            beam_db = self._beam_trackers[panel.panel_id].step(
                panel.position, panel.bearing_deg, ue_xy, 1.0)
        loss = (
            pl + min(pen_db, 60.0) + shadow + body_db + vehicle_db
            + cfg.seasonal_foliage_db
            - panel.gain_toward_db(ue_xy) - beam_db - self.run_offset_db
        )
        return loss, los

    def _link_budget(self, ue_xy, heading_deg, speed_mps, in_vehicle):
        rsrp, los_by_panel = {}, {}
        for panel in self.env.panels.panels:
            loss, los = self._panel_loss_db(panel, ue_xy, heading_deg,
                                            speed_mps, in_vehicle)
            rsrp[panel.panel_id] = panel.tx_power_dbm - loss
            los_by_panel[panel.panel_id] = los
        nearest = self.env.panels.nearest(ue_xy)
        self._distances = [distance(nearest.position, ue_xy)]
        return rsrp, los_by_panel


def walk(env, trajectory, seconds, speeds):
    """A seeded kinematic path that draws from no simulator rng."""
    route = env.trajectories[trajectory]
    s, out = 0.0, []
    for t in range(seconds):
        speed = speeds[t % len(speeds)]
        s += speed
        out.append((route.point_at(s), route.heading_at(s), speed))
    return out


CASES = {
    "airport-walk": ("Airport", "NB", False, SimulationConfig(),
                     (0.0, 0.7, 1.4, 1.3)),
    "loop-drive": ("Loop", "LOOP-CW", True, SimulationConfig(),
                   (0.0, 4.0, 9.5, 14.0)),
    "intersection-beams": ("Intersection", None, False,
                           SimulationConfig(beams=BeamCodebook(n_beams=8)),
                           (1.2, 1.5)),
    "airport-foliage": ("Airport", "SB", False,
                        SimulationConfig(seasonal_foliage_db=6.0),
                        (1.4,)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_steps_match_the_oracle(case):
    area, trajectory, in_vehicle, config, speeds = CASES[case]
    env = build_area(area)
    trajectory = trajectory or sorted(env.trajectories)[0]
    compiled = LinkSimulator(env, config, np.random.default_rng(77))
    oracle = PerPanelSimulator(env, config, np.random.default_rng(77))
    assert (compiled.rng.bit_generator.state
            == oracle.rng.bit_generator.state)
    for xy, heading, speed in walk(env, trajectory, 150, speeds):
        budgets = [sim._link_budget(xy, heading, speed, in_vehicle)
                   for sim in (compiled, oracle)]
        assert repr(budgets[0]) == repr(budgets[1])
        assert (compiled.rng.bit_generator.state
                == oracle.rng.bit_generator.state)
        assert min(compiled._distances) == oracle._distances[0]
        results = [sim.step(xy, heading, speed, in_vehicle)
                   for sim in (compiled, oracle)]
        assert repr(results[0]) == repr(results[1])
        assert repr(compiled.lte_rx_dbm()) == repr(oracle.lte_rx_dbm())
        assert (compiled.rng.bit_generator.state
                == oracle.rng.bit_generator.state)


@pytest.mark.parametrize("mobility", [WalkingModel, DrivingModel,
                                      StationaryModel])
def test_passes_match_the_oracle(mobility, monkeypatch):
    env = build_area("Loop")

    def run():
        return simulate_pass(env, env.trajectories["LOOP-CW"], mobility(),
                             0, np.random.default_rng(5), duration_s=200)

    compiled = run()
    monkeypatch.setattr(simulator, "LinkSimulator", PerPanelSimulator)
    oracle = run()
    for f in TelemetryRecord.field_names():
        a = np.asarray([getattr(r, f) for r in compiled])
        b = np.asarray([getattr(r, f) for r in oracle])
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f
