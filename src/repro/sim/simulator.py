"""Discrete-time measurement simulator.

``LinkSimulator`` reproduces, one second at a time, the full chain the
paper measures through: UE position/heading/speed -> per-panel link budget
(path loss, antenna pattern, obstacle penetration, body/vehicle blockage,
correlated shadowing) -> handoff decisions -> serving-link SINR with fast
fading -> PF airtime share -> parallel-TCP goodput, alongside the noisy
sensor readings and signal-strength reports that the monitoring app logs.

``simulate_pass`` drives one traversal of a trajectory and emits the raw
:class:`~repro.ue.telemetry.TelemetryRecord` rows.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.env.environment import Environment
from repro.env.obstacles import ray_blockage
from repro.geo.geometry import distance, mobility_angle, positional_angle
from repro.mobility.models import MobilityModel, kmph
from repro.mobility.trajectory import Trajectory, TraversalState
from repro.net.scheduler import CellLoadModel
from repro.net.tcp import BulkTransferModel
from repro.radio.beams import BeamCodebook, BeamTracker
from repro.radio.blockage import (
    BodyBlockageModel,
    PedestrianBlockageModel,
    VehiclePenetrationModel,
)
from repro.radio.handoff import (
    AttachmentState,
    HandoffPolicy,
    HandoffTracker,
    RadioType,
    consume_interruption,
)
from repro.radio.link import LinkBudget, LteLinkModel
from repro.radio.panel import Panel
from repro.radio.propagation import (
    PathLossModel,
    ShadowingProcess,
    SpatialShadowingField,
    fast_fading_db,
    fspl_db,
)
from repro.radio.signal import SignalStrengthModel
from repro.ue.device import UserEquipment
from repro.ue.telemetry import TelemetryRecord

LTE_MACRO_CELL_ID = 9999


@dataclass
class SimulationConfig:
    """Tunable physics/protocol knobs for a campaign."""

    path_loss: PathLossModel = field(default_factory=PathLossModel)
    link_budget: LinkBudget = field(default_factory=LinkBudget)
    lte: LteLinkModel = field(default_factory=LteLinkModel)
    handoff: HandoffPolicy = field(default_factory=HandoffPolicy)
    body_blockage: BodyBlockageModel = field(default_factory=BodyBlockageModel)
    vehicle: VehiclePenetrationModel = field(
        default_factory=VehiclePenetrationModel
    )
    pedestrian: PedestrianBlockageModel = field(
        default_factory=PedestrianBlockageModel
    )
    signals: SignalStrengthModel = field(default_factory=SignalStrengthModel)
    cell_load: CellLoadModel = field(default_factory=CellLoadModel)
    #: Per-run systematic offset (weather, device warmth, tower state...);
    #: the run-to-run component of the paper's "uncontrollable" variation.
    run_offset_sigma_db: float = 1.2
    #: Reflection path: fraction of blocked-path loss recovered when a
    #: blocker offers reflectivity r; loss' = pen_loss * (1 - r * this).
    reflection_recovery: float = 0.9
    #: Static spatial shadowing (reproducible across runs at a location).
    spatial_shadow_sigma_db: float = 3.5
    spatial_shadow_correlation_m: float = 15.0
    #: Residual per-run temporal shadowing on top of the spatial field.
    temporal_shadow_sigma_db: float = 0.8
    #: Fraction of instantaneous fast-fading variance surviving the
    #: 1-second throughput averaging (thousands of TTIs per sample).
    fading_averaging: float = 0.35
    #: White multiplicative jitter on per-second goodput (scheduler grant
    #: granularity, RLC retransmissions, iPerf interval alignment).
    throughput_jitter_sigma: float = 0.10
    #: Optional explicit beam management.  When set, serving-panel links
    #: additionally gain/lose the codebook beam (mis)alignment term --
    #: the mechanistic version of the abstract tracking loss.
    beams: BeamCodebook | None = None
    beam_sweep_period_s: float = 1.28
    #: Seasonal LoS/foliage degradation applied to every panel link
    #: (leaves on trees, deployment aging).  The drifting-campaign
    #: harness (repro.rollout) ramps this between phases to shift the
    #: throughput distribution under a serving model; 0.0 is the exact
    #: pre-existing channel.
    seasonal_foliage_db: float = 0.0


@dataclass
class StepResult:
    """Everything the simulator knows about one second (pre-telemetry)."""

    throughput_mbps: float
    radio_type: RadioType
    serving_panel: Panel | None
    horizontal_handoff: bool
    vertical_handoff: bool
    sinr_db: float | None
    nr_rx_dbm: float | None


class LinkSimulator:
    """Stateful per-run radio/transport simulator for a single UE; its
    site (per-panel tuples, stacked fields) is compiled on construction."""

    def __init__(
        self,
        env: Environment,
        config: SimulationConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.env = env
        self.config = config or SimulationConfig()
        self.rng = rng or np.random.default_rng()
        cfg = self.config
        self._panels = env.panels.panels
        self._site = [
            (p.position[0], p.position[1], p.bearing_deg, p.tx_power_dbm,
             env.obstacles.slabs(p.position))
            for p in self._panels
        ]
        # Stable across processes (unlike hash()), so the spatial shadowing
        # field of an area is identical in every campaign.
        env_seed = zlib.crc32(env.name.encode()) % (2**31)
        self._fields = SpatialShadowingField.stack([SpatialShadowingField(
            sigma_db=cfg.spatial_shadow_sigma_db,
            correlation_length_m=cfg.spatial_shadow_correlation_m,
            seed=env_seed + panel.panel_id,
        ) for panel in self._panels])
        self._fspl_1m_db = fspl_db(1.0, cfg.path_loss.frequency_ghz)
        self._shadowing = ShadowingProcess(
            sigma_db=cfg.temporal_shadow_sigma_db,
            decorrelation_distance_m=10.0, size=len(self._panels),
        )
        self._beam_trackers: dict[int, BeamTracker] = {}
        self._distances: list[float] = []  # UE to each panel, last step
        self.attachment = AttachmentState()
        self.tracker = HandoffTracker()
        self.tcp = BulkTransferModel()
        self.run_offset_db = 0.0
        self._prev_serving_los: bool | None = None
        self.reset()

    def reset(self) -> None:
        """Start a fresh measurement run (new shadowing, new TCP state)."""
        cfg = self.config
        self._shadowing.reset(self.rng)
        if cfg.beams is not None:
            self._beam_trackers = {
                panel.panel_id: BeamTracker(
                    cfg.beams, sweep_period_s=cfg.beam_sweep_period_s
                )
                for panel in self._panels
            }
        self.attachment = AttachmentState()
        self.tracker = HandoffTracker()
        self.tcp = BulkTransferModel()
        self._prev_serving_los = None
        self.run_offset_db = float(
            self.rng.normal(0.0, cfg.run_offset_sigma_db)
        )

    # ------------------------------------------------------------------ #

    def _link_budget(
        self,
        ue_xy: tuple[float, float],
        heading_deg: float,
        speed_mps: float,
        in_vehicle: bool,
    ) -> tuple[dict[int, float], dict[int, bool]]:
        """Per-panel RSRP (tx power - path, penetration, blockage and
        shadowing loss, net of antenna gain) and LoS flag."""
        cfg = self.config
        ux, uy = ue_xy
        # Panel-independent terms once; one shadowing draw per panel.
        shadows = (self._fields.values_db(ux, uy)
                   + self._shadowing.step(speed_mps, 1.0, self.rng)).tolist()
        body, body_on = cfg.body_blockage, cfg.body_blockage.applies(in_vehicle)
        vehicle_db = cfg.vehicle.loss_db(kmph(speed_mps), in_vehicle)
        los_n, nlos_n = cfg.path_loss.los_exponent, cfg.path_loss.nlos_exponent
        seasonal_db, offset_db = cfg.seasonal_foliage_db, self.run_offset_db
        beams = self._beam_trackers if cfg.beams is not None else None
        rsrp: dict[int, float] = {}
        los_by_panel: dict[int, bool] = {}
        distances = self._distances = []  # reused by the LTE fallback
        for panel, (px, py, bearing_deg, tx_dbm, slabs), shadow in zip(
                self._panels, self._site, shadows):
            dx, dy = ux - px, uy - py
            d = math.hypot(dx, dy)
            distances.append(d)
            pen_db, refl = ray_blockage(slabs, dx, dy)
            los = pen_db <= 15.0
            # A reflective blocker partially restores a blocked path (the
            # paper's "signal properly deflected by the environment").
            if pen_db > 0.0:
                pen_db *= 1.0 - refl * cfg.reflection_recovery
                pen_db += 3.0  # residual reflection loss even for mirrors
            pl = self._fspl_1m_db + 10.0 * (los_n if los else nlos_n) \
                * math.log10(1.0 if d < 1.0 else d)
            body_db = body.loss_db(
                mobility_angle(bearing_deg, heading_deg)) if body_on else 0.0
            beam_db = 0.0 if beams is None else beams[panel.panel_id].step(
                panel.position, bearing_deg, ue_xy, 1.0)
            loss = (
                pl + min(pen_db, 60.0) + shadow + body_db + vehicle_db
                + seasonal_db - panel.gain_toward_db(ue_xy) - beam_db
                - offset_db
            )
            rsrp[panel.panel_id] = tx_dbm - loss
            los_by_panel[panel.panel_id] = los
        return rsrp, los_by_panel

    def step(
        self,
        ue_xy: tuple[float, float],
        heading_deg: float,
        speed_mps: float,
        in_vehicle: bool,
        airtime_share: float | None = None,
    ) -> StepResult:
        """Advance one second at the given kinematic state."""
        cfg = self.config
        rsrp, los_by_panel = self._link_budget(
            ue_xy, heading_deg, speed_mps, in_vehicle)

        event = cfg.handoff.decide(self.attachment, rsrp)
        self.tracker.record(event)
        usable = consume_interruption(self.attachment, 1.0)

        obs_on = obs.enabled()
        if obs_on:
            obs.inc("sim.steps_total")
            if event.horizontal:
                obs.inc("sim.handoff.horizontal_total")
            if event.vertical:
                obs.inc("sim.handoff.vertical_total")

        if airtime_share is None:
            airtime_share = cfg.cell_load.airtime_share(1, self.rng)

        if self.attachment.radio_type is RadioType.NR:
            panel = self.env.panels.get(self.attachment.serving_panel_id)
            rx_dbm = rsrp[panel.panel_id]
            serving_los = los_by_panel[panel.panel_id]
            if obs_on and self._prev_serving_los is not None \
                    and serving_los != self._prev_serving_los:
                obs.inc("sim.blockage.transitions_total")
            self._prev_serving_los = serving_los
            fading = cfg.fading_averaging * fast_fading_db(
                serving_los, self.rng
            )
            ped_db = cfg.pedestrian.sample_loss_db(self.rng)
            sinr = cfg.link_budget.sinr_db(
                tx_power_dbm=rx_dbm,  # rx already folds gains and losses in
                tx_gain_db=0.0,
                path_loss_db=0.0,
                extra_loss_db=ped_db - fading,
            )
            phy = cfg.link_budget.phy_rate_bps(sinr) * airtime_share
            if phy <= 0.0:
                # Modem lost the beam this second; force vertical handoff.
                self.attachment.radio_type = RadioType.LTE
                self.attachment.serving_panel_id = None
                self.attachment.interruption_s = cfg.handoff.vertical_outage_s
                self.attachment.nr_inhibit_s = cfg.handoff.reacquire_dwell_s
                self.tracker.record(
                    type(event)(horizontal=False, vertical=True)
                )
                if obs_on:
                    obs.inc("sim.handoff.vertical_total")
                    obs.inc("sim.beam_loss_total")
                self._prev_serving_los = None
                tput = 0.0
                return StepResult(
                    throughput_mbps=tput,
                    radio_type=RadioType.LTE,
                    serving_panel=None,
                    horizontal_handoff=event.horizontal,
                    vertical_handoff=True,
                    sinr_db=sinr,
                    nr_rx_dbm=rx_dbm,
                )
            goodput = self.tcp.step(phy, usable_fraction=usable)
            goodput *= self.rng.lognormal(0.0, cfg.throughput_jitter_sigma)
            # iPerf intervals cannot report more than the deployment's
            # practical ceiling (~2 Gbps on 2019 commercial mmWave).
            goodput = min(goodput, 2000e6)
            if obs_on:
                obs.observe("sim.step.throughput_mbps", goodput / 1e6)
            return StepResult(
                throughput_mbps=goodput / 1e6,
                radio_type=RadioType.NR,
                serving_panel=panel,
                horizontal_handoff=event.horizontal,
                vertical_handoff=event.vertical,
                sinr_db=sinr,
                nr_rx_dbm=rx_dbm,
            )

        # LTE fallback: throughput from the macro model, TCP still ramps.
        self._prev_serving_los = None
        d_macro = min(self._distances)
        lte_mbps = cfg.lte.throughput_mbps(d_macro, self.rng)
        goodput = self.tcp.step(lte_mbps * 1e6, usable_fraction=usable)
        if obs_on:
            obs.inc("sim.lte_fallback_steps_total")
            obs.observe("sim.step.throughput_mbps", goodput / 1e6)
        return StepResult(
            throughput_mbps=goodput / 1e6,
            radio_type=RadioType.LTE,
            serving_panel=None,
            horizontal_handoff=event.horizontal,
            vertical_handoff=event.vertical,
            sinr_db=None,
            nr_rx_dbm=None,
        )

    # ------------------------------------------------------------------ #

    def lte_rx_dbm(self) -> float:
        """Rough LTE macro received power for signal reporting, at the
        position of the last :meth:`step`."""
        d = max(min(self._distances), 10.0)
        return -60.0 - 30.0 * math.log10(d / 10.0)


def simulate_pass(
    env: Environment,
    trajectory: Trajectory,
    mobility: MobilityModel,
    run_id: int,
    rng: np.random.Generator,
    config: SimulationConfig | None = None,
    ue: UserEquipment | None = None,
    mobility_mode: str = "walking",
    max_steps: int = 3600,
    duration_s: int | None = None,
) -> list[TelemetryRecord]:
    """Simulate one traversal of ``trajectory`` and log Table-1 records.

    For open trajectories the pass ends on arrival; closed loops and
    stationary runs end after ``duration_s`` seconds (or ``max_steps``).
    """
    sim = LinkSimulator(env, config=config, rng=rng)
    ue = ue or UserEquipment()
    ue.reset(rng)
    mobility.reset(rng)
    traversal = TraversalState(trajectory=trajectory)
    records: list[TelemetryRecord] = []

    limit = duration_s if duration_s is not None else max_steps
    route_length = trajectory.length_m if trajectory.closed else None
    cfg = sim.config
    for t in range(limit):
        speed = mobility.next_speed_mps(
            rng, s_m=traversal.s_m, route_length_m=route_length
        )
        traversal.advance(speed, 1.0)
        pos = traversal.position
        heading = traversal.heading_deg

        # Background subscribers sharing the panel (Appendix A.1.4); the
        # sampled count is logged as a carrier-side oracle field.
        background = cfg.cell_load.background_ues(rng)
        result = sim.step(
            pos, heading, speed, in_vehicle=mobility.in_vehicle,
            airtime_share=1.0 / (1 + background),
        )

        (meas_x, meas_y), gps_acc = ue.gps.read(pos, rng)
        lat, lon = env.projection.to_latlon(meas_x, meas_y)
        compass, compass_acc = ue.compass.read(heading, rng)
        meas_speed = ue.speedometer.read(speed, rng)
        activity = ue.activity.read(mobility.activity, rng)

        signal = sim.config.signals.report(
            nr_rx_dbm=result.nr_rx_dbm,
            nr_sinr_db=result.sinr_db,
            lte_rx_dbm=sim.lte_rx_dbm(),
            rng=rng,
        )

        if env.panel_survey_available and result.serving_panel is not None:
            # The app derives tower geometry from its *measured* location
            # and compass, as on a real UE -- the survey only supplies the
            # panel's position/orientation.
            panel = result.serving_panel
            measured_pos = (meas_x, meas_y)
            dist = distance(panel.position, measured_pos)
            theta_p = positional_angle(panel.position, panel.bearing_deg,
                                       measured_pos)
            theta_m = mobility_angle(panel.bearing_deg, compass)
        else:
            dist = theta_p = theta_m = float("nan")

        cell_id = (result.serving_panel.panel_id
                   if result.serving_panel is not None else LTE_MACRO_CELL_ID)
        records.append(TelemetryRecord(
            run_id=run_id,
            timestamp_s=t,
            area=env.name,
            trajectory=trajectory.name,
            mobility_mode=mobility_mode,
            latitude=lat,
            longitude=lon,
            gps_accuracy_m=gps_acc,
            detected_activity=activity,
            moving_speed_mps=meas_speed,
            compass_direction_deg=compass,
            compass_accuracy_deg=compass_acc,
            throughput_mbps=result.throughput_mbps,
            radio_type=result.radio_type.value,
            cell_id=cell_id,
            nr_ss_rsrp=signal.nr_ss_rsrp,
            nr_ss_rsrq=signal.nr_ss_rsrq,
            nr_ss_rssi=signal.nr_ss_rssi,
            lte_rsrp=signal.lte_rsrp,
            lte_rsrq=signal.lte_rsrq,
            lte_rssi=signal.lte_rssi,
            horizontal_handoff=int(result.horizontal_handoff),
            vertical_handoff=int(result.vertical_handoff),
            ue_panel_distance_m=dist,
            positional_angle_deg=theta_p,
            mobility_angle_deg=theta_m,
            carrier_load_ues=float(1 + background),
            true_x_m=pos[0],
            true_y_m=pos[1],
            true_heading_deg=heading,
            true_speed_mps=speed,
        ))

        if traversal.finished and duration_s is None:
            break
    if obs.enabled():
        obs.inc("sim.passes_total")
        obs.inc("sim.telemetry_rows_total", len(records))
    return records
