"""Dynamic blockage sources: the user's body and vehicle penetration.

The paper attributes two of its strongest mobility effects to blockage:

* **Self-body blockage** -- for a hand-held phone, walking *away* from a
  panel (mobility angle theta_m near 0) puts the user's body between the UE
  and the panel, forcing a NLoS reflective path (Sec. 4.4).  Measured body
  loss at 28 GHz is on the order of 15-25 dB (Zhao et al.).
* **Vehicle penetration** -- while driving, the signal must pass through
  the windshield/body of the car; beyond ~5 km/h the paper sees the median
  throughput collapse from ~557 Mbps to 60-164 Mbps (Sec. 4.6).  Measured
  vehicle penetration loss at mmWave is ~15-25 dB, and at speed the beam
  tracking loop also struggles, adding a speed-dependent penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BodyBlockageModel:
    """Loss from the user's own body as a function of mobility angle.

    The loss is maximal when the UE moves in the panel's facing direction
    (theta_m = 0: body between phone and panel for a phone held in front of
    a walking user) and negligible when moving head-on toward the panel
    (theta_m = 180).  A raised-cosine ramp between the two extremes keeps
    the transition smooth, which matches the gradual trend across theta_m
    bins in Fig. 8.
    """

    max_loss_db: float = 18.0
    applies_when_driving: bool = False

    def applies(self, driving: bool) -> bool:  # windshield mount: no body
        return not driving or self.applies_when_driving

    def loss_db(self, mobility_angle_deg: float, driving: bool = False) -> float:
        if not self.applies(driving):
            return 0.0
        # Fold theta_m into [0, 180]: 0 = moving with panel facing direction.
        folded = mobility_angle_deg % 360.0
        if folded > 180.0:
            folded = 360.0 - folded
        return self.max_loss_db * 0.5 * (1.0 + math.cos(math.radians(folded)))


@dataclass(frozen=True)
class VehiclePenetrationModel:
    """Loss from the vehicle body plus speed-dependent beam-tracking penalty.

    ``base_loss_db`` applies whenever the UE is inside a vehicle.  Above
    ``speed_threshold_kmph`` an additional penalty grows with speed,
    capturing degraded beam tracking/handoff churn at driving speeds; this
    reproduces the sharp walking-vs-driving asymmetry of Fig. 14 (walking
    speeds never cross the threshold).
    """

    base_loss_db: float = 14.0
    speed_threshold_kmph: float = 5.0
    tracking_loss_db_per_kmph: float = 0.5
    max_tracking_loss_db: float = 16.0

    def loss_db(self, speed_kmph: float, in_vehicle: bool) -> float:
        if not in_vehicle:
            return 0.0
        loss = self.base_loss_db
        if speed_kmph > self.speed_threshold_kmph:
            extra = self.tracking_loss_db_per_kmph * (
                speed_kmph - self.speed_threshold_kmph
            )
            loss += min(extra, self.max_tracking_loss_db)
        return loss


@dataclass(frozen=True)
class PedestrianBlockageModel:
    """Random transient blockage from passers-by and street clutter.

    Each second an independent blockage event occurs with a small
    probability, imposing a deep fade.  This contributes the residual
    "uncontrollable" +-200 Mbps fluctuation the paper reports even for a
    stationary UE, and caps how predictable throughput can ever be.
    """

    event_probability: float = 0.05
    loss_db: float = 10.0

    def sample_loss_db(self, rng) -> float:
        return self.loss_db if rng.random() < self.event_probability else 0.0
