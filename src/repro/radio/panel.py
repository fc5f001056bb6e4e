"""5G mmWave panels and towers.

Each commercial mmWave tower in the paper's areas carries one to three
*panels* (transceivers on poles) facing different directions.  A panel is
highly directional: its antenna array serves a sector around its boresight,
with gain falling off quickly outside roughly +-60 degrees.  The UE attaches
to (at most) one panel at a time; switching panels is a *horizontal handoff*
and falling back to LTE is a *vertical handoff*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.geo.geometry import positional_angle


@dataclass(frozen=True)
class Panel:
    """A single mmWave transceiver panel.

    Parameters
    ----------
    panel_id:
        Globally unique identifier; surfaces in telemetry as the cell ID
        (``mCid``) the UE is connected to.
    position:
        (x, y) in local meters.
    bearing_deg:
        Boresight compass direction the front face points toward.
    max_range_m:
        Practical coverage range; mmWave deployments reach ~100-300 m.
    beamwidth_deg:
        Half-power sector width of the panel around its boresight.
    tx_power_dbm / max_gain_db:
        Radiated power and peak antenna gain, feeding the link budget.
    """

    panel_id: int
    position: tuple[float, float]
    bearing_deg: float
    max_range_m: float = 250.0
    beamwidth_deg: float = 120.0
    tx_power_dbm: float = 24.0
    max_gain_db: float = 18.0

    def gain_toward_db(self, ue_xy: tuple[float, float]) -> float:
        """Antenna gain toward a UE position (3GPP-style parabolic pattern).

        Gain is maximal on boresight and rolls off quadratically with the
        off-boresight angle, floored at a -30 dB front-to-back ratio, the
        standard sectorized antenna model (3GPP TR 36.942).
        """
        off = positional_angle(self.position, self.bearing_deg, ue_xy)
        attenuation = 12.0 * (off / self.beamwidth_deg) ** 2
        return self.max_gain_db - min(attenuation, 30.0)


@dataclass(frozen=True)
class Tower:
    """A tower site hosting one or more panels (often dual-panel outdoors)."""

    tower_id: int
    panels: tuple[Panel, ...]

    def __post_init__(self) -> None:
        if not self.panels:
            raise ValueError("a tower must host at least one panel")


@dataclass
class PanelDirectory:
    """Lookup table of every panel in an environment.

    This stands in for the exogenous tower/panel location information the
    authors gathered by manually surveying each area; the T feature group
    is computed against it.
    """

    towers: list[Tower] = field(default_factory=list)
    _by_id: dict[int, Panel] = field(default_factory=dict, repr=False)

    def add_tower(self, tower: Tower) -> None:
        for panel in tower.panels:
            if panel.panel_id in self._by_id:
                raise ValueError(f"duplicate panel id {panel.panel_id}")
            self._by_id[panel.panel_id] = panel
        self.towers.append(tower)

    @property
    def panels(self) -> list[Panel]:
        return [p for t in self.towers for p in t.panels]

    def get(self, panel_id: int) -> Panel:
        return self._by_id[panel_id]

    def __contains__(self, panel_id: int) -> bool:
        return panel_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def nearest(self, ue_xy: tuple[float, float]) -> Panel:
        """Panel with the smallest Euclidean distance to the UE."""
        if not self._by_id:
            raise ValueError("panel directory is empty")
        return min(
            self._by_id.values(),
            key=lambda p: math.hypot(
                p.position[0] - ue_xy[0], p.position[1] - ue_xy[1]
            ),
        )
