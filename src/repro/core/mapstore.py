"""Downloadable throughput-map bundles -- "Lumos5G in action" (Fig. 4).

The paper envisions UEs downloading, per area, a *throughput map
augmented with ML models* which apps query through an API with their
current context.  :class:`ThroughputMapBundle` is that artifact:

* the area's throughput map cells (pixel grid, mean + count per cell,
  optionally per direction octant);
* a trained GDBT regressor over L+M features, serialized inline;
* a ``predict(pixel_x, pixel_y, heading_deg, speed_mps)`` API with a
  graceful fallback chain (model -> directional cell -> cell -> global
  mean) so the app always gets an estimate.

Bundles serialize to a single JSON document -- exactly the thing a CDN
would hand to Alice's, Bob's, Charlie's and Daisy's phones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro import fstore
from repro.datasets.frame import Table
from repro.ml.gbdt import GBDTRegressor
from repro.ml.preprocessing import cyclic_encode
from repro.ml.serialize import model_from_dict, model_to_dict

BUNDLE_VERSION = 1
N_DIRECTION_BINS = 8


def _octant(heading_deg: float) -> int:
    return int((heading_deg % 360.0) // (360.0 / N_DIRECTION_BINS))


@dataclass
class ThroughputMapBundle:
    """A serializable area bundle: map cells + embedded model."""

    area: str
    cell_size_px: float
    global_mean: float
    #: (px, py) -> [mean, count]
    cells: dict[tuple[int, int], tuple[float, int]]
    #: (px, py, octant) -> [mean, count]
    directional_cells: dict[tuple[int, int, int], tuple[float, int]]
    model: GBDTRegressor | None = None
    min_cell_samples: int = 3

    # -- construction ---------------------------------------------------- #

    @classmethod
    def build(
        cls,
        table: Table,
        area: str,
        cell_size_px: float = 4.0,
        train_model: bool = True,
        n_estimators: int = 150,
        seed: int = 0,
    ) -> "ThroughputMapBundle":
        """Build the bundle from a cleaned campaign table."""
        px = np.floor(np.asarray(table["pixel_x"], dtype=float)
                      / cell_size_px).astype(int)
        py = np.floor(np.asarray(table["pixel_y"], dtype=float)
                      / cell_size_px).astype(int)
        tput = np.asarray(table["throughput_mbps"], dtype=float)
        heading = np.asarray(table["compass_direction_deg"], dtype=float)
        octants = np.asarray([_octant(h) for h in heading])

        cells: dict[tuple[int, int], tuple[float, int]] = {}
        directional: dict[tuple[int, int, int], tuple[float, int]] = {}
        for key in set(zip(px.tolist(), py.tolist())):
            mask = (px == key[0]) & (py == key[1])
            cells[key] = (float(tput[mask].mean()), int(mask.sum()))
            for o in np.unique(octants[mask]):
                sub = mask & (octants == o)
                directional[(key[0], key[1], int(o))] = (
                    float(tput[sub].mean()), int(sub.sum())
                )

        model = None
        if train_model:
            fm = fstore.extract(table, "L+M")
            model = GBDTRegressor(
                n_estimators=n_estimators, max_depth=6, learning_rate=0.1,
                random_state=seed,
            ).fit(fm.X, tput)
        return cls(
            area=area,
            cell_size_px=cell_size_px,
            global_mean=float(tput.mean()),
            cells=cells,
            directional_cells=directional,
            model=model,
        )

    # -- the app-facing API ------------------------------------------------ #

    def predict(
        self,
        pixel_x: float,
        pixel_y: float,
        heading_deg: float = 0.0,
        speed_mps: float = 1.4,
    ) -> float:
        """Expected throughput (Mbps) for a context.

        Uses the embedded model when the query lands on mapped ground;
        off-map queries (where the model would be extrapolating) and
        model-less bundles fall back to the direction-conditioned cell
        mean, then the cell mean, then the area-wide mean -- an estimate
        always comes back.
        """
        key = (int(pixel_x // self.cell_size_px),
               int(pixel_y // self.cell_size_px))
        if self.model is not None and key in self.cells:
            sc = cyclic_encode([heading_deg])[0]
            X = np.asarray([[pixel_x, pixel_y, speed_mps, sc[0], sc[1]]])
            return float(max(self.model.predict(X)[0], 0.0))
        return self.lookup(pixel_x, pixel_y, heading_deg)

    def lookup(
        self, pixel_x: float, pixel_y: float,
        heading_deg: float | None = None,
    ) -> float:
        """Map-only estimate (no model), with the fallback chain."""
        key = (int(pixel_x // self.cell_size_px),
               int(pixel_y // self.cell_size_px))
        if heading_deg is not None:
            dkey = (*key, _octant(heading_deg))
            entry = self.directional_cells.get(dkey)
            if entry and entry[1] >= self.min_cell_samples:
                return entry[0]
        entry = self.cells.get(key)
        if entry and entry[1] >= self.min_cell_samples:
            return entry[0]
        return self.global_mean

    def coverage_fraction(self, points) -> float:
        """Fraction of query points whose cell has map data."""
        hits = 0
        for x, y in points:
            key = (int(x // self.cell_size_px),
                   int(y // self.cell_size_px))
            hits += key in self.cells
        return hits / max(len(points), 1)

    # -- persistence --------------------------------------------------------- #

    def to_json(self) -> str:
        return json.dumps({
            "bundle_version": BUNDLE_VERSION,
            "area": self.area,
            "cell_size_px": self.cell_size_px,
            "global_mean": self.global_mean,
            "cells": [[k[0], k[1], v[0], v[1]]
                      for k, v in sorted(self.cells.items())],
            "directional_cells": [
                [k[0], k[1], k[2], v[0], v[1]]
                for k, v in sorted(self.directional_cells.items())
            ],
            "model": (model_to_dict(self.model)
                      if self.model is not None else None),
        })

    @classmethod
    def from_json(cls, payload: str) -> "ThroughputMapBundle":
        data = json.loads(payload)
        if data.get("bundle_version") != BUNDLE_VERSION:
            raise ValueError("unsupported bundle version")
        return cls(
            area=data["area"],
            cell_size_px=float(data["cell_size_px"]),
            global_mean=float(data["global_mean"]),
            cells={(int(x), int(y)): (float(m), int(n))
                   for x, y, m, n in data["cells"]},
            directional_cells={
                (int(x), int(y), int(o)): (float(m), int(n))
                for x, y, o, m, n in data["directional_cells"]
            },
            model=(model_from_dict(data["model"])
                   if data["model"] is not None else None),
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path) -> "ThroughputMapBundle":
        with open(path) as f:
            return cls.from_json(f.read())
