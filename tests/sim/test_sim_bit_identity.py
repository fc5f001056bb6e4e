"""Pinned simulator digests: the link-budget step must not move one bit.

Every digest below was taken from the per-panel simulator before the
step was compiled over precompiled panel x obstacle geometry.  Each case
drives a different branch of ``LinkSimulator.step`` (walking, driving
with body loss off, beam mode, seasonal foliage, several simulators on
one shared ``rng``, several UEs in lock-step) or a different consumer
(cleaned datasets, a columnar store manifest).  A mismatch means the
simulator's output changed; the digests are never regenerated to make
a refactor pass.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets.generate import generate_datasets
from repro.env.areas import build_area
from repro.mobility.models import DrivingModel, WalkingModel
from repro.mobility.trajectory import Trajectory
from repro.radio.beams import BeamCodebook
from repro.sim.collection import (
    CampaignConfig,
    run_area_campaign,
    run_congestion_experiment,
)
from repro.sim.multi import MultiUeSimulator, UeSpec
from repro.sim.simulator import SimulationConfig, simulate_pass
from repro.ue.telemetry import TelemetryRecord

PINNED = {
    "generate_seed3":
        "1e5045d274e14392dc2aafd0faee8884353c3768f0302afd552aa342a9ab9d71",
    "generate_seed2020":
        "cd4fab5748728f7a43cdd963361f9fbf7f6e455f04aa619b576f91c17ae059cd",
    "store_manifest":
        "9fdcccd849d7e8379b751fea7327a1c771eac4d8c9f1c5f8d298ecd97248867b",
    "multi_ue":
        "935329e86e77f676274aed197ff5f810f9f2db5e4e56c29d0b46eab12b66cdc4",
    "contention":
        "88da9a685aa21b727fc33d87d99eb0eba19d79f91742ff991a4bb90e02d0f40a",
    "beam_mode":
        "70bf949643ba6464c91429c7a8b98ab5acd5950290326347b089e53d7b12f542",
    "driving":
        "2f5fd87f466e8628433751a464d66b22dd119374b8b763bbcae5dea24697d603",
    "seasonal_foliage":
        "444aaf74bbcd6b688bf6863af4ae8dd3e319968c64ccbe601d0e1d95302a4fac",
}


def _small_campaign(seed: int) -> CampaignConfig:
    return CampaignConfig(
        passes_per_trajectory=1, driving_passes=1, stationary_runs=1,
        stationary_duration_s=10, seed=seed,
    )


def _hash_arrays(named) -> str:
    h = hashlib.sha256()
    for name, arr in named:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _hash_tables(tables) -> str:
    return _hash_arrays(
        (f"{area}.{col}", tables[area][col])
        for area in sorted(tables)
        for col in tables[area].column_names
    )


def _hash_records(records) -> str:
    return _hash_arrays(
        (f, np.asarray([getattr(r, f) for r in records]))
        for f in TelemetryRecord.field_names()
    )


def _pass(area, trajectory, mobility, seed, config=None, **kw):
    env = build_area(area)
    return simulate_pass(env, env.trajectories[trajectory], mobility, 0,
                         np.random.default_rng(seed), config=config, **kw)


def _digest(case: str, tmp_path) -> str:
    if case.startswith("generate_seed"):
        seed = int(case[len("generate_seed"):])
        return _hash_tables(generate_datasets(
            areas=("Airport", "Intersection", "Loop"),
            campaign=_small_campaign(seed), use_cache=False, workers=1,
        ))
    if case == "store_manifest":
        reader = run_area_campaign(
            build_area("Airport"), _small_campaign(5), workers=1,
            store_dir=tmp_path / "store", chunk_rows=128,
        )
        return reader.manifest.digest()
    if case == "multi_ue":
        env = build_area("Airport")
        parked = Trajectory("spot", ((0.0, 25.0), (0.0, 25.01)))
        specs = [
            UeSpec("walker", env.trajectories["NB"], WalkingModel()),
            UeSpec("rider", env.trajectories["SB"], DrivingModel(),
                   start_s=5),
            UeSpec("parked", parked, WalkingModel(), start_s=2),
        ]
        traces = MultiUeSimulator(env, specs, seed=12).run(60)
        return _hash_arrays(
            (f"{name}.{attr}", np.asarray(
                [np.nan if v is None else v
                 for v in getattr(traces[name], attr)], dtype=float)
             if attr == "serving_panel" else
             np.asarray(getattr(traces[name], attr)))
            for name in sorted(traces)
            for attr in ("throughput_mbps", "radio_type", "serving_panel",
                         "position", "speed_mps")
        )
    if case == "contention":
        series = run_congestion_experiment(n_ues=3, stagger_s=8, tail_s=10,
                                           seed=21)
        return _hash_arrays((k, np.asarray(series[k])) for k in sorted(series))
    if case == "beam_mode":
        return _hash_records(_pass(
            "Airport", "NB", WalkingModel(), 31,
            SimulationConfig(beams=BeamCodebook(n_beams=8)),
        ))
    if case == "driving":
        return _hash_records(_pass("Loop", "LOOP-CW", DrivingModel(), 41,
                                   duration_s=120))
    if case == "seasonal_foliage":
        return _hash_records(_pass(
            "Intersection", sorted(build_area("Intersection").trajectories)[0],
            WalkingModel(), 51, SimulationConfig(seasonal_foliage_db=4.5),
        ))
    raise KeyError(case)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_digest(case, tmp_path):
    assert _digest(case, tmp_path) == PINNED[case]
