"""The in-memory sink of the campaign's one pass stream."""

import numpy as np

from repro import obs
from repro.env.areas import build_airport
from repro.sim.collection import CampaignConfig, run_area_campaign
from repro.ue.telemetry import TelemetryRecord

CFG = CampaignConfig(passes_per_trajectory=2, driving_passes=1,
                     stationary_runs=1, stationary_duration_s=20, seed=11)


def assert_tables_identical(a, b):
    """Same columns, dtypes and values (NaN equal to NaN)."""
    assert a.column_names == b.column_names
    assert len(a) == len(b)
    for name in a.column_names:
        x, y = a[name], b[name]
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), name


def test_corrupt_checkpoint_recomputed_in_memory(tmp_path):
    uninterrupted = run_area_campaign(build_airport(), CFG)
    run_area_campaign(build_airport(), CFG, checkpoint_dir=tmp_path)
    parts = sorted(tmp_path.rglob("part*"))
    parts[0].write_bytes(b"garbage")

    obs.set_enabled(True)
    resumed_total = obs.get_registry().counter(
        "resil.checkpoint.passes_resumed_total")
    before = resumed_total.value
    resumed = run_area_campaign(build_airport(), CFG,
                                checkpoint_dir=tmp_path)
    assert_tables_identical(uninterrupted, resumed)
    assert resumed_total.value == before + len(parts) - 1


def test_empty_plan_keeps_schema():
    empty = CampaignConfig(passes_per_trajectory=0, driving_passes=0,
                           stationary_runs=0)
    table = run_area_campaign(build_airport(), empty)
    assert len(table) == 0
    assert table.column_names == TelemetryRecord.field_names()
