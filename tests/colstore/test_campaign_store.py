"""run_campaign(store_dir=...): store path parity with the in-memory path."""

import dataclasses

import numpy as np
import pytest

from repro.colstore import ChunkReader, Manifest
from repro.env.areas import build_airport
from repro.sim.collection import (
    CampaignConfig,
    run_area_campaign,
    run_campaign,
)
from repro.ue.telemetry import TelemetryRecord

FLOAT_FIELDS = {f.name for f in dataclasses.fields(TelemetryRecord)
                if f.type == "float"}

CFG = CampaignConfig(passes_per_trajectory=2, driving_passes=1,
                     stationary_runs=1, stationary_duration_s=20, seed=11)


@pytest.fixture(scope="module")
def in_memory():
    return run_area_campaign(build_airport(), CFG)


def assert_store_matches_table(reader, table):
    got = reader.read_table()
    assert len(got) == len(table)
    assert got.column_names == table.column_names
    for name in table.column_names:
        a = np.asarray(got[name])
        b = np.asarray(table[name])
        if a.dtype != b.dtype:
            # The one allowed gap: the store pins columns to their
            # TelemetryRecord annotation, and a float-annotated column
            # the simulator fills with Python ints is int64 in memory.
            assert (name in FLOAT_FIELDS and b.dtype == np.int64
                    and a.dtype == np.float64), (name, a.dtype, b.dtype)
            b = b.astype(np.float64)
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name


class TestStoreParity:
    def test_store_path_bit_identical_to_in_memory(self, tmp_path,
                                                   in_memory):
        reader = run_area_campaign(build_airport(), CFG,
                                   store_dir=tmp_path / "s",
                                   chunk_rows=150)
        assert isinstance(reader, ChunkReader)
        assert reader.n_chunks > 1
        assert_store_matches_table(reader, in_memory)

    def test_worker_invariance(self, tmp_path, in_memory):
        serial = run_area_campaign(build_airport(), CFG,
                                   store_dir=tmp_path / "serial",
                                   chunk_rows=150, workers=1)
        parallel = run_area_campaign(build_airport(), CFG,
                                     store_dir=tmp_path / "par",
                                     chunk_rows=150, workers=2)
        assert serial.manifest.digest() == parallel.manifest.digest()

    def test_chunk_rows_invariance_of_values(self, tmp_path, in_memory):
        small = run_area_campaign(build_airport(), CFG,
                                  store_dir=tmp_path / "small",
                                  chunk_rows=64)
        assert_store_matches_table(small, in_memory)


class TestCheckpointComposition:
    def test_resume_produces_identical_store(self, tmp_path, in_memory):
        fresh = run_area_campaign(
            build_airport(), CFG, store_dir=tmp_path / "s1",
            checkpoint_dir=tmp_path / "ckpt",
        )
        # Second run resumes every pass from its checkpoint...
        resumed = run_area_campaign(
            build_airport(), CFG, store_dir=tmp_path / "s2",
            checkpoint_dir=tmp_path / "ckpt",
        )
        assert fresh.manifest.digest() == resumed.manifest.digest()
        # ...and both match the no-checkpoint store byte for byte.
        plain = run_area_campaign(build_airport(), CFG,
                                  store_dir=tmp_path / "s3")
        assert plain.manifest.digest() == fresh.manifest.digest()

    def test_corrupt_checkpoint_recomputed(self, tmp_path, in_memory):
        run_area_campaign(
            build_airport(), CFG, store_dir=tmp_path / "s1",
            checkpoint_dir=tmp_path / "ckpt",
        )
        # Corrupt one checkpoint part; the consume loop re-simulates it.
        part = sorted((tmp_path / "ckpt").rglob("part*"))[0]
        part.write_bytes(b"garbage")
        resumed = run_area_campaign(
            build_airport(), CFG, store_dir=tmp_path / "s2",
            checkpoint_dir=tmp_path / "ckpt",
        )
        assert_store_matches_table(resumed, in_memory)


class TestMultiArea:
    def test_run_campaign_store_subdirs(self, tmp_path):
        out = run_campaign(["Airport"], config=CFG,
                           store_dir=tmp_path / "all", chunk_rows=200)
        assert set(out) == {"Airport"}
        assert isinstance(out["Airport"], ChunkReader)
        assert Manifest.exists(tmp_path / "all" / "Airport")

    def test_store_meta_records_campaign(self, tmp_path):
        reader = run_area_campaign(build_airport(), CFG,
                                   store_dir=tmp_path / "s")
        meta = reader.manifest.meta
        assert meta["kind"] == "campaign_raw"
        assert meta["area"] == "Airport"
        assert "campaign_fingerprint" in meta
