"""Tests for the public Lumos5G dataset loader."""

import numpy as np
import pytest

from repro import fstore
from repro.datasets.cleaning import pixelize
from repro.datasets.public import load_public_dataset


def write_public_csv(path, run_nums, n_per_run=20, full=True):
    """Write a synthetic public-format CSV."""
    lines = []
    header = ["run_num", "seq_num", "latitude", "longitude",
              "movingSpeed", "compassDirection", "nrStatus",
              "lte_rsrp", "nr_ssRsrp", "Throughput", "mobility_mode",
              "trajectory_direction", "tower_id", "lte_rssi",
              "lte_rsrq", "nr_ssRsrq", "nr_ssRssi"]
    if not full:
        header = ["run_num", "latitude", "longitude", "Throughput"]
    lines.append(",".join(header))
    rng = np.random.default_rng(0)
    for run in run_nums:
        for t in range(n_per_run):
            row = {
                "run_num": run, "seq_num": t,
                "latitude": 44.97 + t * 1e-5,
                "longitude": -93.26,
                "movingSpeed": 1.4, "compassDirection": 10.0,
                "nrStatus": "CONNECTED", "lte_rsrp": -90,
                "nr_ssRsrp": -80, "Throughput": float(rng.uniform(0, 1500)),
                "mobility_mode": "walking",
                "trajectory_direction": "NB", "tower_id": 55,
                "lte_rssi": -70, "lte_rsrq": -10, "nr_ssRsrq": -11,
                "nr_ssRssi": -72,
            }
            lines.append(",".join(str(row[h]) for h in header))
    path.write_text("\n".join(lines))


class TestLoader:
    def test_single_file(self, tmp_path):
        f = tmp_path / "loop.csv"
        write_public_csv(f, [0, 1])
        table = load_public_dataset(f)
        assert len(table) == 40
        assert set(np.unique(table["radio_type"])) == {"5G"}
        assert "throughput_mbps" in table

    def test_directory_merges_and_offsets_runs(self, tmp_path):
        write_public_csv(tmp_path / "a.csv", [0, 1])
        write_public_csv(tmp_path / "b.csv", [0])
        table = load_public_dataset(tmp_path)
        assert len(table) == 60
        assert len(np.unique(table["run_id"])) == 3

    def test_minimal_columns_filled_with_defaults(self, tmp_path):
        f = tmp_path / "minimal.csv"
        write_public_csv(f, [0], full=False)
        table = load_public_dataset(f)
        assert "moving_speed_mps" in table
        assert "compass_direction_deg" in table
        # Per-run seq counter synthesized.
        assert list(np.asarray(table["timestamp_s"], dtype=float)[:3]) \
            == [0.0, 1.0, 2.0]

    def test_missing_required_columns_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="missing required"):
            load_public_dataset(f)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_public_dataset(tmp_path)

    def test_feeds_the_feature_extractor(self, tmp_path):
        """End-to-end: public CSV -> pixelize -> L+M+C features."""
        f = tmp_path / "loop.csv"
        write_public_csv(f, [0, 1], n_per_run=30)
        table = pixelize(load_public_dataset(f))
        fm = fstore.extract(table, "L+M+C")
        assert fm.X.shape[0] == 60
        assert np.isfinite(fm.X[:, fm.names.index("pixel_x")]).all()
