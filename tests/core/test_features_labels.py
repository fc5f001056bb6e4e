"""Tests for feature groups, labels, and windowing."""

import numpy as np
import pytest

from repro import fstore
from repro.core.features import (
    COMBINATIONS,
    GROUP_MEMBERS,
    parse_combination,
    requires_panel_survey,
)
from repro.core.labels import (
    DEFAULT_CLASSES,
    ThroughputClasses,
    classify_throughput,
)
from repro.core.windows import build_windows


class TestParseCombination:
    def test_single(self):
        assert parse_combination("L") == ["L"]

    def test_composed(self):
        assert parse_combination("T+M+C") == ["T", "M", "C"]

    def test_paper_combinations_all_valid(self):
        for spec in COMBINATIONS:
            parse_combination(spec)

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            parse_combination("L+Z")

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            parse_combination("L+L")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_combination(" + ")

    def test_panel_survey_requirement(self):
        assert requires_panel_survey("T+M")
        assert not requires_panel_survey("L+M+C")

    def test_table6_membership_documented(self):
        assert set(GROUP_MEMBERS) == {"L", "M", "T", "C"}
        assert "past_throughput" in GROUP_MEMBERS["C"]


class TestFeatureExtractor:
    """Table-6 group materialization through ``fstore.extract``."""

    def test_location_features(self, airport_dataset):
        fm = fstore.extract(airport_dataset, "L")
        assert fm.names == ("pixel_x", "pixel_y")
        assert fm.X.shape == (len(airport_dataset), 2)

    def test_mobility_uses_cyclic_compass(self, airport_dataset):
        fm = fstore.extract(airport_dataset, "M")
        assert "compass_sin" in fm.names and "compass_cos" in fm.names
        sin_idx = fm.names.index("compass_sin")
        cos_idx = fm.names.index("compass_cos")
        norms = np.hypot(fm.X[:, sin_idx], fm.X[:, cos_idx])
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_tower_features_present(self, airport_dataset):
        fm = fstore.extract(airport_dataset, "T")
        assert "ue_panel_distance" in fm.names
        assert fm.X.shape[1] == 4

    def test_connection_lags_do_not_leak_future(self, airport_dataset):
        fm = fstore.extract(airport_dataset, "C", past_throughput_lags=2)
        lag1 = fm.X[:, fm.names.index("past_throughput_1")]
        tput = np.asarray(airport_dataset["throughput_mbps"], dtype=float)
        run_ids = np.asarray(airport_dataset["run_id"])
        # Within a run, lag-1 at row i equals throughput at row i-1.
        run0 = run_ids == run_ids[0]
        idx = np.nonzero(run0)[0]
        np.testing.assert_allclose(lag1[idx[1:]], tput[idx[:-1]])
        # First row of a run repeats its own first value (no cross-run leak).
        assert lag1[idx[0]] == tput[idx[0]]

    def test_combination_concatenates_in_order(self, airport_dataset):
        lm = fstore.extract(airport_dataset, "L+M")
        assert lm.names[:2] == ("pixel_x", "pixel_y")
        assert lm.X.shape[1] == 5

    def test_unavailable_signal_becomes_nan(self, airport_dataset):
        fm = fstore.extract(airport_dataset, "C")
        col = fm.X[:, fm.names.index("nr_ss_rsrp")]
        # The sim produces some LTE seconds -> some missing NR reports.
        assert np.isnan(col).any()
        assert np.isfinite(col).any()

    def test_lag_validation(self, airport_dataset):
        with pytest.raises(ValueError, match="throughput lag"):
            fstore.extract(airport_dataset, "C", past_throughput_lags=0)


class TestThroughputClasses:
    def test_paper_thresholds(self):
        labels = classify_throughput([100.0, 500.0, 900.0])
        assert labels.tolist() == ["low", "medium", "high"]

    def test_boundaries_inclusive_upward(self):
        labels = classify_throughput([300.0, 700.0])
        assert labels.tolist() == ["medium", "high"]

    def test_class_index(self):
        idx = DEFAULT_CLASSES.class_index([0.0, 400.0, 2000.0])
        assert idx.tolist() == [0, 1, 2]

    def test_low_class_name(self):
        assert DEFAULT_CLASSES.low_class == "low"

    def test_custom_thresholds(self):
        classes = ThroughputClasses(thresholds=(100.0,),
                                    names=("bad", "good"))
        assert classes.classify([50.0, 150.0]).tolist() == ["bad", "good"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ThroughputClasses(thresholds=(700.0, 300.0))
        with pytest.raises(ValueError):
            ThroughputClasses(thresholds=(300.0,),
                              names=("a", "b", "c"))


class TestWindows:
    def _inputs(self):
        n = 50
        features = np.arange(n, dtype=float)[:, None]
        target = np.arange(n, dtype=float) * 10
        runs = np.array([0] * 25 + [1] * 25)
        return features, target, runs

    def test_shapes(self):
        f, t, r = self._inputs()
        ws = build_windows(f, t, r, input_len=5, output_len=2)
        assert ws.X.shape[1:] == (5, 2)  # feature + past-target channel
        assert ws.y.shape[1] == 2

    def test_no_window_crosses_runs(self):
        f, t, r = self._inputs()
        ws = build_windows(f, t, r, input_len=5, output_len=1)
        # Feature channel 0 is the row index; windows must be contiguous
        # and within one run's index range.
        for window, run in zip(ws.X, ws.run_ids):
            rows = window[:, 0]
            assert np.all(np.diff(rows) == 1.0)
            lo, hi = (0, 24) if run == 0 else (25, 49)
            assert lo <= rows.min() and rows.max() <= hi

    def test_target_alignment(self):
        f, t, r = self._inputs()
        ws = build_windows(f, t, r, input_len=4, output_len=1)
        np.testing.assert_allclose(ws.y[:, 0], t[ws.target_rows])

    def test_past_target_channel(self):
        f, t, r = self._inputs()
        ws = build_windows(f, t, r, input_len=3, output_len=1)
        # Second channel of the last input step is target at t-1.
        np.testing.assert_allclose(
            ws.X[:, -1, 1], t[ws.target_rows - 1]
        )

    def test_stride(self):
        f, t, r = self._inputs()
        dense = build_windows(f, t, r, input_len=5, stride=1)
        sparse = build_windows(f, t, r, input_len=5, stride=3)
        assert len(sparse) < len(dense)

    def test_short_runs_produce_no_windows(self):
        f = np.zeros((4, 1))
        t = np.zeros(4)
        r = np.zeros(4)
        ws = build_windows(f, t, r, input_len=10)
        assert len(ws) == 0

    def test_validation(self):
        f, t, r = self._inputs()
        with pytest.raises(ValueError):
            build_windows(f, t[:-1], r)
        with pytest.raises(ValueError):
            build_windows(f, t, r, input_len=0)
