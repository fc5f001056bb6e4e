"""Tests for multi-horizon Seq2Seq evaluation."""

import numpy as np
import pytest

from repro.core.pipeline import Lumos5G, ModelConfig


@pytest.fixture(scope="module")
def framework(request):
    from repro.datasets.generate import generate_datasets

    data = generate_datasets(areas=("Airport",), passes_per_trajectory=6,
                             seed=31, include_global=False, use_cache=False)
    cfg = ModelConfig(seq2seq_hidden=16, seq2seq_epochs=6, window_stride=4,
                      input_len=10)
    return Lumos5G(data, config=cfg, seed=0)


class TestMultiHorizon:
    def test_returns_one_error_per_step(self, framework):
        errors = framework.evaluate_multi_horizon("Airport", "L+M",
                                                  output_len=5)
        assert sorted(errors) == [1, 2, 3, 4, 5]
        assert all(np.isfinite(v) and v > 0 for v in errors.values())

    def test_longer_horizons_harder(self, framework):
        errors = framework.evaluate_multi_horizon("Airport", "L+M",
                                                  output_len=8)
        assert errors[8] > errors[1]

    def test_one_step_horizon_is_the_seq2seq_cell(self, framework):
        """Both Seq2Seq entry points fit through one body: at the
        config's own horizon they score the same model exactly."""
        errors = framework.evaluate_multi_horizon(
            "Airport", "L+M", output_len=framework.config.output_len)
        cell = framework.evaluate_regression("Airport", "L+M", "seq2seq")
        assert errors[1] == cell.mae

    def test_rejects_tiny_datasets(self):
        from repro.datasets.frame import Table

        tiny = Table({
            "pixel_x": np.arange(30), "pixel_y": np.arange(30),
            "throughput_mbps": np.ones(30), "run_id": np.zeros(30),
            "moving_speed_mps": np.ones(30),
            "compass_direction_deg": np.zeros(30),
        })
        fw = Lumos5G({"X": tiny}, config=ModelConfig(input_len=50), seed=0)
        with pytest.raises(ValueError):
            fw.evaluate_multi_horizon("X", "L", output_len=5)
