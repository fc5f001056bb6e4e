"""Tests for path loss, shadowing, and fading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.propagation import (
    PathLossModel,
    ShadowingProcess,
    SpatialShadowingField,
    fast_fading_db,
    fspl_db,
)


class TestFspl:
    def test_reference_value_at_28ghz(self):
        # FSPL(1 m, 28 GHz) ~ 61.4 dB.
        assert fspl_db(1.0, 28.0) == pytest.approx(61.4, abs=0.2)

    def test_20db_per_decade(self):
        assert fspl_db(100.0) - fspl_db(10.0) == pytest.approx(20.0)

    def test_sub_meter_clamped(self):
        assert fspl_db(0.1) == fspl_db(1.0)


class TestPathLossModel:
    def test_nlos_lossier_than_los(self):
        m = PathLossModel()
        for d in (10.0, 50.0, 200.0):
            assert m.mean_loss_db(d, los=False) > m.mean_loss_db(d, los=True)

    def test_los_exponent_slope(self):
        m = PathLossModel(los_exponent=2.5)
        slope = m.mean_loss_db(100.0, True) - m.mean_loss_db(10.0, True)
        assert slope == pytest.approx(25.0)

    @given(st.floats(1.0, 500.0), st.floats(1.0, 500.0))
    @settings(max_examples=100)
    def test_monotone_in_distance(self, d1, d2):
        m = PathLossModel()
        if d1 > d2:
            d1, d2 = d2, d1
        assert m.mean_loss_db(d1, True) <= m.mean_loss_db(d2, True)

    def test_shadowing_statistics(self):
        m = PathLossModel()
        rng = np.random.default_rng(0)
        samples = [m.sample_loss_db(50.0, True, rng) for _ in range(4000)]
        mean = m.mean_loss_db(50.0, True)
        assert np.mean(samples) == pytest.approx(mean, abs=0.3)
        assert np.std(samples) == pytest.approx(m.los_shadow_sigma_db, rel=0.1)


class TestShadowingProcess:
    def test_slow_movement_is_highly_correlated(self):
        rng = np.random.default_rng(1)
        proc = ShadowingProcess(sigma_db=4.0, decorrelation_distance_m=10.0)
        proc.reset(rng)
        v0 = proc.step(0.1, 1.0, rng)
        v1 = proc.step(0.1, 1.0, rng)
        assert abs(v1 - v0) < 4.0  # far less than an independent redraw

    def test_stationary_variance_preserved(self):
        rng = np.random.default_rng(2)
        proc = ShadowingProcess(sigma_db=4.0, decorrelation_distance_m=10.0)
        proc.reset(rng)
        samples = [proc.step(1.4, 1.0, rng) for _ in range(20000)]
        assert np.std(samples) == pytest.approx(4.0, rel=0.1)

    def test_fast_movement_decorrelates(self):
        rng = np.random.default_rng(3)
        proc = ShadowingProcess(sigma_db=4.0, decorrelation_distance_m=10.0)
        proc.reset(rng)
        xs = np.array([proc.step(50.0, 1.0, rng) for _ in range(5000)])
        corr = np.corrcoef(xs[:-1], xs[1:])[0, 1]
        assert abs(corr) < 0.1


    def test_vector_state_is_scalar_processes_in_order(self):
        """size=P draws the stream of P scalar processes stepped one
        after another, to the bit, and leaves ``rng`` where they do."""
        rng_v, rng_s = np.random.default_rng(8), np.random.default_rng(8)
        vec = ShadowingProcess(sigma_db=0.8, size=5)
        vec.reset(rng_v)
        procs = [ShadowingProcess(sigma_db=0.8) for _ in range(5)]
        for p in procs:
            p.reset(rng_s)
        for speed in (0.0, 1.4, 13.0, 0.3):
            got = vec.step(speed, 1.0, rng_v)
            want = np.array([p.step(speed, 1.0, rng_s) for p in procs])
            assert got.tobytes() == want.tobytes()
            assert rng_v.bit_generator.state == rng_s.bit_generator.state


class TestSpatialShadowingField:
    def test_stack_rows_are_value_db(self):
        fields = [SpatialShadowingField(seed=s) for s in (3, 4, 5)]
        stack = SpatialShadowingField.stack(fields)
        rng = np.random.default_rng(2)
        for x, y in rng.uniform(-400, 400, size=(200, 2)).tolist():
            want = np.array([f.value_db(x, y) for f in fields])
            assert stack.values_db(x, y).tobytes() == want.tobytes()

    def test_deterministic_given_seed(self):
        a = SpatialShadowingField(seed=7)
        b = SpatialShadowingField(seed=7)
        assert a.value_db(12.3, -4.5) == b.value_db(12.3, -4.5)

    def test_different_seeds_differ(self):
        a = SpatialShadowingField(seed=7)
        b = SpatialShadowingField(seed=8)
        assert a.value_db(12.3, -4.5) != b.value_db(12.3, -4.5)

    def test_target_standard_deviation(self):
        field = SpatialShadowingField(sigma_db=3.5, seed=0)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-500, 500, size=(4000, 2))
        vals = [field.value_db(x, y) for x, y in pts]
        assert np.std(vals) == pytest.approx(3.5, rel=0.25)

    def test_smooth_at_short_range(self):
        field = SpatialShadowingField(correlation_length_m=15.0, seed=1)
        v0 = field.value_db(10.0, 10.0)
        v1 = field.value_db(10.5, 10.0)
        assert abs(v1 - v0) < 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpatialShadowingField(sigma_db=-1.0)
        with pytest.raises(ValueError):
            SpatialShadowingField(correlation_length_m=0.0)


class TestFastFading:
    def test_los_fading_is_milder(self):
        rng = np.random.default_rng(4)
        los = [fast_fading_db(True, rng) for _ in range(3000)]
        nlos = [fast_fading_db(False, rng) for _ in range(3000)]
        assert np.std(los) < np.std(nlos)

    def test_mean_near_zero_db_los(self):
        rng = np.random.default_rng(5)
        los = [fast_fading_db(True, rng) for _ in range(6000)]
        assert abs(np.mean(los)) < 1.0
