"""Tests for quantile gradient boosting."""

from functools import partial

import numpy as np
import pytest

from repro import obs
from repro.ml.gbdt import GBDTClassifier, GBDTQuantileRegressor, GBDTRegressor
from repro.ml.tree import FeatureBinner


def heteroscedastic_data(n=3000, seed=0):
    """y ~ N(2x, (0.5 + x)^2): both mean and spread depend on x."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 4.0, n)
    y = 2.0 * x + rng.normal(0.0, 0.5 + x, n)
    return x[:, None], y


class TestQuantileGBDT:
    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            GBDTQuantileRegressor(quantile=0.0)
        with pytest.raises(ValueError):
            GBDTQuantileRegressor(quantile=1.2)

    def test_coverage_matches_alpha(self):
        X, y = heteroscedastic_data()
        for alpha in (0.1, 0.5, 0.9):
            model = GBDTQuantileRegressor(
                quantile=alpha, n_estimators=80, max_depth=3,
                learning_rate=0.1, random_state=0,
            ).fit(X[:2000], y[:2000])
            pred = model.predict(X[2000:])
            coverage = float(np.mean(y[2000:] <= pred))
            assert coverage == pytest.approx(alpha, abs=0.07), alpha

    def test_quantiles_ordered(self):
        X, y = heteroscedastic_data(seed=1)
        lo = GBDTQuantileRegressor(quantile=0.1, n_estimators=60,
                                   random_state=0).fit(X, y).predict(X)
        hi = GBDTQuantileRegressor(quantile=0.9, n_estimators=60,
                                   random_state=0).fit(X, y).predict(X)
        assert np.mean(lo <= hi + 1e-9) > 0.97

    def test_captures_heteroscedastic_spread(self):
        """The q90-q10 band must widen where the noise is larger."""
        X, y = heteroscedastic_data(seed=2)
        lo = GBDTQuantileRegressor(quantile=0.1, n_estimators=60,
                                   random_state=0).fit(X, y)
        hi = GBDTQuantileRegressor(quantile=0.9, n_estimators=60,
                                   random_state=0).fit(X, y)
        narrow_x = np.full((100, 1), 0.3)
        wide_x = np.full((100, 1), 3.7)
        band_narrow = float(np.mean(hi.predict(narrow_x)
                                    - lo.predict(narrow_x)))
        band_wide = float(np.mean(hi.predict(wide_x) - lo.predict(wide_x)))
        assert band_wide > 1.5 * band_narrow

    def test_median_close_to_mean_for_symmetric_noise(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(1000, 1))
        y = 3.0 * X[:, 0] + rng.normal(0, 0.1, 1000)
        med = GBDTQuantileRegressor(quantile=0.5, n_estimators=60,
                                    random_state=0).fit(X, y).predict(X)
        assert float(np.mean(np.abs(med - 3.0 * X[:, 0]))) < 0.15

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GBDTQuantileRegressor().predict(np.ones((2, 1)))


class TestSubsampleAndObs:
    """``subsample`` used to be validated but silently ignored by the
    quantile fit loop; these pin the stochastic-boosting behaviour and
    the per-round obs instrumentation every GBDT family shares."""

    def test_subsample_changes_the_model(self):
        X, y = heteroscedastic_data(seed=4)
        kwargs = dict(quantile=0.5, n_estimators=20, random_state=0)
        full = GBDTQuantileRegressor(**kwargs).fit(X, y)
        sub = GBDTQuantileRegressor(subsample=0.6, **kwargs).fit(X, y)
        assert not np.array_equal(full.predict(X), sub.predict(X))

    def test_subsample_deterministic_given_seed(self):
        X, y = heteroscedastic_data(n=800, seed=5)
        kwargs = dict(quantile=0.5, n_estimators=15, subsample=0.5,
                      random_state=3)
        a = GBDTQuantileRegressor(**kwargs).fit(X, y).predict(X)
        b = GBDTQuantileRegressor(**kwargs).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_subsample_keeps_coverage(self):
        X, y = heteroscedastic_data(seed=6)
        model = GBDTQuantileRegressor(
            quantile=0.9, n_estimators=80, max_depth=3, learning_rate=0.1,
            subsample=0.7, random_state=0,
        ).fit(X[:2000], y[:2000])
        coverage = float(np.mean(y[2000:] <= model.predict(X[2000:])))
        assert coverage == pytest.approx(0.9, abs=0.08)

    @pytest.mark.parametrize("family,entry", [
        (family, entry)
        for family in ("regressor", "quantile", "classifier")
        for entry in ("fit", "fit_more", "fit_binned_stream-1",
                      "fit_binned_stream-3", "fit_more_binned_stream")
        if family != "quantile" or entry in ("fit", "fit_more")
    ])
    def test_per_round_obs_instrumentation(self, family, entry):
        """Every entry point of every family records each of its ``n``
        rounds exactly once: the boosting driver has one round site."""
        obs.set_enabled(True)
        reg = obs.get_registry()
        X, y = heteroscedastic_data(n=500, seed=7)
        if family == "classifier":
            y = np.where(y > np.median(y), "high", "low")
        make = {"regressor": GBDTRegressor,
                "quantile": partial(GBDTQuantileRegressor, quantile=0.5),
                "classifier": GBDTClassifier}[family]
        binner = FeatureBinner(256).fit(X)
        n_chunks = 1 if entry.endswith("-1") else 3
        parts = list(zip(np.array_split(binner.transform(X), n_chunks),
                         np.array_split(y, n_chunks)))

        def chunks():
            return iter(parts)

        if entry == "fit_more":
            model = make(n_estimators=2, random_state=0).fit(X, y)
        elif entry == "fit_more_binned_stream":
            model = make(n_estimators=2, random_state=0).fit_binned_stream(
                chunks, binner)
        rounds_before = reg.counter("gbdt.rounds_total").value
        timings_before = reg.histogram("gbdt.round_s").count
        if entry == "fit":
            make(n_estimators=7, random_state=0).fit(X, y)
        elif entry == "fit_more":
            model.fit_more(7, X, y)
        elif entry == "fit_more_binned_stream":
            model.fit_more_binned_stream(7, chunks)
        else:
            make(n_estimators=7, random_state=0).fit_binned_stream(
                chunks, binner)
        assert reg.counter("gbdt.rounds_total").value - rounds_before == 7
        assert reg.histogram("gbdt.round_s").count - timings_before == 7
        loss = reg.gauge("gbdt.train_loss").value
        assert np.isfinite(loss) and loss >= 0.0

    def test_obs_disabled_records_nothing(self):
        obs.set_enabled(False)
        reg = obs.get_registry()
        rounds_before = reg.counter("gbdt.rounds_total").value
        X, y = heteroscedastic_data(n=300, seed=8)
        GBDTQuantileRegressor(quantile=0.5, n_estimators=3,
                              random_state=0).fit(X, y)
        assert reg.counter("gbdt.rounds_total").value == rounds_before
