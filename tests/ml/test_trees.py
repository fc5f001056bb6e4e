"""Tests for histogram binning, trees, GBDT and random forests."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GBDTClassifier, GBDTRegressor, softmax
from repro.ml.metrics import accuracy, mae
from repro.ml.tree import (
    DecisionTreeRegressor,
    FeatureBinner,
    HistogramTree,
    TreeParams,
)


def toy_regression(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 4))
    y = (2.0 * X[:, 0] + np.where(X[:, 1] > 0, 3.0, -3.0)
         + 0.1 * rng.normal(size=n))
    return X, y


class TestFeatureBinner:
    def test_codes_fit_in_uint8(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        codes = FeatureBinner().fit_transform(X)
        assert codes.dtype == np.uint8

    def test_binning_preserves_order(self):
        X = np.linspace(0, 1, 100)[:, None]
        codes = FeatureBinner(max_bins=16).fit_transform(X)[:, 0]
        assert all(b >= a for a, b in zip(codes, codes[1:]))

    def test_nan_goes_to_bin_zero(self):
        X = np.array([[1.0], [2.0], [np.nan]])
        binner = FeatureBinner(max_bins=4).fit(X)
        codes = binner.transform(X)
        assert codes[2, 0] == 0

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            FeatureBinner(max_bins=1)
        with pytest.raises(ValueError):
            FeatureBinner(max_bins=1000)

    def test_constant_feature_single_bin(self):
        X = np.ones((50, 1))
        binner = FeatureBinner().fit(X)
        assert binner.n_bins(0) == 1

    def test_n_bins_vector_matches_per_feature(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([rng.normal(size=200), np.ones(200)])
        binner = FeatureBinner(max_bins=16).fit(X)
        n_bins = binner.n_bins_
        assert n_bins.tolist() == [binner.n_bins(0), binner.n_bins(1)]
        assert n_bins[1] == 1  # constant feature
        with pytest.raises(RuntimeError):
            FeatureBinner().n_bins_


class TestHistogramTree:
    def test_learns_step_function(self):
        X = np.linspace(0, 1, 400)[:, None]
        y = np.where(X[:, 0] > 0.5, 10.0, -10.0)
        binner = FeatureBinner().fit(X)
        tree = HistogramTree(TreeParams(max_depth=2))
        tree.fit(binner.transform(X), y[:, None], np.ones((400, 1)))
        pred = tree.predict_binned(binner.transform(X))[:, 0]
        assert mae(y, pred) < 0.5

    def test_depth_limit_respected(self):
        X, y = toy_regression(500)
        binner = FeatureBinner().fit(X)
        tree = HistogramTree(TreeParams(max_depth=3))
        tree.fit(binner.transform(X), y[:, None], np.ones((len(y), 1)))
        assert tree.depth <= 3

    def test_min_samples_leaf(self):
        X, y = toy_regression(300)
        binner = FeatureBinner().fit(X)
        tree = HistogramTree(TreeParams(max_depth=10, min_samples_leaf=50))
        tree.fit(binner.transform(X), y[:, None], np.ones((len(y), 1)))
        leaf_sizes = tree.n_samples[tree.feature < 0]
        assert min(leaf_sizes) >= 50

    def test_pure_target_yields_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(100, 2))
        y = np.zeros((100, 1))
        binner = FeatureBinner().fit(X)
        tree = HistogramTree(TreeParams())
        tree.fit(binner.transform(X), y, np.ones_like(y))
        assert tree.n_leaves == 1

    def test_feature_gain_attribution(self):
        X, y = toy_regression(1000)
        binner = FeatureBinner().fit(X)
        tree = HistogramTree(TreeParams(max_depth=4))
        tree.fit(binner.transform(X), y[:, None], np.ones((len(y), 1)))
        # Features 0 and 1 carry the signal; 2 and 3 are noise.
        gains = tree.feature_gain_
        assert gains[0] + gains[1] > 10 * (gains[2] + gains[3])


class TestDecisionTree:
    def test_fits_nonlinear_function(self):
        X, y = toy_regression()
        model = DecisionTreeRegressor(max_depth=8).fit(X[:1500], y[:1500])
        err = mae(y[1500:], model.predict(X[1500:]))
        assert err < 1.0

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.ones((1, 2)))


class TestGBDTRegressor:
    def test_beats_single_tree(self):
        X, y = toy_regression()
        tree = DecisionTreeRegressor(max_depth=3).fit(X[:1500], y[:1500])
        gbdt = GBDTRegressor(n_estimators=80, max_depth=3).fit(
            X[:1500], y[:1500]
        )
        assert (mae(y[1500:], gbdt.predict(X[1500:]))
                < mae(y[1500:], tree.predict(X[1500:])))

    def test_constant_target(self):
        X = np.random.default_rng(0).normal(size=(100, 2))
        y = np.full(100, 7.0)
        model = GBDTRegressor(n_estimators=5).fit(X, y)
        np.testing.assert_allclose(model.predict(X), 7.0, atol=1e-6)

    def test_feature_importances_sum_to_one(self):
        X, y = toy_regression(800)
        model = GBDTRegressor(n_estimators=20).fit(X, y)
        imp = model.feature_importances_
        assert imp.shape == (4,)
        assert imp.sum() == pytest.approx(1.0)
        assert imp[0] > imp[2]

    def test_staged_errors_decrease(self):
        X, y = toy_regression(800)
        model = GBDTRegressor(n_estimators=40).fit(X, y)
        staged = model.staged_errors(X, y, mae)
        assert staged[-1] < staged[0]

    def test_subsample(self):
        X, y = toy_regression(800)
        model = GBDTRegressor(n_estimators=30, subsample=0.5).fit(X, y)
        assert mae(y, model.predict(X)) < 1.5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GBDTRegressor(n_estimators=0)
        with pytest.raises(ValueError):
            GBDTRegressor(subsample=0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GBDTRegressor().predict(np.ones((1, 2)))


class TestGBDTClassifier:
    def test_softmax_rows_sum_to_one(self):
        z = np.random.default_rng(0).normal(size=(10, 3)) * 10
        p = softmax(z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all()

    def test_learns_three_classes(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-3, 3, size=(1500, 2))
        y = np.where(X[:, 0] < -1, "low",
                     np.where(X[:, 0] > 1, "high", "medium")).astype(object)
        model = GBDTClassifier(n_estimators=40, max_depth=3).fit(
            X[:1000], y[:1000]
        )
        assert accuracy(y[1000:], model.predict(X[1000:])) > 0.9

    def test_predict_proba_valid(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 2))
        y = (X[:, 0] > 0).astype(int)
        model = GBDTClassifier(n_estimators=10).fit(X, y)
        proba = model.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            GBDTClassifier().fit(np.ones((10, 1)), ["a"] * 10)

    def test_classes_exposed(self):
        X = np.random.default_rng(0).normal(size=(50, 1))
        y = (X[:, 0] > 0).astype(int)
        model = GBDTClassifier(n_estimators=3).fit(X, y)
        assert set(model.classes_.tolist()) == {0, 1}

    def test_staged_errors_learning_curve(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-3, 3, size=(1200, 4))
        score = X[:, 0] + 0.8 * X[:, 1] * X[:, 2] + rng.normal(0, 0.8, 1200)
        y = np.where(score < -1, "low",
                     np.where(score > 1, "high", "medium")).astype(object)
        model = GBDTClassifier(n_estimators=30, max_depth=3,
                               learning_rate=0.2).fit(X[:800], y[:800])

        def err(y_true, y_pred):
            return 1.0 - accuracy(y_true, y_pred)

        staged = model.staged_errors(X[800:], y[800:], err)
        assert len(staged) == 30
        assert staged[-1] < staged[0]  # boosting actually learns
        # The last stage is the full model: same logits, same labels.
        assert staged[-1] == err(y[800:], model.predict(X[800:]))

    def test_staged_errors_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GBDTClassifier().staged_errors(np.ones((2, 1)), [0, 1],
                                           lambda a, b: 0.0)


class TestRandomForest:
    def test_regressor_fits(self):
        X, y = toy_regression()
        model = RandomForestRegressor(n_estimators=25).fit(
            X[:1500], y[:1500]
        )
        assert mae(y[1500:], model.predict(X[1500:])) < 1.2

    def test_classifier_fits(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-2, 2, size=(1000, 3))
        y = np.where(X[:, 1] > 0, "up", "down").astype(object)
        model = RandomForestClassifier(n_estimators=20).fit(
            X[:700], y[:700]
        )
        assert accuracy(y[700:], model.predict(X[700:])) > 0.9

    def test_classifier_proba_normalized(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 2))
        y = (X[:, 0] > 0).astype(int)
        model = RandomForestClassifier(n_estimators=10).fit(X, y)
        proba = model.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_forest_importances(self):
        X, y = toy_regression(600)
        model = RandomForestRegressor(n_estimators=15).fit(X, y)
        imp = model.feature_importances_
        assert imp.sum() == pytest.approx(1.0)

    def test_bagging_varies_trees(self):
        X, y = toy_regression(300)
        model = RandomForestRegressor(n_estimators=5, max_depth=4).fit(X, y)
        assert len({t.n_leaves for t in model._trees}) >= 1
        assert len(model._trees) == 5
