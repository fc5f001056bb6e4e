"""Tests for linear baselines and the k-d tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.metrics import accuracy, mae

from _linear_kdtree import KDTree, LogisticRegression, RidgeRegressor


class TestRidge:
    def test_recovers_linear_function(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        y = 2.0 * X[:, 0] - 1.0 * X[:, 2] + 5.0 + rng.normal(0, 0.01, 500)
        model = RidgeRegressor(alpha=1e-6).fit(X, y)
        assert mae(y, model.predict(X)) < 0.05

    def test_regularization_shrinks(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 5))
        y = X[:, 0]
        small = RidgeRegressor(alpha=1e-6).fit(X, y)
        large = RidgeRegressor(alpha=1e4).fit(X, y)
        assert (np.abs(large.coef_).sum() < np.abs(small.coef_).sum())

    def test_handles_nan(self):
        X = np.array([[1.0, np.nan], [2.0, 1.0], [3.0, 2.0], [4.0, 3.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        pred = RidgeRegressor().fit(X, y).predict(X)
        assert np.isfinite(pred).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            RidgeRegressor(alpha=-1.0)
        with pytest.raises(RuntimeError):
            RidgeRegressor().predict(np.ones((1, 2)))


class TestLogistic:
    def test_separable_problem(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(600, 2))
        y = np.where(X[:, 0] + X[:, 1] > 0, "pos", "neg").astype(object)
        model = LogisticRegression(max_iter=400).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.95

    def test_three_classes(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(900, 2))
        y = np.digitize(X[:, 0], [-0.5, 0.5])
        model = LogisticRegression(max_iter=400).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.8

    def test_proba_normalized(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] > 0).astype(int)
        proba = LogisticRegression().fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.ones((5, 2)), ["a"] * 5)


class TestKDTree:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(300, 3))
        tree = KDTree(pts, leaf_size=8)
        for _ in range(20):
            q = rng.normal(size=3)
            d_tree, i_tree = tree.query(q, k=5)
            brute = np.sqrt(((pts - q) ** 2).sum(axis=1))
            i_brute = np.argsort(brute)[:5]
            np.testing.assert_allclose(np.sort(d_tree),
                                       np.sort(brute[i_brute]))
            assert set(i_tree) == set(i_brute)

    @given(arrays(np.float64, (40, 2), elements=st.floats(-100, 100)),
           arrays(np.float64, (2,), elements=st.floats(-100, 100)))
    @settings(max_examples=50, deadline=None)
    def test_nearest_is_global_minimum(self, pts, q):
        tree = KDTree(pts, leaf_size=4)
        d, i = tree.query(q, k=1)
        brute = np.sqrt(((pts - q) ** 2).sum(axis=1))
        assert d[0] == pytest.approx(brute.min(), rel=1e-9, abs=1e-9)

    def test_k_capped_at_n(self):
        tree = KDTree(np.zeros((3, 2)))
        d, i = tree.query(np.zeros(2), k=10)
        assert len(d) == 3

    def test_query_many(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(100, 2))
        tree = KDTree(pts)
        Q = rng.normal(size=(10, 2))
        d, i = tree.query_many(Q, k=3)
        assert d.shape == (10, 3)
        # Distances sorted ascending per row.
        assert (np.diff(d, axis=1) >= -1e-12).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            KDTree(np.empty((0, 2)))
        with pytest.raises(ValueError):
            KDTree(np.zeros((5, 2)), leaf_size=0)
        tree = KDTree(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            tree.query(np.zeros(3))
