"""Vectorized vs. per-row tree traversal: bit-for-bit equivalence.

The serving layer leans on the vectorized level-order descent in
``HistogramTree.predict_binned`` / ``apply``; the pre-vectorization
group-loop traversal survives as ``predict_binned_slow`` / ``apply_slow``
precisely so these property tests can demand *exact* agreement -- same
dtype, same bits -- on seeded random inputs, including NaN and
out-of-range feature values.  Model-level checks (GBDT, forests) rerun
the full ``predict`` / ``predict_proba`` paths with the slow traversal
monkeypatched in, so every accumulation step downstream of the trees is
covered too.
"""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GBDTClassifier, GBDTQuantileRegressor, GBDTRegressor
from repro.ml.tree import FeatureBinner, HistogramTree, TreeParams


def _weird_matrix(rng, n, d, scale=3.0):
    """Random features salted with NaN, +-inf and far out-of-range values."""
    X = rng.normal(scale=scale, size=(n, d))
    flat = X.reshape(-1)
    k = max(1, flat.size // 10)
    flat[rng.choice(flat.size, size=k, replace=False)] = np.nan
    flat[rng.choice(flat.size, size=k, replace=False)] = 1e6
    flat[rng.choice(flat.size, size=k, replace=False)] = -1e6
    flat[rng.choice(flat.size, size=max(1, k // 2), replace=False)] = np.inf
    flat[rng.choice(flat.size, size=max(1, k // 2), replace=False)] = -np.inf
    return X


def _grown_tree(rng, n=300, d=5, n_outputs=1, max_depth=6):
    X = rng.normal(size=(n, d))
    binned = FeatureBinner(max_bins=32).fit_transform(X)
    grad = rng.normal(size=(n, n_outputs)) if n_outputs > 1 \
        else rng.normal(size=n)
    hess = np.ones_like(np.atleast_2d(np.asarray(grad, dtype=float).T).T)
    tree = HistogramTree(TreeParams(max_depth=max_depth, min_samples_leaf=3))
    tree.fit(binned, grad, hess, rng=rng)
    return tree


def _assert_bit_identical(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)  # exact, not allclose


class TestHistogramTreeEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_predict_binned_matches_slow(self, seed):
        rng = np.random.default_rng(seed)
        tree = _grown_tree(rng)
        binned = rng.integers(0, 32, size=(500, 5)).astype(np.uint8)
        _assert_bit_identical(tree.predict_binned(binned),
                              tree.predict_binned_slow(binned))

    @pytest.mark.parametrize("seed", range(5))
    def test_apply_matches_slow(self, seed):
        rng = np.random.default_rng(100 + seed)
        tree = _grown_tree(rng)
        binned = rng.integers(0, 32, size=(500, 5)).astype(np.uint8)
        leaves = tree.apply(binned)
        leaves_slow = tree.apply_slow(binned)
        assert np.array_equal(leaves, leaves_slow)
        assert (tree.feature[np.unique(leaves)] < 0).all()

    def test_multi_output_values(self):
        rng = np.random.default_rng(7)
        tree = _grown_tree(rng, n_outputs=3)
        binned = rng.integers(0, 32, size=(400, 5)).astype(np.uint8)
        pred = tree.predict_binned(binned)
        assert pred.shape == (400, 3)
        _assert_bit_identical(pred, tree.predict_binned_slow(binned))

    def test_stump_and_single_leaf_trees(self):
        rng = np.random.default_rng(11)
        binned = rng.integers(0, 8, size=(60, 2)).astype(np.uint8)
        # Depth-1 stump.
        stump = HistogramTree(TreeParams(max_depth=1, min_samples_leaf=2))
        stump.fit(binned, rng.normal(size=60), np.ones((60, 1)), rng=rng)
        _assert_bit_identical(stump.predict_binned(binned),
                              stump.predict_binned_slow(binned))
        # Root-only tree (depth 0): every row stays at node 0.
        leaf = HistogramTree(TreeParams(max_depth=0))
        leaf.fit(binned, rng.normal(size=60), np.ones((60, 1)), rng=rng)
        assert np.array_equal(leaf.apply(binned), np.zeros(60, dtype=int))
        _assert_bit_identical(leaf.predict_binned(binned),
                              leaf.predict_binned_slow(binned))

    def test_empty_batch(self):
        rng = np.random.default_rng(13)
        tree = _grown_tree(rng)
        empty = np.empty((0, 5), dtype=np.uint8)
        assert tree.predict_binned(empty).shape == (0, 1)
        assert tree.apply(empty).shape == (0,)

    def test_refit_invalidates_flat_cache(self):
        rng = np.random.default_rng(17)
        tree = _grown_tree(rng)
        binned = rng.integers(0, 32, size=(100, 5)).astype(np.uint8)
        tree.predict_binned(binned)  # builds the flat cache
        X2 = rng.normal(size=(300, 5))
        binned2 = FeatureBinner(max_bins=32).fit_transform(X2)
        tree.fit(binned2, rng.normal(size=300), np.ones((300, 1)), rng=rng)
        _assert_bit_identical(tree.predict_binned(binned2),
                              tree.predict_binned_slow(binned2))


def _slow_traversal(monkeypatch):
    """Route every tree prediction through the per-row reference."""
    monkeypatch.setattr(HistogramTree, "predict_binned",
                        HistogramTree.predict_binned_slow)
    monkeypatch.setattr(HistogramTree, "apply", HistogramTree.apply_slow)


class TestModelLevelEquivalence:
    """Full predict paths, weird inputs included, must not budge a bit."""

    @pytest.mark.parametrize("seed", range(3))
    def test_gbdt_regressor(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(400, 4))
        y = X[:, 0] - 2 * X[:, 2] + rng.normal(0, 0.2, 400)
        model = GBDTRegressor(n_estimators=25, max_depth=4,
                              random_state=seed).fit(X, y)
        X_query = _weird_matrix(rng, 200, 4)
        fast = model.predict(X_query)
        with monkeypatch.context() as m:
            _slow_traversal(m)
            slow = model.predict(X_query)
        _assert_bit_identical(fast, slow)
        assert np.isfinite(fast).all()  # NaN/inf features never leak out

    @pytest.mark.parametrize("seed", range(3))
    def test_gbdt_classifier_proba_and_labels(self, seed, monkeypatch):
        rng = np.random.default_rng(50 + seed)
        X = rng.normal(size=(400, 3))
        y = np.asarray(["Low", "Medium", "High"])[
            np.clip(np.digitize(X[:, 0], [-0.5, 0.5]), 0, 2)
        ]
        model = GBDTClassifier(n_estimators=20, max_depth=3,
                               random_state=seed).fit(X, y)
        X_query = _weird_matrix(rng, 150, 3)
        fast_proba = model.predict_proba(X_query)
        fast_labels = model.predict(X_query)
        with monkeypatch.context() as m:
            _slow_traversal(m)
            slow_proba = model.predict_proba(X_query)
            slow_labels = model.predict(X_query)
        _assert_bit_identical(fast_proba, slow_proba)
        assert fast_labels.tolist() == slow_labels.tolist()

    def test_gbdt_quantile_regressor(self, monkeypatch):
        """The quantile model predicts through ``apply`` + a leaf-value
        gather; both traversals must land every row in the same leaf."""
        rng = np.random.default_rng(70)
        X = rng.normal(size=(400, 3))
        y = X[:, 0] + rng.gumbel(0, 0.5, 400)
        model = GBDTQuantileRegressor(quantile=0.9, n_estimators=15,
                                      max_depth=3, random_state=0).fit(X, y)
        X_query = _weird_matrix(rng, 150, 3)
        fast = model.predict(X_query)
        with monkeypatch.context() as m:
            _slow_traversal(m)
            slow = model.predict(X_query)
        _assert_bit_identical(fast, slow)

    @pytest.mark.parametrize("seed", range(2))
    def test_random_forest_regressor(self, seed, monkeypatch):
        rng = np.random.default_rng(80 + seed)
        X = rng.normal(size=(300, 4))
        y = np.abs(X[:, 1]) + rng.normal(0, 0.1, 300)
        model = RandomForestRegressor(n_estimators=12, max_depth=6,
                                      random_state=seed, workers=1).fit(X, y)
        X_query = _weird_matrix(rng, 150, 4)
        fast = model.predict(X_query)
        with monkeypatch.context() as m:
            _slow_traversal(m)
            slow = model.predict(X_query)
        _assert_bit_identical(fast, slow)

    @pytest.mark.parametrize("seed", range(2))
    def test_random_forest_classifier(self, seed, monkeypatch):
        rng = np.random.default_rng(90 + seed)
        X = rng.normal(size=(300, 3))
        y = np.where(X[:, 0] + X[:, 1] > 0, "hi", "lo").astype(object)
        model = RandomForestClassifier(n_estimators=10, max_depth=5,
                                       random_state=seed, workers=1).fit(X, y)
        X_query = _weird_matrix(rng, 120, 3)
        fast_proba = model.predict_proba(X_query)
        fast_labels = model.predict(X_query)
        with monkeypatch.context() as m:
            _slow_traversal(m)
            slow_proba = model.predict_proba(X_query)
            slow_labels = model.predict(X_query)
        _assert_bit_identical(fast_proba, slow_proba)
        assert fast_labels.tolist() == slow_labels.tolist()
