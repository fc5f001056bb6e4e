"""The tree grower vs. the reference grower: bit-for-bit trees.

The level-order grower behind every tree fit (``HistogramTree.fit`` is
its one-chunk case, ``fit_binned_chunks`` the general one: offset-bincount
histograms, histogram subtraction with exact near-tie re-scoring,
vectorized split search) must reproduce the reference grower --
``grow_reference`` in ``tests/ml/_tree_oracles.py``, kept precisely for
these tests -- *exactly*, at one
chunk and at three: same node order, same splits, same float leaf values
and gains, same ``feature_gain_``.  Both sum per chunk in chunk order and
draw ``max_features`` subsets in level order.  That is what lets
goldens, serialized payloads and ``feature_importances_`` hold whatever
the chunk geometry.

Model-level checks refit whole GBDTs/forests with the reference grower
monkeypatched in and demand identical predictions, covering the
``n_bins`` plumbing through gbdt.py and forest.py too.
"""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GBDTClassifier, GBDTQuantileRegressor, GBDTRegressor
from repro.ml.tree import (
    NODE_ARRAYS,
    FeatureBinner,
    HistogramTree,
    TreeParams,
)

from _tree_oracles import (
    fit_reference,
    grow_reference,
    reference_fit_binned_chunks,
)


def _assert_same_tree(got: HistogramTree, want: HistogramTree):
    """Node-for-node, bit-for-bit structural equality."""
    for name in NODE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        # Same dtype and shape, then byte equality: float gains and
        # values compare bit for bit, not allclose.
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert np.array_equal(got.feature_gain_, want.feature_gain_)


def _chunked(binned, grad, hess, n_chunks):
    """The rows cut into ``n_chunks`` uneven chunks, in row order."""
    n = len(binned)
    cuts = [0, *(n * c // (n_chunks + 1) for c in range(2, n_chunks + 1)), n]
    return [(binned[s:e], grad[s:e], hess[s:e])
            for s, e in zip(cuts, cuts[1:])]


def _grow_both(binned, grad, hess, params, seed, n_bins=None, n_chunks=1):
    """The same fit through the grower and the reference grower.

    One chunk goes through ``fit`` and ``fit_reference``, more through
    ``fit_binned_chunks`` and ``grow_reference``.  Each gets a fresh rng
    from the same seed so feature subsampling draws are comparable."""
    parts = _chunked(binned, grad, hess, n_chunks)
    grower = HistogramTree(params)
    if n_chunks == 1:
        grower.fit(binned, grad, hess, rng=np.random.default_rng(seed),
                   n_bins=n_bins)
        reference = fit_reference(params, binned, grad, hess,
                                  np.random.default_rng(seed))
    else:
        grower.fit_binned_chunks(lambda: iter(parts),
                                 rng=np.random.default_rng(seed),
                                 n_bins=n_bins)
        reference = grow_reference(params, parts,
                                   np.random.default_rng(seed))
    return grower, reference


def _case(rng, n, d, k, max_bins=32, salted=False):
    X = rng.normal(size=(n, d))
    if salted:
        flat = X.reshape(-1)
        bad = rng.choice(flat.size, max(1, flat.size // 10), replace=False)
        flat[bad] = np.nan  # missing values -> bin 0
        X[:, -1] = 7.5      # constant feature -> never splittable
    binner = FeatureBinner(max_bins=max_bins)
    binned = binner.fit_transform(X)
    grad = rng.normal(size=(n, k))
    hess = np.abs(rng.normal(size=(n, k))) + 0.1
    return binner, binned, grad, hess


#: Chunk counts every growth case runs at: ``fit`` and a 3-chunk stream.
CHUNKS = (1, 3)


class TestGrowthEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_regression_single_output(self, seed):
        rng = np.random.default_rng(seed)
        binner, binned, grad, _ = _case(rng, 400, 6, 1)
        hess = np.ones((400, 1))
        for n_chunks in CHUNKS:
            grower, reference = _grow_both(
                binned, grad[:, 0], hess,
                TreeParams(max_depth=6, min_samples_leaf=3), seed,
                n_bins=binner.n_bins_,
                n_chunks=n_chunks,
            )
            _assert_same_tree(grower, reference)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_multi_output_random_hessians(self, k):
        rng = np.random.default_rng(100 + k)
        binner, binned, grad, hess = _case(rng, 350, 5, k)
        for n_chunks in CHUNKS:
            grower, reference = _grow_both(
                binned, grad, hess,
                TreeParams(max_depth=5, min_samples_leaf=4), 100 + k,
                n_bins=binner.n_bins_,
                n_chunks=n_chunks,
            )
            _assert_same_tree(grower, reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_max_features_sqrt(self, seed):
        """Feature subsampling consumes the rng in level order; the
        grower must draw in exactly the reference's order."""
        rng = np.random.default_rng(200 + seed)
        binner, binned, grad, hess = _case(rng, 400, 9, 1)
        for n_chunks in CHUNKS:
            grower, reference = _grow_both(
                binned, grad, hess,
                TreeParams(max_depth=6, min_samples_leaf=3,
                           max_features="sqrt"), 200 + seed,
                n_bins=binner.n_bins_,
                n_chunks=n_chunks,
            )
            _assert_same_tree(grower, reference)

    def test_max_features_int(self):
        rng = np.random.default_rng(300)
        binner, binned, grad, hess = _case(rng, 300, 8, 3)
        for n_chunks in CHUNKS:
            grower, reference = _grow_both(
                binned, grad, hess,
                TreeParams(max_depth=5, min_samples_leaf=2, max_features=3),
                300, n_bins=binner.n_bins_,
                n_chunks=n_chunks,
            )
            _assert_same_tree(grower, reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_constant_and_missing_features(self, seed):
        rng = np.random.default_rng(400 + seed)
        binner, binned, grad, hess = _case(rng, 400, 6, 1, salted=True)
        for n_chunks in CHUNKS:
            grower, reference = _grow_both(
                binned, grad, hess,
                TreeParams(max_depth=6, min_samples_leaf=3), 400 + seed,
                n_bins=binner.n_bins_,
                n_chunks=n_chunks,
            )
            _assert_same_tree(grower, reference)

    @pytest.mark.parametrize("msl", [1, 2, 5, 50, 200])
    def test_min_samples_leaf_edges(self, msl):
        """msl=1 with deep growth is the tie-dense stress case: tiny
        nodes where many candidate splits score exactly equal and the
        tie-break must match the reference's scan order."""
        rng = np.random.default_rng(500 + msl)
        binner, binned, grad, _ = _case(rng, 300, 4, 1)
        for n_chunks in CHUNKS:
            grower, reference = _grow_both(
                binned, grad, np.ones((300, 1)),
                TreeParams(max_depth=12, min_samples_leaf=msl), 500 + msl,
                n_bins=binner.n_bins_,
                n_chunks=n_chunks,
            )
            _assert_same_tree(grower, reference)

    def test_depth_zero_and_stump(self):
        rng = np.random.default_rng(600)
        binner, binned, grad, hess = _case(rng, 120, 3, 1)
        for depth in (0, 1):
            for n_chunks in CHUNKS:
                grower, reference = _grow_both(
                    binned, grad, hess,
                    TreeParams(max_depth=depth, min_samples_leaf=2), 600,
                    n_bins=binner.n_bins_,
                    n_chunks=n_chunks,
                )
                _assert_same_tree(grower, reference)

    def test_n_bins_hint_optional(self):
        """The grower must build the same tree with and without the
        FeatureBinner.n_bins_ sizing hint."""
        rng = np.random.default_rng(700)
        binner, binned, grad, hess = _case(rng, 300, 5, 1)
        params = TreeParams(max_depth=6, min_samples_leaf=3)
        with_hint, _ = _grow_both(binned, grad, hess, params, 700,
                                  n_bins=binner.n_bins_)
        without_hint, reference = _grow_both(binned, grad, hess, params, 700)
        _assert_same_tree(with_hint, reference)
        _assert_same_tree(without_hint, reference)

    def test_predictions_identical(self):
        rng = np.random.default_rng(800)
        binner, binned, grad, hess = _case(rng, 400, 6, 3)
        query = rng.integers(0, 32, size=(500, 6)).astype(np.uint8)
        for n_chunks in CHUNKS:
            grower, reference = _grow_both(
                binned, grad, hess,
                TreeParams(max_depth=7, min_samples_leaf=2), 800,
                n_bins=binner.n_bins_, n_chunks=n_chunks,
            )
            assert np.array_equal(grower.predict_binned(query),
                                  reference.predict_binned(query))
            assert np.array_equal(grower.apply(query),
                                  reference.apply(query))

    @pytest.mark.parametrize("seed", range(2))
    def test_subtraction_and_rescoring(self, seed):
        """Nodes past SUBTRACT_MIN_ROWS derive the larger child's
        histogram and re-score its near-tie band exactly, on the
        unit-hessian path and the random-hessian path both."""
        rng = np.random.default_rng(850 + seed)
        binner, binned, grad, hess = _case(rng, 4_000, 6, 1, max_bins=64)
        for h in (hess, np.ones_like(hess)):
            for n_chunks in CHUNKS:
                grower, reference = _grow_both(
                    binned, grad, h,
                    TreeParams(max_depth=6, min_samples_leaf=3), 850,
                    n_bins=binner.n_bins_, n_chunks=n_chunks,
                )
                _assert_same_tree(grower, reference)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(3))
    def test_large_deep_fits(self, seed):
        """Big enough that histogram subtraction engages on deep,
        multi-level frontiers."""
        rng = np.random.default_rng(900 + seed)
        binner, binned, grad, hess = _case(rng, 20_000, 10, 1, max_bins=64)
        for n_chunks in CHUNKS:
            grower, reference = _grow_both(
                binned, grad, hess,
                TreeParams(max_depth=10, min_samples_leaf=2), 900 + seed,
                n_bins=binner.n_bins_, n_chunks=n_chunks,
            )
            _assert_same_tree(grower, reference)

    @pytest.mark.slow
    def test_large_multi_output(self):
        rng = np.random.default_rng(950)
        binner, binned, grad, hess = _case(rng, 15_000, 8, 7, max_bins=64)
        for n_chunks in CHUNKS:
            grower, reference = _grow_both(
                binned, grad, hess,
                TreeParams(max_depth=8, min_samples_leaf=5), 950,
                n_bins=binner.n_bins_,
                n_chunks=n_chunks,
            )
            _assert_same_tree(grower, reference)


def _reference_growth(monkeypatch):
    """Route every tree fit through the reference grower."""
    monkeypatch.setattr(HistogramTree, "fit_binned_chunks",
                        reference_fit_binned_chunks)


class TestModelLevelEquivalence:
    """Whole models refit with the reference grower must predict the
    same bits: the grower is invisible above tree.py."""

    def test_gbdt_regressor(self, monkeypatch):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 5))
        y = X[:, 0] - 2.0 * X[:, 3] + rng.normal(0, 0.2, 500)
        kwargs = dict(n_estimators=20, max_depth=5, subsample=0.8,
                      random_state=7)
        fast = GBDTRegressor(**kwargs).fit(X, y)
        with monkeypatch.context() as m:
            _reference_growth(m)
            slow = GBDTRegressor(**kwargs).fit(X, y)
        X_query = rng.normal(size=(200, 5))
        assert np.array_equal(fast.predict(X_query), slow.predict(X_query))
        assert np.array_equal(fast.feature_importances_,
                              slow.feature_importances_)

    def test_gbdt_classifier(self, monkeypatch):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 4))
        y = np.asarray(["a", "b", "c"])[
            np.clip(np.digitize(X[:, 0], [-0.4, 0.6]), 0, 2)
        ]
        kwargs = dict(n_estimators=15, max_depth=4, random_state=3)
        fast = GBDTClassifier(**kwargs).fit(X, y)
        with monkeypatch.context() as m:
            _reference_growth(m)
            slow = GBDTClassifier(**kwargs).fit(X, y)
        X_query = rng.normal(size=(150, 4))
        assert np.array_equal(fast.predict_proba(X_query),
                              slow.predict_proba(X_query))

    def test_gbdt_quantile_regressor(self, monkeypatch):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(400, 3))
        y = X[:, 0] + rng.gumbel(0, 0.5, 400)
        kwargs = dict(quantile=0.9, n_estimators=12, max_depth=4,
                      subsample=0.7, random_state=5)
        fast = GBDTQuantileRegressor(**kwargs).fit(X, y)
        with monkeypatch.context() as m:
            _reference_growth(m)
            slow = GBDTQuantileRegressor(**kwargs).fit(X, y)
        X_query = rng.normal(size=(150, 3))
        assert np.array_equal(fast.predict(X_query), slow.predict(X_query))

    def test_random_forest(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(350, 5))
        y = np.abs(X[:, 1]) + rng.normal(0, 0.1, 350)
        kwargs = dict(n_estimators=10, max_depth=7, random_state=11)
        fast = RandomForestRegressor(**kwargs).fit(X, y)
        with monkeypatch.context() as m:
            _reference_growth(m)
            slow = RandomForestRegressor(**kwargs).fit(X, y)
        X_query = rng.normal(size=(150, 5))
        assert np.array_equal(fast.predict(X_query), slow.predict(X_query))

    def test_random_forest_classifier(self, monkeypatch):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 4))
        y = np.where(X[:, 0] + X[:, 2] > 0, "hi", "lo").astype(object)
        kwargs = dict(n_estimators=8, max_depth=6, random_state=13)
        fast = RandomForestClassifier(**kwargs).fit(X, y)
        with monkeypatch.context() as m:
            _reference_growth(m)
            slow = RandomForestClassifier(**kwargs).fit(X, y)
        X_query = rng.normal(size=(120, 4))
        assert np.array_equal(fast.predict_proba(X_query),
                              slow.predict_proba(X_query))
