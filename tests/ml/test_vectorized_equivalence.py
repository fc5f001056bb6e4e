"""Vectorized vs. per-row tree traversal: bit-for-bit equivalence.

The serving layer leans on the one ensemble traversal in
``repro.ml.tree`` (``_descend``: every (row, tree) pair of a batch
descends level by level at once); ``HistogramTree.predict_binned`` /
``apply`` are its one-tree case.  The pre-vectorization group-loop
traversal survives as ``predict_binned_slow`` / ``apply_slow``
(``tests/ml/_tree_oracles.py``) precisely so these property tests can
demand *exact* agreement -- same dtype, same
bits -- on seeded random inputs, including NaN and out-of-range feature
values.  Model-level checks compare the full ``predict`` /
``predict_proba`` / ``staged_errors`` paths of all five ensemble
families against an explicit oracle written here: the slow traversal
run tree by tree, its outputs accumulated in tree order the way the
per-tree prediction loops did.  Edge cases ride along: leaf-only trees,
trees of unequal depth swapped in through ``_set_trees``, unbounded
forest depth, 0 and 1 rows, batches spanning the traversal's row blocks,
read-only node arrays and splits perturbed through an edited payload.
A guard counts traversal calls: one per row block, never one per tree.
"""

import numpy as np
import pytest

from repro.ml import tree as tree_mod
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import (
    GBDTClassifier,
    GBDTQuantileRegressor,
    GBDTRegressor,
    softmax,
)
from repro.ml.serialize import model_from_dict, model_to_dict
from repro.ml.tree import (
    NODE_ARRAYS,
    FeatureBinner,
    HistogramTree,
    TreeParams,
)

from _tree_oracles import apply_slow, predict_binned_slow


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
                              predict_binned_slow(tree, binned))

    @pytest.mark.parametrize("seed", range(5))
    def test_apply_matches_slow(self, seed):
        rng = np.random.default_rng(100 + seed)
        tree = _grown_tree(rng)
        binned = rng.integers(0, 32, size=(500, 5)).astype(np.uint8)
        leaves = tree.apply(binned)
        leaves_slow = apply_slow(tree, binned)
        assert np.array_equal(leaves, leaves_slow)
        assert (tree.feature[np.unique(leaves)] < 0).all()

    def test_multi_output_values(self):
        rng = np.random.default_rng(7)
        tree = _grown_tree(rng, n_outputs=3)
        binned = rng.integers(0, 32, size=(400, 5)).astype(np.uint8)
        pred = tree.predict_binned(binned)
        assert pred.shape == (400, 3)
        _assert_bit_identical(pred, predict_binned_slow(tree, binned))

    def test_stump_and_single_leaf_trees(self):
        rng = np.random.default_rng(11)
        binned = rng.integers(0, 8, size=(60, 2)).astype(np.uint8)
        # Depth-1 stump.
        stump = HistogramTree(TreeParams(max_depth=1, min_samples_leaf=2))
        stump.fit(binned, rng.normal(size=60), np.ones((60, 1)), rng=rng)
        _assert_bit_identical(stump.predict_binned(binned),
                              predict_binned_slow(stump, binned))
        # Root-only tree (depth 0): every row stays at node 0.
        leaf = HistogramTree(TreeParams(max_depth=0))
        leaf.fit(binned, rng.normal(size=60), np.ones((60, 1)), rng=rng)
        assert np.array_equal(leaf.apply(binned), np.zeros(60, dtype=int))
        _assert_bit_identical(leaf.predict_binned(binned),
                              predict_binned_slow(leaf, binned))

    def test_empty_batch(self):
        rng = np.random.default_rng(13)
        tree = _grown_tree(rng)
        empty = np.empty((0, 5), dtype=np.uint8)
        assert tree.predict_binned(empty).shape == (0, 1)
        assert tree.apply(empty).shape == (0,)

    def test_split_feature_past_last_column_raises(self):
        """Codes are read at flat row offsets, so a split on a feature the
        batch does not have must raise, not read the next row's codes --
        through one tree and through the stacked ensemble."""
        rng = np.random.default_rng(19)
        X = rng.normal(size=(300, 5))
        model = GBDTRegressor(n_estimators=3, max_depth=4,
                              random_state=0).fit(X, X[:, 0] - X[:, 3])
        payload = model_to_dict(model)
        assert payload["trees"][0]["nodes"][0]["f"] >= 0
        payload["trees"][0]["nodes"][0]["f"] = 5
        broken = model_from_dict(payload)
        binned = rng.integers(0, 32, size=(50, 5)).astype(np.uint8)
        with pytest.raises(IndexError):
            broken._trees[0].apply(binned)
        with pytest.raises(IndexError):
            broken.predict_binned(binned)

    def test_refit_invalidates_flat_cache(self):
        """A refit replaces the node arrays and the next prediction reads
        the new ones: the traversal keeps no cache that could go stale."""
        rng = np.random.default_rng(17)
        tree = _grown_tree(rng)
        binned = rng.integers(0, 32, size=(100, 5)).astype(np.uint8)
        tree.predict_binned(binned)  # reads the first fit's node arrays
        X2 = rng.normal(size=(300, 5))
        binned2 = FeatureBinner(max_bins=32).fit_transform(X2)
        tree.fit(binned2, rng.normal(size=300), np.ones((300, 1)), rng=rng)
        _assert_bit_identical(tree.predict_binned(binned2),
                              predict_binned_slow(tree, binned2))


# --------------------------------------------------------------------------- #
# Model-level oracle: the reference traversal, tree by tree
# --------------------------------------------------------------------------- #


def _binned(model, X):
    return model._binner.transform(np.asarray(X, dtype=float))


def _slow_gbdt_stages(model, X) -> list[np.ndarray]:
    """Raw scores after every boosting stage, computed the pre-ensemble
    way: each tree's reference traversal in turn, its shrunken step added
    to the base score in tree order."""
    binned = _binned(model, X)
    if isinstance(model, GBDTClassifier):
        score = np.tile(model.base_logits_, (len(binned), 1))
    else:
        score = np.full(len(binned), model.base_score_)
    stages = []
    for i, tree in enumerate(model._trees):
        if isinstance(model, GBDTQuantileRegressor):
            step = model._leaf_values[i][apply_slow(tree, binned)]
        elif isinstance(model, GBDTClassifier):
            step = predict_binned_slow(tree, binned)
        else:
            step = predict_binned_slow(tree, binned)[:, 0]
        score += model.learning_rate * step
        stages.append(score.copy())
    return stages


def _slow_forest_mean(model, X) -> np.ndarray:
    """Mean leaf value per row: reference traversal tree by tree, summed
    from zeros in tree order, divided by the tree count."""
    binned = _binned(model, X)
    acc = np.zeros((len(binned), model._trees[0].n_outputs))
    for tree in model._trees:
        acc += predict_binned_slow(tree, binned)
    return acc / len(model._trees)


def _bits(y, pred):
    """A staged_errors metric that keeps every bit of the prediction."""
    pred = np.asarray(pred)
    return pred.tobytes() if pred.dtype.kind == "f" else tuple(pred.tolist())


def _check_gbdt(model, X, y) -> None:
    stages = _slow_gbdt_stages(model, X)
    if isinstance(model, GBDTClassifier):
        def decode(score):
            return model.encoder_.inverse_transform(np.argmax(score, axis=1))

        _assert_bit_identical(model.predict_proba(X), softmax(stages[-1]))
    else:
        def decode(score):
            return score
    got, want = model.predict(X), decode(stages[-1])
    if got.dtype.kind == "f":
        _assert_bit_identical(got, want)
    else:
        assert got.tolist() == want.tolist()
    assert model.staged_errors(X, y, _bits) == \
        [_bits(y, decode(s)) for s in stages]


def _check_forest(model, X) -> None:
    mean = _slow_forest_mean(model, X)
    if isinstance(model, RandomForestClassifier):
        scores = np.clip(mean, 0.0, None)
        totals = scores.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        _assert_bit_identical(model.predict_proba(X), scores / totals)
        assert model.predict(X).tolist() == \
            model.encoder_.inverse_transform(np.argmax(mean, axis=1)).tolist()
    else:
        _assert_bit_identical(model.predict(X), mean[:, 0])


def _check(model, X, y=None) -> None:
    if isinstance(model, (RandomForestRegressor, RandomForestClassifier)):
        _check_forest(model, X)
    else:
        _check_gbdt(model, X, np.zeros(len(X)) if y is None else y)


def _queries(rng, d):
    """Weird rows (NaN/+-inf cells, whole NaN and inf rows), 0 rows, 1 row
    and a batch spanning two row-block boundaries of the traversal."""
    X = _weird_matrix(rng, 2 * tree_mod._ROW_BLOCK + 7, d)
    X[3] = np.nan
    X[4] = np.inf
    X[5] = -np.inf
    return [X[:150], X[:0], X[3:4], X]


class TestModelLevelEquivalence:
    """Full predict paths, weird inputs included, must not budge a bit."""

    @pytest.mark.parametrize("seed", range(3))
    def test_gbdt_regressor(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(400, 4))
        y = X[:, 0] - 2 * X[:, 2] + rng.normal(0, 0.2, 400)
        model = GBDTRegressor(n_estimators=25, max_depth=4,
                              random_state=seed).fit(X, y)
        for X_query in _queries(rng, 4):
            _check(model, X_query)
            # NaN/inf features never leak out.
            assert np.isfinite(model.predict(X_query)).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_gbdt_classifier_proba_and_labels(self, seed):
        rng = np.random.default_rng(50 + seed)
        X = rng.normal(size=(400, 3))
        y = np.asarray(["Low", "Medium", "High"])[
            np.clip(np.digitize(X[:, 0], [-0.5, 0.5]), 0, 2)
        ]
        model = GBDTClassifier(n_estimators=20, max_depth=3,
                               random_state=seed).fit(X, y)
        for X_query in _queries(rng, 3):
            _check(model, X_query)

    def test_gbdt_quantile_regressor(self):
        """The quantile model predicts through ``apply`` + a leaf-value
        gather; both traversals must land every row in the same leaf."""
        rng = np.random.default_rng(70)
        X = rng.normal(size=(400, 3))
        y = X[:, 0] + rng.gumbel(0, 0.5, 400)
        model = GBDTQuantileRegressor(quantile=0.9, n_estimators=15,
                                      max_depth=3, random_state=0).fit(X, y)
        for X_query in _queries(rng, 3):
            _check(model, X_query)

    @pytest.mark.parametrize("seed", range(2))
    def test_random_forest_regressor(self, seed):
        rng = np.random.default_rng(80 + seed)
        X = rng.normal(size=(300, 4))
        y = np.abs(X[:, 1]) + rng.normal(0, 0.1, 300)
        model = RandomForestRegressor(n_estimators=12, max_depth=6,
                                      random_state=seed).fit(X, y)
        for X_query in _queries(rng, 4):
            _check(model, X_query)

    @pytest.mark.parametrize("seed", range(2))
    def test_random_forest_classifier(self, seed):
        rng = np.random.default_rng(90 + seed)
        X = rng.normal(size=(300, 3))
        y = np.where(X[:, 0] + X[:, 1] > 0, "hi", "lo").astype(object)
        model = RandomForestClassifier(n_estimators=10, max_depth=5,
                                       random_state=seed).fit(X, y)
        for X_query in _queries(rng, 3):
            _check(model, X_query)


#: The five ensemble families, each a factory over its size knobs.
FAMILIES = {
    "gbdt_reg": lambda **kw: GBDTRegressor(random_state=0, **kw),
    "gbdt_quantile": lambda **kw: GBDTQuantileRegressor(
        quantile=0.8, random_state=0, **kw),
    "gbdt_clf": lambda **kw: GBDTClassifier(random_state=0, **kw),
    "rf_reg": lambda **kw: RandomForestRegressor(
        random_state=0, **kw),
    "rf_clf": lambda **kw: RandomForestClassifier(
        random_state=0, **kw),
}


def _fit(family, rng, **kw):
    """``(model, X_train, y_train)`` for one family on seeded data."""
    X = rng.normal(size=(400, 4))
    if family.endswith("clf"):
        y = np.asarray(["Low", "Medium", "High"])[
            np.clip(np.digitize(X[:, 0] + X[:, 3], [-0.7, 0.7]), 0, 2)]
    else:
        y = X[:, 0] - 2 * X[:, 2] + rng.normal(0, 0.3, 400)
    kw.setdefault("n_estimators", 9)
    kw.setdefault("max_depth", 4)
    return FAMILIES[family](**kw).fit(X, y), X, y


def _check_all(model, rng, X, y) -> None:
    _check(model, X, y)
    for X_query in _queries(rng, X.shape[1]):
        _check(model, X_query)


class TestEnsembleEdgeCases:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_leaf_only_trees(self, family):
        rng = np.random.default_rng(200)
        model, X, y = _fit(family, rng, max_depth=0)
        assert all(t.n_leaves == 1 for t in model._trees)
        _check_all(model, rng, X, y)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_trees_of_unequal_depth(self, family):
        rng = np.random.default_rng(210)
        model, X, y = _fit(family, rng, max_depth=5)
        shallow, _, _ = _fit(family, np.random.default_rng(210), max_depth=0)
        model.predict(X)  # stacks the deep trees
        # Every third tree becomes a lone leaf (with its refit values),
        # swapped in through _set_trees, which restacks the ensemble.
        trees = list(model._trees)
        for i in range(0, len(trees), 3):
            trees[i] = shallow._trees[i]
            if family == "gbdt_quantile":
                model._leaf_values[i] = shallow._leaf_values[i]
        model._set_trees(trees)
        depths = {t.depth for t in model._trees}
        assert 0 in depths and len(depths) > 1
        _check_all(model, rng, X, y)

    @pytest.mark.parametrize("family", ["rf_clf", "rf_reg"])
    def test_forest_unbounded_depth(self, family):
        rng = np.random.default_rng(220)
        model, X, y = _fit(family, rng, max_depth=None, min_samples_leaf=1)
        assert max(t.depth for t in model._trees) > 8
        _check_all(model, rng, X, y)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_tree_mutated_after_fit(self, family):
        """A fitted tree's node arrays are read-only, so the ensemble's
        stacked arrays cannot go stale: a write in place raises and
        leaves the predictions as they were.  Changed splits come from
        an edited payload, and the model it loads predicts them."""
        rng = np.random.default_rng(230)
        model, X, y = _fit(family, rng)
        before = model.predict(X)
        for tree in model._trees:
            for name in NODE_ARRAYS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(tree, name)[0] = 1
        assert model.predict(X).tolist() == before.tolist()
        payload = model_to_dict(model)
        for tree in payload["trees"][::2]:
            for node in tree["nodes"]:
                if node["f"] >= 0:
                    node["t"] = int(rng.integers(0, 8))
        perturbed = model_from_dict(payload)
        assert perturbed.predict(X).tolist() != before.tolist()
        _check_all(perturbed, rng, X, y)


class TestOneTraversalPerRowBlock:
    """One ``predict`` descends once per row block, not once per tree."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n_rows", [1, 2 * tree_mod._ROW_BLOCK + 7])
    def test_predict_calls_traversal_per_block(self, family, n_rows,
                                               monkeypatch):
        rng = np.random.default_rng(240)
        model, _, _ = _fit(family, rng, n_estimators=11)
        descend = tree_mod._descend
        calls = []

        def counted(binned, *args):
            calls.append(len(binned))
            return descend(binned, *args)

        monkeypatch.setattr(tree_mod, "_descend", counted)
        model.predict(rng.normal(size=(n_rows, 4)))
        blocks = -(-n_rows // tree_mod._ROW_BLOCK)
        assert len(calls) == blocks
        assert sum(calls) == n_rows
