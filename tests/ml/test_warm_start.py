"""Warm-start boosting: fit(n) == fit(k) + fit_more(n-k), bit for bit.

The continuous-learning refit path (docs/continuous_learning.md) leans
on one property: appending rounds to a fitted GBDT walks *exactly* the
code path a cold fit of the full round count would have walked --
same binned codes (the binner is frozen after ``fit``), same per-round
RNG stream (the generator lives on the model), same float accumulation
order (state replay is tree-major per element, which is associativity-
free).  So ``fit(n)`` and ``fit(k) + fit_more(n-k)`` must produce
bit-identical trees and predictions, for every family and every path:
dense, subsampled, and binned-stream.  Serialization must round-trip
the warm-started model exactly.
"""

import numpy as np
import pytest

from repro.ml.gbdt import (
    GBDTClassifier,
    GBDTQuantileRegressor,
    GBDTRegressor,
)
from repro.ml.serialize import model_from_dict, model_to_dict
from repro.ml.tree import FeatureBinner, HistogramTree

N_TOTAL = 24
SPLITS = [1, 8, 23]


def _data(n=500, d=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2
         + 0.2 * rng.normal(size=n))
    return X, y


def _class_data(n=500, d=5, seed=1):
    X, y = _data(n, d, seed)
    labels = np.array(["low", "medium", "high"])
    return X, labels[np.clip(np.digitize(y, [-0.3, 0.8]), 0, 2)]


def _regressor(n_estimators, **kw):
    return GBDTRegressor(n_estimators=n_estimators, max_depth=3,
                         learning_rate=0.2, random_state=7, **kw)


def _quantile(n_estimators, **kw):
    return GBDTQuantileRegressor(n_estimators=n_estimators, max_depth=3,
                                 learning_rate=0.2, quantile=0.9,
                                 random_state=7, **kw)


def _classifier(n_estimators, **kw):
    return GBDTClassifier(n_estimators=n_estimators, max_depth=3,
                          learning_rate=0.2, random_state=7, **kw)


def _canonical(model) -> dict:
    """The serialized payload minus fields that legitimately differ:
    wall-clock telemetry, and the ``n_estimators`` knob (a warm-started
    model records the rounds-per-call setting, not the total)."""
    payload = model_to_dict(model)
    payload.pop("telemetry", None)
    payload.get("hyperparams", {}).pop("n_estimators", None)
    return payload


def _assert_same_model(a, b, X):
    """Bit-identical trees and predictions (never telemetry)."""
    assert _canonical(a) == _canonical(b)
    pa, pb = a.predict(X), b.predict(X)
    assert np.array_equal(np.asarray(pa), np.asarray(pb))
    if hasattr(a, "predict_proba"):
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


class TestRegressorEquivalence:
    @pytest.mark.parametrize("k", SPLITS)
    def test_fit_plus_fit_more_matches_cold_fit(self, k):
        X, y = _data()
        cold = _regressor(N_TOTAL).fit(X, y)
        warm = _regressor(k).fit(X, y)
        warm.fit_more(N_TOTAL - k, X, y)
        _assert_same_model(cold, warm, X)

    @pytest.mark.parametrize("k", SPLITS)
    def test_subsample_path_matches(self, k):
        """The RNG stream continues across the fit/fit_more boundary."""
        X, y = _data()
        cold = _regressor(N_TOTAL, subsample=0.6).fit(X, y)
        warm = _regressor(k, subsample=0.6).fit(X, y)
        warm.fit_more(N_TOTAL - k, X, y)
        _assert_same_model(cold, warm, X)

    def test_warm_start_flag_makes_fit_append(self):
        X, y = _data()
        cold = _regressor(N_TOTAL).fit(X, y)
        warm = _regressor(16, warm_start=True).fit(X, y)
        warm.n_estimators = N_TOTAL - 16
        warm.fit(X, y)
        _assert_same_model(cold, warm, X)

    @pytest.mark.parametrize("k", [8])
    def test_binned_stream_path_matches(self, k):
        X, y = _data()
        binner = FeatureBinner(256).fit(X)
        chunks = [(binner.transform(X[i:i + 120]), y[i:i + 120])
                  for i in range(0, len(y), 120)]
        cold = _regressor(N_TOTAL)
        cold.fit_binned_stream(lambda: iter(chunks), binner)
        warm = _regressor(k)
        warm.fit_binned_stream(lambda: iter(chunks), binner)
        warm.fit_more_binned_stream(N_TOTAL - k, lambda: iter(chunks))
        _assert_same_model(cold, warm, X)

    def test_fit_more_validates(self):
        X, y = _data()
        model = _regressor(4).fit(X, y)
        with pytest.raises(ValueError, match="n_rounds"):
            model.fit_more(0, X, y)
        with pytest.raises(ValueError, match="features"):
            model.fit_more(2, X[:, :3], y)
        with pytest.raises(RuntimeError, match="not fitted"):
            _regressor(4).fit_more(2, X, y)


class TestQuantileEquivalence:
    @pytest.mark.parametrize("k", SPLITS)
    def test_fit_plus_fit_more_matches_cold_fit(self, k):
        X, y = _data()
        cold = _quantile(N_TOTAL).fit(X, y)
        warm = _quantile(k).fit(X, y)
        warm.fit_more(N_TOTAL - k, X, y)
        _assert_same_model(cold, warm, X)

    @pytest.mark.parametrize("k", [8])
    def test_subsample_path_matches(self, k):
        X, y = _data()
        cold = _quantile(N_TOTAL, subsample=0.7).fit(X, y)
        warm = _quantile(k, subsample=0.7).fit(X, y)
        warm.fit_more(N_TOTAL - k, X, y)
        _assert_same_model(cold, warm, X)

    def test_interrupted_fit_more_keeps_completed_rounds(self, monkeypatch):
        """A round that raises leaves the rounds before it in the model,
        each tree beside its refit leaf values: the model is the cold
        fit of that many rounds."""
        X, y = _data()
        model = _quantile(8).fit(X, y)
        grow, grown = HistogramTree.fit_binned_chunks, []

        def fourth_fails(tree, *args, **kwargs):
            grown.append(tree)
            if len(grown) == 4:
                raise RuntimeError("interrupted")
            return grow(tree, *args, **kwargs)

        monkeypatch.setattr(HistogramTree, "fit_binned_chunks", fourth_fails)
        with pytest.raises(RuntimeError, match="interrupted"):
            model.fit_more(6, X, y)
        monkeypatch.undo()
        assert len(model._trees) == len(model._leaf_values) == 11
        _assert_same_model(_quantile(11).fit(X, y), model, X)


class TestClassifierEquivalence:
    @pytest.mark.parametrize("k", SPLITS)
    def test_fit_plus_fit_more_matches_cold_fit(self, k):
        X, y = _class_data()
        cold = _classifier(N_TOTAL).fit(X, y)
        warm = _classifier(k).fit(X, y)
        warm.fit_more(N_TOTAL - k, X, y)
        _assert_same_model(cold, warm, X)

    @pytest.mark.parametrize("k", [8])
    def test_subsample_path_matches(self, k):
        X, y = _class_data()
        cold = _classifier(N_TOTAL, subsample=0.6).fit(X, y)
        warm = _classifier(k, subsample=0.6).fit(X, y)
        warm.fit_more(N_TOTAL - k, X, y)
        _assert_same_model(cold, warm, X)

    @pytest.mark.parametrize("k", [8])
    def test_binned_stream_path_matches(self, k):
        X, y = _class_data()
        binner = FeatureBinner(256).fit(X)
        chunks = [(binner.transform(X[i:i + 150]), y[i:i + 150])
                  for i in range(0, len(y), 150)]
        cold = _classifier(N_TOTAL)
        cold.fit_binned_stream(lambda: iter(chunks), binner)
        warm = _classifier(k)
        warm.fit_binned_stream(lambda: iter(chunks), binner)
        warm.fit_more_binned_stream(N_TOTAL - k, lambda: iter(chunks))
        _assert_same_model(cold, warm, X)

    def test_unseen_label_rejected(self):
        """The class set freezes at fit: fit_more never re-encodes."""
        X, y = _class_data()
        model = _classifier(4).fit(X, y)
        bad = y.copy()
        bad[0] = "ultra"
        with pytest.raises(ValueError, match="unseen"):
            model.fit_more(2, X, bad)


class TestSerializationRoundTrip:
    @pytest.mark.parametrize("make,data", [
        (_regressor, _data),
        (_quantile, _data),
        (_classifier, _class_data),
    ])
    def test_warm_started_model_round_trips(self, make, data):
        X, y = data()
        model = make(8).fit(X, y)
        model.fit_more(4, X, y)
        clone = model_from_dict(model_to_dict(model))
        assert model_to_dict(clone) == model_to_dict(model)
        assert np.array_equal(np.asarray(model.predict(X)),
                              np.asarray(clone.predict(X)))

    def test_deserialized_model_can_keep_learning(self):
        """A reloaded model warm-starts deterministically: two clones
        appending the same rounds stay bit-identical (the replayed RNG
        is seeded from (seed, n_trees))."""
        X, y = _data()
        model = _regressor(8, subsample=0.6).fit(X, y)
        payload = model_to_dict(model)
        a = model_from_dict(payload)
        b = model_from_dict(payload)
        a.fit_more(6, X, y)
        b.fit_more(6, X, y)
        _assert_same_model(a, b, X)
        assert len(a._trees) == 14
