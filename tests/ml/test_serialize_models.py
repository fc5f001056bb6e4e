"""Serialize round-trips for forests, scalers, pipelines and dispatch.

``tests/ml/test_serialize.py`` covers the GBDT family; this file covers
what the serving registry added: RandomForest
(regressor + classifier), StandardScaler, PredictionPipeline, and the
generic ``model_to_dict`` / ``model_from_dict`` dispatch the registry
speaks.  Every round-trip must reproduce predictions exactly.
"""

import json

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GBDTRegressor
from repro.ml.knn import KNNRegressor
from repro.ml.preprocessing import PredictionPipeline, StandardScaler
from repro.ml.serialize import (
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    pipeline_from_dict,
    pipeline_to_dict,
    scaler_from_dict,
    scaler_to_dict,
)


def _data(seed=0, n=300, d=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = X[:, 0] - X[:, 2] + rng.normal(0, 0.2, n)
    return X, y


class TestForestRoundtrip:
    def test_regressor_predictions_identical(self):
        X, y = _data()
        model = RandomForestRegressor(n_estimators=10, max_depth=6,
                                      random_state=0).fit(X, y)
        clone = model_from_dict(model_to_dict(model))
        np.testing.assert_array_equal(clone.predict(X), model.predict(X))

    def test_classifier_proba_and_classes_identical(self):
        X, _ = _data(seed=1)
        y = np.where(X[:, 0] > 0, "hi", "lo").astype(object)
        model = RandomForestClassifier(n_estimators=8, max_depth=5,
                                       random_state=0).fit(X, y)
        clone = model_from_dict(model_to_dict(model))
        np.testing.assert_array_equal(clone.predict_proba(X),
                                      model.predict_proba(X))
        assert clone.predict(X).tolist() == model.predict(X).tolist()
        assert clone.classes_.tolist() == model.classes_.tolist()

    def test_fit_telemetry_preserved(self):
        X, y = _data(seed=11)
        model = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y)
        assert model.fit_telemetry_["model"] == "rf_regressor"
        assert model.fit_telemetry_["n_trees"] == 3
        clone = model_from_dict(model_to_dict(model))
        assert clone.fit_telemetry_ == model.fit_telemetry_

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            model_to_dict(RandomForestRegressor())

    def test_bad_version_rejected(self):
        X, y = _data(seed=3)
        payload = model_to_dict(
            RandomForestRegressor(n_estimators=2, random_state=0).fit(X, y)
        )
        payload["format_version"] = 999
        with pytest.raises(ValueError):
            model_from_dict(payload)


class TestScalerRoundtrip:
    def test_transform_identical(self):
        X, _ = _data(seed=4)
        scaler = StandardScaler().fit(X)
        clone = scaler_from_dict(scaler_to_dict(scaler))
        np.testing.assert_array_equal(clone.transform(X),
                                      scaler.transform(X))

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            scaler_to_dict(StandardScaler())


class TestPipelineRoundtrip:
    def test_scaled_pipeline_predictions_identical(self):
        X, y = _data(seed=5)
        pipe = PredictionPipeline(
            GBDTRegressor(n_estimators=10, max_depth=3, random_state=0),
            scaler=StandardScaler(),
        ).fit(X, y)
        clone = pipeline_from_dict(pipeline_to_dict(pipe))
        assert clone.scaler is not None
        np.testing.assert_array_equal(clone.predict(X), pipe.predict(X))

    def test_scalerless_pipeline(self):
        X, y = _data(seed=6)
        pipe = PredictionPipeline(
            GBDTRegressor(n_estimators=5, random_state=0)
        ).fit(X, y)
        payload = pipeline_to_dict(pipe)
        assert payload["scaler"] is None
        clone = pipeline_from_dict(payload)
        assert clone.scaler is None
        np.testing.assert_array_equal(clone.predict(X), pipe.predict(X))

    def test_n_features_exposed_for_serving(self):
        X, y = _data(seed=7)
        pipe = PredictionPipeline(
            GBDTRegressor(n_estimators=3, random_state=0)
        ).fit(X, y)
        assert pipe.n_features_ == X.shape[1]


class TestGenericDispatch:
    def test_kind_tags_route_back_to_same_type(self):
        X, y = _data(seed=8)
        labels = np.where(X[:, 1] > 0, "hi", "lo").astype(object)
        models = [
            GBDTRegressor(n_estimators=3, random_state=0).fit(X, y),
            RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y),
            RandomForestClassifier(n_estimators=3, random_state=0).fit(X, labels),
            StandardScaler().fit(X),
            PredictionPipeline(
                GBDTRegressor(n_estimators=3, random_state=0)
            ).fit(X, y),
        ]
        for model in models:
            clone = model_from_dict(model_to_dict(model))
            assert type(clone) is type(model)

    def test_json_twins_round_trip(self):
        X, y = _data(seed=9)
        model = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y)
        payload = model_to_json(model, sort_keys=True)
        json.loads(payload)  # valid JSON text
        clone = model_from_json(payload)
        np.testing.assert_array_equal(clone.predict(X), model.predict(X))

    def test_unsupported_model_rejected(self):
        X, y = _data(seed=10)
        with pytest.raises(TypeError, match="cannot serialize"):
            model_to_dict(KNNRegressor().fit(X, y))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            model_from_dict({"format_version": 1, "kind": "mystery"})
