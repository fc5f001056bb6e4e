"""Tests for GBDT model serialization (``model_to_dict`` and friends)."""

import json

import numpy as np
import pytest

from repro.ml.gbdt import GBDTClassifier, GBDTRegressor
from repro.ml.serialize import (
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
)


def fitted_regressor():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 3))
    y = 2 * X[:, 0] + np.sin(X[:, 1]) + rng.normal(0, 0.1, 400)
    return GBDTRegressor(n_estimators=20, max_depth=3,
                         random_state=0).fit(X, y), X, y


def fitted_classifier():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(400, 2))
    y = np.where(X[:, 0] > 0, "hi", "lo").astype(object)
    return GBDTClassifier(n_estimators=15, max_depth=3,
                          random_state=0).fit(X, y), X, y


class TestRegressorRoundtrip:
    def test_predictions_identical(self):
        model, X, _ = fitted_regressor()
        clone = model_from_json(model_to_json(model))
        np.testing.assert_allclose(clone.predict(X), model.predict(X))

    def test_feature_importances_preserved(self):
        model, _, _ = fitted_regressor()
        clone = model_from_dict(model_to_dict(model))
        np.testing.assert_allclose(clone.feature_importances_,
                                   model.feature_importances_)

    def test_payload_is_valid_json(self):
        model, _, _ = fitted_regressor()
        payload = model_to_json(model)
        parsed = json.loads(payload)
        assert parsed["kind"] == "regressor"
        assert len(parsed["trees"]) == 20


class TestClassifierRoundtrip:
    def test_predictions_identical(self):
        model, X, _ = fitted_classifier()
        clone = model_from_json(model_to_json(model))
        assert clone.predict(X).tolist() == model.predict(X).tolist()
        np.testing.assert_allclose(clone.predict_proba(X),
                                   model.predict_proba(X))

    def test_classes_preserved(self):
        model, _, _ = fitted_classifier()
        clone = model_from_dict(model_to_dict(model))
        assert set(clone.classes_.tolist()) == {"hi", "lo"}


class TestValidation:
    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            model_to_dict(GBDTRegressor())

    def test_bad_version_rejected(self):
        model, _, _ = fitted_regressor()
        data = model_to_dict(model)
        data["format_version"] = 999
        with pytest.raises(ValueError):
            model_from_dict(data)


class TestTelemetryRoundtrip:
    def test_fit_telemetry_preserved(self):
        model, _, _ = fitted_regressor()
        assert model.fit_telemetry_["model"] == "gbdt_regressor"
        assert model.fit_telemetry_["rounds_completed"] == 20
        clone = model_from_json(model_to_json(model))
        assert clone.fit_telemetry_ == model.fit_telemetry_

    def test_telemetry_key_optional(self):
        model, X, _ = fitted_regressor()
        data = model_to_dict(model)
        del data["telemetry"]  # payloads from older builds lack the key
        clone = model_from_dict(data)
        assert clone.fit_telemetry_ is None
        np.testing.assert_allclose(clone.predict(X), model.predict(X))
