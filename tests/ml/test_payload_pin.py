"""Serialized tree ensembles, pinned byte for byte.

One small model per ensemble family is fitted on seeded data and
serialized with ``model_to_dict``; the sha256 of its ``json.dumps`` --
unsorted, so the key order is pinned too -- must not move.  The
``telemetry`` entry is dropped first: it carries the fit's wall clock.
Each model also carries a drift baseline and a feature-view stamp, so
their place in the payload is pinned as well.  A refactor of the
ensemble or serializer layer that keeps these digests writes the same
payloads, key for key and float for float.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GBDTClassifier, GBDTQuantileRegressor, GBDTRegressor
from repro.ml.serialize import model_from_dict, model_to_dict


def _data(seed=2021):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(240, 4))
    X[rng.random(X.shape) < 0.03] = np.nan
    y = 3.0 * np.nan_to_num(X[:, 0]) - np.abs(np.nan_to_num(X[:, 2])) \
        + rng.normal(0, 0.3, len(X))
    labels = np.asarray(["Low", "Medium", "High"])[
        np.digitize(y, np.quantile(y, [1 / 3, 2 / 3]))]
    return X, y, labels


FAMILIES = {
    "gbdt_regressor": (lambda: GBDTRegressor(
        n_estimators=6, max_depth=3, subsample=0.8, random_state=1), False),
    "gbdt_quantile": (lambda: GBDTQuantileRegressor(
        quantile=0.8, n_estimators=5, max_depth=3, random_state=2), False),
    "gbdt_classifier": (lambda: GBDTClassifier(
        n_estimators=4, max_depth=3, random_state=3), True),
    "rf_regressor": (lambda: RandomForestRegressor(
        n_estimators=4, max_depth=5, random_state=4), False),
    "rf_classifier": (lambda: RandomForestClassifier(
        n_estimators=4, max_depth=5, random_state=5), True),
}

#: sha256 of ``json.dumps(model_to_dict(model))`` without ``telemetry``.
DIGESTS = {
    "gbdt_regressor":
        "03da45e71874d132a7cee1c0afafe23977c5bcc8196d73ee9b1639aad3720f2e",
    "gbdt_quantile":
        "5079b8eb7ffbf67b42b43e17fb353f297dfa8813f552bf883486cab4155d7f3f",
    "gbdt_classifier":
        "821a15503c7a86ba925aa1eb8bfd06028102cdc6411d2320c9ad9afbc8f1dc45",
    "rf_regressor":
        "5f91095c22c005fc47c4d1ea744d40cb37108c6854dbde2e595c21d316626e88",
    "rf_classifier":
        "a9b878d92eb087cb63bf23a805d0098a00dbb62b3bfa76fe05f19d61c29528fa",
}


def _fit(family):
    make, classify = FAMILIES[family]
    X, y, labels = _data()
    model = make().fit(X, labels if classify else y)
    model.drift_baseline_ = {"n": 240, "mean": 0.25, "std": 1.5}
    model.feature_view_ = {"view": "L", "version": 1, "fingerprint": "ab12"}
    return model


def _digest(payload: dict) -> str:
    payload = {k: v for k, v in payload.items() if k != "telemetry"}
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_payload_digest_pinned(family):
    assert _digest(model_to_dict(_fit(family))) == DIGESTS[family]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reloaded_model_writes_the_same_payload(family):
    payload = model_to_dict(_fit(family))
    assert model_to_dict(model_from_dict(payload)) == payload
