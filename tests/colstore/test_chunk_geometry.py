"""One tree grower: the chunk geometry never changes a model.

Every tree-ensemble family grows through the same level-order grower,
whether its rows arrive in memory or as a chunk stream, so:

* ``fit(X, y)``, a one-chunk ``fit_binned_stream`` and
  ``train_from_store`` over a store held in one chunk serialize to the
  same bytes;
* ``train_from_store`` over a 3-chunk store (``chunk_rows=2048``)
  serializes like ``fit_binned_stream`` over the same chunks held in
  memory.
"""

import json

import numpy as np
import pytest

from repro.colstore import ChunkReader
from repro.colstore.pipeline import (
    LABEL_COLUMN,
    feature_matrix_chunks,
    train_from_store,
)
from repro.core.labels import DEFAULT_CLASSES
from repro.core.pipeline import ModelConfig
from repro.env.areas import build_area
from repro.ml.serialize import model_to_dict
from repro.ml.tree import FeatureBinner
from repro.sim.collection import CampaignConfig, run_area_campaign

#: ~4,950 cleaned rows: one chunk at WHOLE, three at THREE.
CFG = CampaignConfig(passes_per_trajectory=2, driving_passes=2,
                     stationary_runs=1, stationary_duration_s=20, seed=11)
MODEL_CFG = ModelConfig(
    gdbt_estimators=6, gdbt_depth=5, gdbt_learning_rate=0.2,
    gdbt_min_samples_leaf=5, rf_estimators=4, rf_depth=8,
)
SPEC = "L+M+T+C"
SEED = 7
WHOLE, THREE = 1 << 16, 2048

FAMILIES = [("gdbt", "regression"), ("gdbt", "classification"),
            ("rf", "regression"), ("rf", "classification")]


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """Raw stores of one campaign at both chunk sizes."""
    root = tmp_path_factory.mktemp("geometry")
    env = build_area("Loop")
    for rows in (WHOLE, THREE):
        run_area_campaign(env, CFG, store_dir=root / str(rows) / "raw",
                          chunk_rows=rows)
    return root


def _store_fit(stores, rows, model, task):
    """A store fit plus the store's ``(codes, y)`` chunks, in memory."""
    base = stores / str(rows)
    est, info = train_from_store(base / "raw", base / "work", spec=SPEC,
                                 model=model, task=task, config=MODEL_CFG,
                                 seed=SEED)
    feats = ChunkReader(base / "work" / "features")
    labels = ChunkReader(base / "work" / "clean").iter_chunks([LABEL_COLUMN])
    chunks = []
    for X in feature_matrix_chunks(feats):
        y = np.asarray(next(labels)[LABEL_COLUMN], dtype=float)
        if task == "classification":
            y = DEFAULT_CLASSES.classify(y)
        chunks.append((X, y))
    assert info["n_chunks"] == len(chunks)
    return est, chunks


def _payload(model) -> str:
    data = model_to_dict(model)
    for key in ("telemetry", "drift_baseline", "feature_view"):
        data.pop(key, None)
    return json.dumps(data, sort_keys=True)


class TestChunkGeometry:
    @pytest.mark.parametrize("model,task", FAMILIES)
    def test_every_path_grows_the_same_model(self, stores, model, task):
        # One chunk: fit, a one-chunk stream and the store fit.
        store_fit, chunks = _store_fit(stores, WHOLE, model, task)
        assert len(chunks) == 1
        (X, y), = chunks
        in_memory = MODEL_CFG.estimator(model, task, SEED).fit(X, y)
        binner = FeatureBinner().fit(X)
        streamed = MODEL_CFG.estimator(model, task, SEED)
        streamed.fit_binned_stream(lambda: iter([(binner.transform(X), y)]),
                                   binner)
        assert _payload(in_memory) == _payload(streamed) == \
            _payload(store_fit)
        assert in_memory.predict(X).tobytes() == \
            store_fit.predict(X).tobytes()

        # Three chunks: the store fit is the stream fit of its chunks.
        store_fit, chunks = _store_fit(stores, THREE, model, task)
        assert len(chunks) == 3
        binner = FeatureBinner().fit_stream(X for X, _ in chunks)
        coded = [(binner.transform(X), y) for X, y in chunks]
        streamed = MODEL_CFG.estimator(model, task, SEED)
        streamed.fit_binned_stream(lambda: iter(coded), binner)
        assert _payload(streamed) == _payload(store_fit)
        X = np.vstack([X for X, _ in chunks])
        assert streamed.predict(X).tobytes() == \
            store_fit.predict(X).tobytes()
