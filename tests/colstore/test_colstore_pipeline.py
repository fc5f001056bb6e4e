"""train_from_store: the end-to-end out-of-core pipeline.

The load-bearing claim: on paper-scale (single-chunk) data the store
path produces the *same model* as the in-memory path -- identical
predictions, bit for bit -- while the multi-chunk path is a deterministic
bounded-memory fit of useful quality.
"""

import json

import numpy as np
import pytest

from repro.colstore import ChunkReader
from repro.colstore.pipeline import (
    STREAM_MODELS,
    bin_store,
    binned_label_chunks,
    feature_matrix_chunks,
    train_from_store,
)
from repro.core.labels import DEFAULT_CLASSES
from repro.core.pipeline import ModelConfig
from repro.datasets.cleaning import clean
from repro.env.areas import build_airport
from repro.fstore.views import combination_view
from repro.ml.gbdt import GBDTClassifier, GBDTRegressor
from repro.rollout.refit import RefitConfig, build_candidate
from repro.serve.protocol import RequestCodec
from repro.sim.collection import CampaignConfig, run_area_campaign

CFG = CampaignConfig(passes_per_trajectory=2, driving_passes=1,
                     stationary_runs=1, stationary_duration_s=20, seed=11)
# Tiny budget: the parity claims hold at any hyperparameters, so the
# suite trains the smallest model that still splits meaningfully.
MODEL_CFG = ModelConfig(
    gdbt_estimators=25, gdbt_depth=4, gdbt_learning_rate=0.2,
    gdbt_min_samples_leaf=5, rf_estimators=10, rf_depth=8,
)
SEED = 7


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("stores")
    single = run_area_campaign(build_airport(), CFG,
                               store_dir=root / "single",
                               chunk_rows=1_000_000)
    multi = run_area_campaign(build_airport(), CFG,
                              store_dir=root / "multi", chunk_rows=200)
    return root, single, multi


@pytest.fixture(scope="module")
def reference(stores):
    """In-memory path: gathered table -> clean -> view -> matrices."""
    _, single, _ = stores
    table, _ = clean(single.read_table())
    view = combination_view(
        "L+M+T+C", past_throughput_lags=MODEL_CFG.past_throughput_lags
    )
    X = view.transform_table(table).X
    y = np.asarray(table["throughput_mbps"], dtype=float)
    return X, y


class TestSingleChunkBitIdentity:
    def test_gdbt_regression_matches_in_memory(self, stores, reference):
        root, single, _ = stores
        X, y = reference
        ref = GBDTRegressor(
            n_estimators=MODEL_CFG.gdbt_estimators,
            max_depth=MODEL_CFG.gdbt_depth,
            learning_rate=MODEL_CFG.gdbt_learning_rate,
            min_samples_leaf=MODEL_CFG.gdbt_min_samples_leaf,
            random_state=SEED,
        ).fit(X, y)
        est, info = train_from_store(
            root / "single", root / "w_reg", model="gdbt",
            task="regression", config=MODEL_CFG, seed=SEED,
        )
        assert np.array_equal(ref.predict(X), est.predict(X))
        assert info["n_chunks"] == 1
        assert est.fit_telemetry_["out_of_core"] is True

    def test_gdbt_classification_matches_in_memory(self, stores,
                                                   reference):
        root, single, _ = stores
        X, y = reference
        yc = DEFAULT_CLASSES.classify(y)
        ref = GBDTClassifier(
            n_estimators=MODEL_CFG.gdbt_estimators,
            max_depth=MODEL_CFG.gdbt_depth,
            learning_rate=MODEL_CFG.gdbt_learning_rate,
            min_samples_leaf=MODEL_CFG.gdbt_min_samples_leaf,
            random_state=SEED,
        ).fit(X, yc)
        est, _ = train_from_store(
            root / "single", root / "w_clf", model="gdbt",
            task="classification", config=MODEL_CFG, seed=SEED,
        )
        assert np.array_equal(ref.predict_proba(X), est.predict_proba(X))
        assert np.array_equal(ref.classes_, est.classes_)


class TestMultiChunk:
    def test_regression_quality_and_determinism(self, stores, reference):
        root, _, multi = stores
        X, y = reference
        est1, info = train_from_store(
            root / "multi", root / "wm1", model="gdbt",
            task="regression", config=MODEL_CFG, seed=SEED,
        )
        assert info["n_chunks"] > 1
        r2 = 1 - np.mean((est1.predict(X) - y) ** 2) / np.var(y)
        assert r2 > 0.8
        est2, _ = train_from_store(
            root / "multi", root / "wm2", model="gdbt",
            task="regression", config=MODEL_CFG, seed=SEED,
        )
        assert np.array_equal(est1.predict(X), est2.predict(X))

    def test_rf_stream_quality(self, stores, reference):
        root, _, multi = stores
        X, y = reference
        est, _ = train_from_store(
            root / "multi", root / "wrf", model="rf",
            task="regression", config=MODEL_CFG, seed=SEED,
        )
        r2 = 1 - np.mean((est.predict(X) - y) ** 2) / np.var(y)
        assert r2 > 0.7

    def test_intermediates_are_reused(self, stores):
        root, _, multi = stores
        from repro import obs

        obs.set_enabled(True)
        try:
            train_from_store(root / "multi", root / "wreuse",
                             model="gdbt", task="regression",
                             config=MODEL_CFG, seed=SEED)
            registry = obs.get_registry()
            before = registry.counter("fstore.cache_hits_total").value
            train_from_store(root / "multi", root / "wreuse",
                             model="gdbt", task="regression",
                             config=MODEL_CFG, seed=SEED)
            assert registry.counter(
                "fstore.cache_hits_total").value > before
        finally:
            obs.set_enabled(False)


class TestPlumbing:
    def test_bin_store_matches_in_memory_binner(self, stores, reference):
        root, _, multi = stores
        X, _ = reference
        from repro.datasets.cleaning import clean_stream
        from repro.fstore.offline import OfflineMaterializer

        cleaned, _ = clean_stream(ChunkReader(root / "multi"),
                                  root / "binclean")
        view = combination_view(
            "L+M+T+C",
            past_throughput_lags=MODEL_CFG.past_throughput_lags,
        )
        feats = OfflineMaterializer(view).materialize_store(
            cleaned, root / "binfeats")
        streamed = bin_store(feats)
        from repro.ml.tree import FeatureBinner

        exact = FeatureBinner(256).fit(X)
        assert len(streamed.edges_) == len(exact.edges_)
        for a, b in zip(streamed.edges_, exact.edges_):
            assert np.array_equal(a, b)

    def test_misaligned_stores_rejected(self, stores):
        root, single, multi = stores
        from repro.datasets.cleaning import clean_stream

        c1, _ = clean_stream(single, root / "c1")
        c2, _ = clean_stream(multi, root / "c2")
        binner = object()
        with pytest.raises(ValueError, match="chunk-aligned"):
            binned_label_chunks(c1, c2, binner, root / "wcodes")

    def test_unknown_model_and_task_rejected(self, stores):
        root, _, _ = stores
        with pytest.raises(ValueError, match="streaming fit"):
            train_from_store(root / "multi", root / "wx", model="knn",
                             config=MODEL_CFG)
        with pytest.raises(ValueError, match="unknown task"):
            train_from_store(root / "multi", root / "wx", task="ranking",
                             config=MODEL_CFG)
        assert STREAM_MODELS == ("gdbt", "rf")


class TestViewStamp:
    """Store-trained models carry the feature view they were trained on,
    so they serve raw ``"row"`` requests like ``Lumos5G.publish`` output."""

    def test_stamp_serves_rows_like_features(self, stores):
        root, _, _ = stores
        work = root / "wstamp"
        est, info = train_from_store(root / "multi", work, spec="L+M",
                                     config=MODEL_CFG, seed=SEED)
        assert est.feature_view_["fingerprint"] == info["view_fingerprint"]
        codec = RequestCodec(est)
        assert codec.feature_server is not None
        table = next(ChunkReader(work / "clean").iter_chunks())
        row = {name: (v if isinstance(v, str) else float(v))
               for name, v in ((n, table[n][0]) for n in table.column_names)}
        features = next(feature_matrix_chunks(
            ChunkReader(work / "features")))[0]
        _, from_row = codec.parse_request(json.dumps({"row": row}))
        _, from_features = codec.parse_request(
            json.dumps({"features": features.tolist()}))
        assert from_row.tobytes() == from_features.tobytes()
        assert est.predict(from_row[None]).tobytes() == \
            est.predict(from_features[None]).tobytes()

    def test_cold_retrain_candidate_is_stamped(self, stores, tmp_path):
        root, _, _ = stores
        serving, _ = train_from_store(root / "multi", root / "wserving",
                                      config=MODEL_CFG, seed=SEED)
        candidate, info = build_candidate(
            serving, root / "multi", tmp_path,
            refit=RefitConfig(n_rounds=2, escalate_mae_mbps=0.0),
            model_config=MODEL_CFG, seed=SEED)
        assert info["escalated"] is True
        assert candidate.feature_view_["fingerprint"] == \
            info["view_fingerprint"] == serving.feature_view_["fingerprint"]
