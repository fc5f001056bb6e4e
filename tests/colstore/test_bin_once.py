"""Bin once: store-path fits read uint8 codes, never re-bin features.

``binned_label_chunks`` bins every feature chunk once, into a codes
store under the caller's ``work_dir``; every later pass of the fit maps
one uint8 shard per chunk.  Three claims:

* **Read-count guard** -- inside ``fit_binned_stream`` the binner's
  ``transform`` runs zero times and the feature store is never read,
  however many rounds (trees) the fit grows; nor in scoring the fitted
  model's drift baseline and training error from the same stream.
* **Bit identity** -- a ``train_from_store`` model serializes exactly
  like the same estimator fit on an in-memory stream of
  ``binner.transform(X)`` chunks (the per-pass re-binning the codes
  store replaces, kept here as the oracle).
* **Content addressing** -- the codes store is reused for the same
  features and edges and rewritten for a different binner.
* **Header parsed once** -- each codes and label shard's ``.npy`` header
  is parsed once, by the readers the stream is built on, and never
  during the fit's or the scoring's passes.
"""

import collections
import json
import math

import numpy as np
import pytest

from repro.colstore import ChunkReader, Manifest
from repro.colstore.pipeline import (
    LABEL_COLUMN,
    _make_stream_model,
    bin_store,
    binned_label_chunks,
    feature_matrix_chunks,
    streamed_error,
    streamed_prediction_baseline,
    train_from_store,
)
from repro.core.labels import DEFAULT_CLASSES
from repro.core.pipeline import ModelConfig
from repro.datasets.cleaning import clean, clean_stream
from repro.env.areas import build_airport
from repro.fstore.offline import OfflineMaterializer
from repro.fstore.views import combination_view
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbdt import GBDTClassifier, GBDTRegressor
from repro.ml.serialize import model_to_dict
from repro.ml.tree import FeatureBinner
from repro.sim.collection import CampaignConfig, run_area_campaign

CFG = CampaignConfig(passes_per_trajectory=2, driving_passes=1,
                     stationary_runs=1, stationary_duration_s=20, seed=11)
MODEL_CFG = ModelConfig(
    gdbt_estimators=8, gdbt_depth=4, gdbt_learning_rate=0.2,
    gdbt_min_samples_leaf=5, rf_estimators=4, rf_depth=6,
)
SPEC = "L+M+T+C"
SEED = 7
N_CHUNKS = 3


@pytest.fixture(scope="module")
def raw_store(tmp_path_factory):
    """A raw store whose cleaned (and feature) stores hold 3 chunks."""
    root = tmp_path_factory.mktemp("bin_once")
    table = run_area_campaign(build_airport(), CFG)
    cleaned_rows = len(clean(table)[0])
    run_area_campaign(build_airport(), CFG, store_dir=root / "raw",
                      chunk_rows=math.ceil(cleaned_rows / N_CHUNKS))
    return root


@pytest.fixture(scope="module")
def stores(raw_store):
    """(feature store, cleaned store, fitted binner) over 3 chunks."""
    cleaned, _ = clean_stream(ChunkReader(raw_store / "raw"),
                              raw_store / "clean")
    view = combination_view(
        SPEC, past_throughput_lags=MODEL_CFG.past_throughput_lags)
    feats = OfflineMaterializer(view).materialize_store(
        cleaned, raw_store / "features")
    assert feats.n_chunks == N_CHUNKS
    return feats, cleaned, bin_store(feats)


class _Counts:
    """Counts ``FeatureBinner.transform`` calls and feature-store reads."""

    def __init__(self, monkeypatch, feats):
        self.transform = 0
        self.read_chunk = 0
        transform = FeatureBinner.transform
        read_chunk = feats.read_chunk

        def counted_transform(binner, X):
            self.transform += 1
            return transform(binner, X)

        def counted_read_chunk(*args, **kwargs):
            self.read_chunk += 1
            return read_chunk(*args, **kwargs)

        monkeypatch.setattr(FeatureBinner, "transform", counted_transform)
        monkeypatch.setattr(feats, "read_chunk", counted_read_chunk)

    def take(self) -> tuple[int, int]:
        out = (self.transform, self.read_chunk)
        self.transform = self.read_chunk = 0
        return out


class TestReadCountGuard:
    @pytest.mark.parametrize("rounds", [5, 10])
    @pytest.mark.parametrize("family", [GBDTRegressor, RandomForestRegressor])
    def test_fit_never_rebins_or_reads_features(self, stores, tmp_path,
                                                monkeypatch, family,
                                                rounds):
        feats, cleaned, binner = stores
        counts = _Counts(monkeypatch, feats)
        chunks = binned_label_chunks(feats, cleaned, binner, tmp_path)
        # Building the stream bins each feature chunk exactly once ...
        assert counts.take() == (N_CHUNKS, N_CHUNKS)
        est = family(n_estimators=rounds, max_depth=4,
                     random_state=SEED).fit_binned_stream(chunks, binner)
        # ... and the fit, however many trees it grows, does neither,
        # nor does scoring the fitted model from the same stream.
        streamed_prediction_baseline(est, feats, chunks=chunks)
        streamed_error(est, feats, cleaned, chunks=chunks)
        assert counts.take() == (0, 0)

    def test_rebuilt_stream_reuses_codes(self, stores, tmp_path,
                                         monkeypatch):
        feats, cleaned, binner = stores
        binned_label_chunks(feats, cleaned, binner, tmp_path)
        counts = _Counts(monkeypatch, feats)
        binned_label_chunks(feats, cleaned, binner, tmp_path)
        assert counts.take() == (0, 0)


class TestHeaderParsedOnce:
    @pytest.mark.parametrize("family", [GBDTRegressor, RandomForestRegressor])
    def test_no_header_parse_during_passes(self, raw_store, stores,
                                           tmp_path, monkeypatch, family):
        # Fresh readers over the ``stores`` fixture's feature and
        # cleaned stores, opened while headers are counted.
        # Count every .npy header numpy parses, by file: np.load and the
        # public header readers all go through this one module function.
        npy_format = np.lib.format.read_array_header_1_0.__globals__
        parse = npy_format["_read_array_header"]
        parsed = collections.Counter()

        def counted(fp, *args, **kwargs):
            parsed[fp.name] += 1
            return parse(fp, *args, **kwargs)

        monkeypatch.setitem(npy_format, "_read_array_header", counted)
        feats = ChunkReader(raw_store / "features")
        cleaned = ChunkReader(raw_store / "clean")
        binner = bin_store(feats)
        chunks = binned_label_chunks(feats, cleaned, binner, tmp_path)
        codes = Manifest.load(tmp_path / "codes")
        streamed = {str(tmp_path / "codes" / c.files["codes"])
                    for c in codes.chunks}
        streamed |= {str(raw_store / "clean" / c.files[LABEL_COLUMN])
                     for c in cleaned.manifest.chunks}
        assert len(streamed) == 2 * N_CHUNKS
        assert {p: parsed[p] for p in streamed} == dict.fromkeys(streamed, 1)
        assert max(parsed.values()) == 1
        parsed.clear()
        est = family(n_estimators=5, max_depth=4,
                     random_state=SEED).fit_binned_stream(chunks, binner)
        streamed_prediction_baseline(est, feats, chunks=chunks)
        streamed_error(est, feats, cleaned, chunks=chunks)
        assert est.fit_telemetry_
        assert parsed == {}


class TestScoringTheCodes:
    """Scoring the codes store gives what re-binning the features gave."""

    @pytest.mark.parametrize("family,task", [
        (GBDTRegressor, "regression"),
        (GBDTClassifier, "classification"),
        (RandomForestRegressor, "regression"),
    ])
    def test_baseline_and_error_bit_identical(self, stores, tmp_path,
                                              family, task):
        feats, cleaned, binner = stores
        label_of = (DEFAULT_CLASSES.classify if task == "classification"
                    else None)
        chunks = binned_label_chunks(feats, cleaned, binner, tmp_path,
                                     label_of=label_of)
        est = family(n_estimators=6, max_depth=4,
                     random_state=SEED).fit_binned_stream(chunks, binner)
        assert streamed_prediction_baseline(est, feats, chunks=chunks) == \
            streamed_prediction_baseline(est, feats)
        assert streamed_error(est, feats, cleaned, task, label_of=label_of,
                              chunks=chunks) == \
            streamed_error(est, feats, cleaned, task, label_of=label_of)


class TestCodesStore:
    def test_codes_are_the_binned_features(self, stores, tmp_path):
        feats, cleaned, binner = stores
        chunks = binned_label_chunks(feats, cleaned, binner, tmp_path)
        labels = cleaned.iter_chunks([LABEL_COLUMN])
        got = list(chunks())
        assert len(got) == N_CHUNKS
        for (codes, y), X, want_y in zip(got, feature_matrix_chunks(feats),
                                         labels):
            want = binner.transform(X)
            assert codes.dtype == np.uint8 and codes.shape == want.shape
            assert codes.tobytes() == want.tobytes()
            assert np.array_equal(y, want_y[LABEL_COLUMN])

    def test_other_binner_rewrites_codes(self, stores, tmp_path):
        feats, cleaned, binner = stores
        binned_label_chunks(feats, cleaned, binner, tmp_path)
        key = Manifest.load(tmp_path / "codes").meta["cache_key"]
        coarse = bin_store(feats, max_bins=16)
        chunks = binned_label_chunks(feats, cleaned, coarse, tmp_path)
        manifest = Manifest.load(tmp_path / "codes")
        assert manifest.meta["cache_key"] != key
        assert [c.rows for c in manifest.chunks] == \
            [c.rows for c in feats.manifest.chunks]
        for (codes, _), X in zip(chunks(), feature_matrix_chunks(feats)):
            assert codes.tobytes() == coarse.transform(X).tobytes()


def _payload(model) -> str:
    data = model_to_dict(model)
    data.pop("telemetry", None)
    return json.dumps(data, sort_keys=True)


class TestStoreFitEqualsRebinningOracle:
    @pytest.mark.parametrize("model,task", [
        ("gdbt", "regression"),
        ("gdbt", "classification"),
        ("rf", "regression"),
    ])
    def test_bit_identical(self, raw_store, tmp_path, model, task):
        est, info = train_from_store(
            raw_store / "raw", tmp_path, spec=SPEC, model=model, task=task,
            config=MODEL_CFG, seed=SEED)
        assert info["n_chunks"] == N_CHUNKS
        feats = ChunkReader(tmp_path / "features")
        cleaned = ChunkReader(tmp_path / "clean")
        binner = bin_store(feats)
        label_of = (DEFAULT_CLASSES.classify if task == "classification"
                    else None)
        # The oracle: every chunk re-binned from its float features.
        oracle_chunks = []
        labels = cleaned.iter_chunks([LABEL_COLUMN])
        for X in feature_matrix_chunks(feats):
            y = np.asarray(next(labels)[LABEL_COLUMN], dtype=float)
            oracle_chunks.append(
                (binner.transform(X), label_of(y) if label_of else y))
        oracle = _make_stream_model(model, task, MODEL_CFG, SEED)
        oracle.fit_binned_stream(lambda: iter(oracle_chunks), binner)
        oracle.drift_baseline_ = streamed_prediction_baseline(
            oracle, feats).to_dict()
        assert _payload(est) == _payload(oracle)
