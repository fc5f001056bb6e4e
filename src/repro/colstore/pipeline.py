"""End-to-end out-of-core training: store -> clean -> features -> model.

This module is the glue that strings the streaming pieces into one
bounded-memory pipeline (docs/colstore.md):

1. a raw campaign store (``run_campaign(store_dir=...)``),
2. :func:`repro.datasets.cleaning.clean_stream` -- run-at-a-time GPS
   filter / buffer trim / pixelization into a cleaned store,
3. :meth:`repro.fstore.offline.OfflineMaterializer.materialize_store`
   -- shard-by-shard feature-view execution into a feature store whose
   chunk boundaries mirror the cleaned store,
4. :meth:`repro.ml.tree.FeatureBinner.fit_stream` -- quantile-sketch
   bin edges from one pass over the feature chunks,
5. :func:`binned_label_chunks` -- bins every feature chunk *once* into
   a codes store under ``work_dir/codes``: one ``(rows, d)`` uint8
   ``.npy`` per chunk (n*d bytes of disk, 1/8 of the float64 feature
   store), keyed by feature-store digest x bin edges,
6. ``fit_binned_stream`` on the GBDT / random-forest families, which
   re-read that ``(codes, y)`` stream once per pass -- one memory-mapped
   uint8 shard plus the label column per chunk, never the float
   features -- and keep only O(rows) driver state.  Both shards come
   through :class:`ChunkReader`, which parsed their ``.npy`` headers
   once, when it was opened, so a pass only maps each chunk's data,
7. the training-time drift baseline (and, for a refit, the training
   error), scored from the same stream through the models' binned
   entry points: the float features are read once, to bin them.

Every intermediate store is content-addressed, so re-running
:func:`train_from_store` over the same inputs reuses the cleaned and
materialized stores instead of recomputing them.  Peak memory is a few
chunk working sets plus the per-row driver state -- never the campaign
-- and on paper-scale (single-chunk) data the result is bit-identical
to the in-memory path (``tests/colstore/test_colstore_pipeline.py``).
"""

from __future__ import annotations

import os
import pathlib

import numpy as np

from repro import obs
from repro.colstore.manifest import Manifest
from repro.colstore.reader import ChunkReader
from repro.colstore.writer import ShardWriter
from repro.par.cache import fingerprint

__all__ = [
    "STREAM_MODELS",
    "bin_store",
    "binned_label_chunks",
    "feature_matrix_chunks",
    "refit_from_store",
    "streamed_error",
    "streamed_prediction_baseline",
    "train_from_store",
]

#: Model families with an out-of-core ``fit_binned_stream``.
STREAM_MODELS = ("gdbt", "rf")

#: Label column every training task reads from the cleaned store.
LABEL_COLUMN = "throughput_mbps"


def feature_matrix_chunks(feat_reader: ChunkReader, names=None):
    """Yield one float64 design-matrix chunk per feature-store chunk."""
    cols = list(names) if names is not None else feat_reader.column_names
    for tbl in feat_reader.iter_chunks(cols):
        yield np.column_stack([np.asarray(tbl[n], dtype=float)
                               for n in cols])


def bin_store(feat_reader: ChunkReader, max_bins: int = 256,
              sketch_capacity: int | None = None):
    """Fit a :class:`FeatureBinner` from one pass over a feature store."""
    from repro.ml.tree import FeatureBinner

    binner = FeatureBinner(max_bins, sketch_capacity=sketch_capacity)
    return binner.fit_stream(feature_matrix_chunks(feat_reader))


#: The one column of a codes store: a ``(rows, d)`` uint8 matrix per chunk.
_CODES = "codes"


def _bin_once(feat_reader: ChunkReader, binner, out_dir) -> ChunkReader:
    """Bin every feature chunk once into a codes store; a reader over it.

    The store has one ``(rows, d)`` uint8 column per chunk, written by
    :class:`ShardWriter` at the feature store's chunk boundaries, and
    its manifest's ``cache_key`` fingerprints (feature-store digest x
    bin edges) -- so a re-run over the same features and edges reuses
    the codes, and a different binner (a refit's frozen one) rewrites
    them.  Costs n*d bytes of disk.
    """
    if binner.edges_ is None:
        raise RuntimeError("binner is not fitted")
    root = pathlib.Path(out_dir)
    key = fingerprint({
        "colstore_codes": 1,
        "features": feat_reader.manifest.digest(),
        "edges": binner.edges_,
    })
    manifest = None
    if Manifest.exists(root):
        try:
            manifest = Manifest.load(root)
        except ValueError:
            manifest = None  # corrupt/mismatched: rewrite below
    if manifest is None or manifest.meta.get("cache_key") != key:
        writer = ShardWriter(
            root, chunk_rows=max(feat_reader.manifest.chunk_rows, 1),
            meta={"kind": "colstore_codes", "cache_key": key})
        with obs.span("colstore.bin_codes", rows=len(feat_reader)):
            for X in feature_matrix_chunks(feat_reader):
                writer.append({_CODES: binner.transform(X)})
            writer.finalize()
    codes = ChunkReader(root)
    f_rows = [c.rows for c in feat_reader.manifest.chunks]
    c_rows = [c.rows for c in codes.manifest.chunks]
    if c_rows != f_rows:
        raise ValueError(f"codes chunks {c_rows} do not match feature "
                         f"chunks {f_rows}")
    return codes


def binned_label_chunks(feat_reader: ChunkReader, label_reader: ChunkReader,
                        binner, work_dir, label_of=None):
    """A re-iterable ``(binned, y)`` stream for ``fit_binned_stream``.

    ``feat_reader`` and ``label_reader`` must be chunk-aligned --
    :meth:`materialize_store` guarantees that by mirroring its input's
    boundaries, and the manifests are checked here.  The features are
    binned once, here, into a codes store under ``work_dir/codes``
    (:func:`_bin_once`); every pass then maps one uint8 shard per chunk
    plus the label column, never the float features, through readers
    that parsed each shard's header once.  ``label_of`` maps the raw
    label column to training targets (identity by default; the
    classification path turns throughput into class names).
    """
    f_rows = [c.rows for c in feat_reader.manifest.chunks]
    l_rows = [c.rows for c in label_reader.manifest.chunks]
    if f_rows != l_rows:
        raise ValueError(
            f"feature/label stores are not chunk-aligned: {f_rows} vs "
            f"{l_rows}"
        )
    codes = _bin_once(feat_reader, binner,
                      os.path.join(str(work_dir), "codes"))

    def chunks():
        for i in range(codes.n_chunks):
            y = np.asarray(label_reader.read_column(i, LABEL_COLUMN),
                           dtype=float)
            yield (codes.read_column(i, _CODES),
                   label_of(y) if label_of else y)

    return chunks


def _scored_chunks(estimator, feat_reader: ChunkReader, chunks, proba: bool):
    """Per-chunk ``(predictions, y)``; class probabilities with ``proba``.

    Given ``chunks`` -- the ``(binned, y)`` stream
    :func:`binned_label_chunks` built over ``feat_reader`` for the fit
    -- the codes store is scored through the ensemble's binned entry
    points (``predict_binned`` / ``predict_proba_binned``), and the
    float features are neither read nor re-binned; ``y`` comes from the
    stream.  Otherwise each float feature chunk goes through
    ``predict`` / ``predict_proba`` and ``y`` is None.  Both give the
    same predictions bit for bit: the codes are ``binner.transform`` of
    those chunks.
    """
    if chunks is None:
        predict = estimator.predict_proba if proba else estimator.predict
        return ((predict(X), None) for X in feature_matrix_chunks(feat_reader))
    predict = (estimator.predict_proba_binned if proba
               else estimator.predict_binned)
    return ((predict(binned), y) for binned, y in chunks())


def streamed_prediction_baseline(estimator, feat_reader: ChunkReader,
                                 stat: str = "prediction", chunks=None):
    """A :class:`DriftBaseline` over streamed predictions, bounded memory.

    The in-memory path (``Lumos5G.publish``) gathers every training-time
    prediction and calls ``DriftBaseline.from_values``; here predictions
    stream chunk by chunk through a :class:`QuantileSketch` plus moment
    accumulators.  While the sketch has not compacted (its exact
    small-data fast path) the result is bit-identical to the gathered
    computation; past capacity the quantiles are sketch approximations
    and the moments stay exact.  Classifiers summarize their max
    class probability, matching the in-memory publish path.  Pass the
    fit's ``chunks`` to score its codes store instead of re-binning
    ``feat_reader`` (:func:`_scored_chunks`).
    """
    import math

    from repro.colstore.sketch import QuantileSketch
    from repro.obs.telemetry import DriftBaseline

    sketch = QuantileSketch()
    total, acc, acc2 = 0, 0.0, 0.0
    is_classifier = hasattr(estimator, "predict_proba")
    for pred, _ in _scored_chunks(estimator, feat_reader, chunks,
                                  proba=is_classifier):
        if is_classifier:
            values = np.max(pred, axis=1)
        else:
            values = np.asarray(pred, dtype=float).ravel()
        values = values[np.isfinite(values)]
        if values.size == 0:
            continue
        sketch.add(values)
        total += int(values.size)
        acc += float(values.sum())
        acc2 += float(np.dot(values, values))
    if total == 0:
        raise ValueError("no finite predictions to build a baseline from")
    if sketch.exact:
        return DriftBaseline.from_values(stat, sketch.values())
    mean = acc / total
    var = max(acc2 / total - mean * mean, 0.0)
    q10, q50, q90 = (float(q) for q in sketch.quantiles([0.1, 0.5, 0.9]))
    return DriftBaseline(stat=stat, count=total, mean=mean,
                         std=math.sqrt(var), p10=q10, p50=q50, p90=q90)


def streamed_error(estimator, feat_reader: ChunkReader,
                   label_reader: ChunkReader, task: str = "regression",
                   label_of=None, chunks=None) -> dict:
    """Streamed training-set error: MAE/RMSE or error rate, one pass.

    With the fit's ``chunks`` the codes store is scored and the targets
    come from the stream, which already applied ``label_of``
    (:func:`_scored_chunks`); otherwise ``label_reader``'s label column,
    mapped through ``label_of``.
    """
    abs_acc, sq_acc, wrong, n = 0.0, 0.0, 0, 0
    labels = label_reader.iter_chunks([LABEL_COLUMN])
    for pred, y in _scored_chunks(estimator, feat_reader, chunks,
                                  proba=False):
        if y is None:
            raw = np.asarray(next(labels)[LABEL_COLUMN], dtype=float)
            y = label_of(raw) if label_of else raw
        n += len(pred)
        if task == "classification":
            wrong += int(np.sum(np.asarray(pred) != np.asarray(y)))
        else:
            err = np.asarray(pred, dtype=float) - np.asarray(y, dtype=float)
            abs_acc += float(np.abs(err).sum())
            sq_acc += float(np.dot(err, err))
    if n == 0:
        raise ValueError("empty store; nothing to evaluate")
    if task == "classification":
        return {"n": n, "error_rate": wrong / n}
    return {"n": n, "mae": abs_acc / n,
            "rmse": float(np.sqrt(sq_acc / n))}


def _make_stream_model(model: str, task: str, config, seed: int):
    from repro.ml.forest import (
        RandomForestClassifier,
        RandomForestRegressor,
    )
    from repro.ml.gbdt import GBDTClassifier, GBDTRegressor

    if model == "gdbt":
        cls = GBDTRegressor if task == "regression" else GBDTClassifier
        return cls(
            n_estimators=config.gdbt_estimators,
            max_depth=config.gdbt_depth,
            learning_rate=config.gdbt_learning_rate,
            min_samples_leaf=config.gdbt_min_samples_leaf,
            random_state=seed,
        )
    if model == "rf":
        cls = (RandomForestRegressor if task == "regression"
               else RandomForestClassifier)
        return cls(
            n_estimators=config.rf_estimators,
            max_depth=config.rf_depth,
            random_state=seed,
        )
    raise ValueError(
        f"model {model!r} has no streaming fit; choose from {STREAM_MODELS}"
    )


def train_from_store(
    store_dir,
    work_dir,
    *,
    spec: str = "L+M+T+C",
    model: str = "gdbt",
    task: str = "regression",
    config=None,
    seed: int = 2020,
    cleaning=None,
    max_bins: int = 256,
):
    """Train a model from a raw campaign store at bounded memory.

    ``store_dir`` holds the raw telemetry store; intermediates (cleaned
    store, feature store) land under ``work_dir`` and are reused across
    calls via their content-addressed cache keys.  Returns
    ``(fitted_model, info)`` where ``info`` records the cleaning
    report, the view fingerprint, store digests and row counts --
    enough provenance to tie the model back to its exact inputs.
    """
    from repro.core.pipeline import ModelConfig
    from repro.datasets.cleaning import clean_stream
    from repro.fstore.offline import OfflineMaterializer
    from repro.fstore.views import combination_view

    if task not in ("regression", "classification"):
        raise ValueError(f"unknown task {task!r}")
    config = config or ModelConfig()
    raw = ChunkReader(store_dir)
    with obs.span("colstore.train_from_store", rows=len(raw),
                  model=model, task=task, spec=spec):
        cleaned, report = clean_stream(
            raw, os.path.join(str(work_dir), "clean"), cleaning
        )
        if len(cleaned) == 0:
            raise ValueError("cleaning dropped every row; nothing to train")
        view = combination_view(
            spec, past_throughput_lags=config.past_throughput_lags
        )
        feats = OfflineMaterializer(view).materialize_store(
            cleaned, os.path.join(str(work_dir), "features")
        )
        binner = bin_store(feats, max_bins=max_bins)
        label_of = None
        if task == "classification":
            from repro.core.labels import DEFAULT_CLASSES

            label_of = DEFAULT_CLASSES.classify
        chunks = binned_label_chunks(feats, cleaned, binner, work_dir,
                                     label_of=label_of)
        estimator = _make_stream_model(model, task, config, seed)
        estimator.fit_binned_stream(chunks, binner)
        # Store-trained models are drift-monitorable exactly like
        # Lumos5G.publish() output: the training-time prediction
        # baseline rides along (streamed -- the predictions are never
        # gathered) and round-trips through ml.serialize.
        baseline = streamed_prediction_baseline(estimator, feats,
                                                chunks=chunks)
        estimator.drift_baseline_ = baseline.to_dict()
    info = {
        "raw_rows": len(raw),
        "train_rows": len(cleaned),
        "n_chunks": cleaned.n_chunks,
        "cleaning_report": report,
        "view": view.name,
        "view_fingerprint": view.fingerprint(),
        "raw_digest": raw.manifest.digest(),
        "features_digest": feats.manifest.digest(),
        "fit_telemetry": estimator.fit_telemetry_,
        "drift_baseline": estimator.drift_baseline_,
    }
    obs.inc("colstore.models_trained_total")
    return estimator, info


def refit_from_store(
    estimator,
    store_dir,
    work_dir,
    *,
    n_rounds: int,
    spec: str = "L+M+T+C",
    task: str = "regression",
    config=None,
    cleaning=None,
):
    """Warm-start an already-fitted stream model on a fresh campaign store.

    The continuous-learning refit path (docs/continuous_learning.md):
    same clean -> materialize plumbing as :func:`train_from_store`, but
    the feature chunks are binned with the estimator's *own frozen
    binner* and appended via ``fit_more_binned_stream``, so the refit
    consumes the drifted store one chunk at a time -- the fresh data
    never fully materializes.  Attaches a fresh streamed drift baseline
    (the candidate must be monitored against its own training-time
    statistics, not its ancestor's) and returns ``(estimator, info)``
    where ``info["train_error"]`` carries the streamed post-refit error
    the rollout controller's escalation decision reads.
    """
    from repro.core.pipeline import ModelConfig
    from repro.datasets.cleaning import clean_stream
    from repro.fstore.offline import OfflineMaterializer
    from repro.fstore.views import combination_view

    if task not in ("regression", "classification"):
        raise ValueError(f"unknown task {task!r}")
    if getattr(estimator, "_binner", None) is None:
        raise ValueError("estimator must be fitted before refit_from_store")
    config = config or ModelConfig()
    raw = ChunkReader(store_dir)
    with obs.span("colstore.refit_from_store", rows=len(raw),
                  task=task, spec=spec, n_rounds=int(n_rounds)):
        cleaned, report = clean_stream(
            raw, os.path.join(str(work_dir), "clean"), cleaning
        )
        if len(cleaned) == 0:
            raise ValueError("cleaning dropped every row; nothing to refit")
        view = combination_view(
            spec, past_throughput_lags=config.past_throughput_lags
        )
        feats = OfflineMaterializer(view).materialize_store(
            cleaned, os.path.join(str(work_dir), "features")
        )
        label_of = None
        if task == "classification":
            from repro.core.labels import DEFAULT_CLASSES

            label_of = DEFAULT_CLASSES.classify
        chunks = binned_label_chunks(feats, cleaned, estimator._binner,
                                     work_dir, label_of=label_of)
        estimator.fit_more_binned_stream(n_rounds, chunks)
        baseline = streamed_prediction_baseline(estimator, feats,
                                                chunks=chunks)
        estimator.drift_baseline_ = baseline.to_dict()
        train_error = streamed_error(estimator, feats, cleaned, task,
                                     label_of=label_of, chunks=chunks)
    info = {
        "refit_rows": len(cleaned),
        "n_chunks": cleaned.n_chunks,
        "cleaning_report": report,
        "view": view.name,
        "view_fingerprint": view.fingerprint(),
        "raw_digest": raw.manifest.digest(),
        "features_digest": feats.manifest.digest(),
        "fit_telemetry": estimator.fit_telemetry_,
        "drift_baseline": estimator.drift_baseline_,
        "train_error": train_error,
        "n_rounds": int(n_rounds),
    }
    obs.inc("colstore.models_refitted_total")
    return estimator, info
