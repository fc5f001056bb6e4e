"""The three benchmark workloads, driven through the repo's public API.

Each ``run_<name>(run)`` spends ``run.seconds`` in :data:`CYCLES`
cycles of one seeded set-up (the median is ``setup_s``) followed by
timed passes, checks the program's outputs, and reports through
:func:`report`: every end-to-end metric of ``BENCHMARK.json`` on an
untraced run, every per-layer metric on a traced one, whatever the
workload (a layer the workload does not reach reads 0).  With
``run.trace`` the timed work alternates untraced and traced passes and
the per-layer metrics come from the traced ones (``perfbench/README.md``
explains the choices and the layer -> end-to-end map).
"""

from __future__ import annotations

import asyncio
import gc
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro import cli
from repro.colstore import pipeline as colstore_pipeline
from repro.core.labels import classify_throughput
from repro.core.pipeline import Lumos5G, ModelConfig
from repro.datasets import cleaning, generate
from repro.env.areas import build_area
from repro.fstore import PAST_THROUGHPUT_FIELD
from repro.fstore.offline import OfflineMaterializer
from repro.fstore.online import OnlineFeatureServer
from repro.fstore.views import combination_view
from repro.gateway import AsyncGateway, GatewayConfig
from repro.gateway.shard import PredictorShard
from repro.ml import serialize
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GBDTClassifier, GBDTRegressor
from repro.ml.knn import KNNClassifier, KNNRegressor
from repro.ml.metrics import weighted_f1
from repro.serve import ModelRegistry, registry as serve_registry
from repro.serve.protocol import RequestCodec
from repro.serve.service import InferenceService
from repro.sim import collection
from repro.sim.collection import CampaignConfig

from harness import Metrics, check, median
from tracer import (
    SpanRecorder,
    covered_seconds,
    layer_seconds,
    match_queue_waits,
    outermost,
)

#: Set-up + timed-work cycles per run; ``setup_s`` is the median set-up.
CYCLES = 5
#: Fixed model seed: the workload seed only shapes the inputs.
MODEL_SEED = 42

#: The bench profile of ``benchmarks/conftest.py`` (laptop-sized Table
#: 7-9 budgets), restated here so the benchmark imports only ``src/``;
#: ``tests/test_profile.py`` holds the two copies equal.
BENCH_MODEL_CONFIG = ModelConfig(
    gdbt_estimators=120, gdbt_depth=6, gdbt_learning_rate=0.1,
    gdbt_min_samples_leaf=10, seq2seq_hidden=32, seq2seq_layers=1,
    seq2seq_epochs=10, seq2seq_batch=512, seq2seq_lr=3e-3, input_len=20,
    output_len=1, window_stride=4, knn_k=5, rf_estimators=50, rf_depth=12,
)

# paper_eval: GDBT regression (Table 8) and classification (Table 7)
# cells, plus the RF and KNN baselines (Table 9) on one cell.
PAPER_AREAS = ("Airport", "Intersection", "Loop")
PAPER_PASSES = 1
REGRESSION_CELLS = (("Intersection", "T+M"), ("Loop", "L+M"))
CLASSIFICATION_CELLS = (("Loop", "L+M"),)
BASELINE_CELL = ("Airport", "T+M")
BASELINE_MODELS = ("rf", "knn")

# campaign_store: multi-chunk out-of-core training.
STORE_AREA = "Intersection"
STORE_PASSES = 2
STORE_CHUNK_ROWS = 2048
STORE_SPEC = "T+M"
#: ``ModelConfig.fast()`` with half its rounds: shorter steps per pass.
STORE_ROUNDS = 30
HOLDOUT_PASSES = 1
HOLDOUT_SEED_OFFSET = 7919

# serve_*: a fast GDBT published from half the runs of one campaign; the
# other half are the held-out requests.
SERVE_AREA = "Intersection"
SERVE_PASSES = 2
SERVE_SPEC = "L+M+C"
#: serve's gateway step, a closed loop: requests in flight on its one connection
#: (above ``GatewayConfig.max_batch_size`` so batches fill, below
#: ``queue_depth`` so admission never sheds).
IN_FLIGHT = 48
#: Requests of the untimed warm-up through a new gateway.
WARMUP_REQUESTS = 256
UE_KEYS = 100

#: Layers whose self time every traced run reports, as ``<layer>_s``.
TIMED_LAYERS = (
    "datasets.clean", "fstore.materialize", "fstore.online", "colstore.bin",
    "ml.fit", "ml.fit_stream", "ml.baseline", "ml.predict", "ml.serialize",
    "serve.registry_save", "serve.registry_load", "serve.parse",
    "serve.encode", "gateway.submit",
)
#: Per-layer facts a workload reads off its own results; 0 where the
#: workload has none (no store, no serialized model, no gateway).
FACTS = {"colstore.chunks": "count", "colstore.bytes_written": "B",
         "ml.model_bytes": "B", "gateway.shed": "count"}


@dataclass
class Run:
    """One benchmark invocation: its arguments and what it measured."""

    seed: int
    seconds: float
    trace: bool
    tmp: str
    recorder: SpanRecorder = field(default_factory=SpanRecorder)
    metrics: Metrics = field(default_factory=Metrics)
    attempted: int = 0
    failed: int = 0
    #: Human-readable lines for stderr (sample counts, windows).
    notes: list[str] = field(default_factory=list)
    #: ``(lo, hi)`` perf_counter windows of the traced passes.
    traced_windows: list[tuple[float, float]] = field(default_factory=list)
    #: Serve-loop counters read from public attributes (traced passes).
    counters: dict = field(default_factory=lambda: dict.fromkeys(
        ("batches", "predicted_rows", "cache_hits"), 0))

    def fresh_dir(self, label: str) -> str:
        path = os.path.join(self.tmp, f"{label}-{len(os.listdir(self.tmp))}")
        os.makedirs(path)
        return path

    def traced_spans(self):
        return [s for lo, hi in self.traced_windows
                for s in self.recorder.between(lo, hi)]


# --------------------------------------------------------------------------- #
# Shared pieces
# --------------------------------------------------------------------------- #


def _campaign(seed: int, passes: int) -> CampaignConfig:
    return CampaignConfig(passes_per_trajectory=passes,
                          driving_passes=passes, stationary_runs=1,
                          stationary_duration_s=60, seed=seed)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes() if a.dtype != object
                 else "\x00".join(map(str, a)).encode())
    return h.hexdigest()


def _table_digest(table) -> str:
    return _digest(*(table[c] for c in table.column_names))


def _model_digest(payload: str) -> str:
    """A serialized model minus its fit-time wall clock."""
    data = json.loads(payload)
    data.pop("telemetry", None)
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()


def setups(run: Run, make, digest):
    """Set up once per cycle; yield ``(state, deadline)`` for each.

    The run is :data:`CYCLES` cycles, each a set-up in a fresh directory
    followed by timed work until the cycle's ``deadline`` (its share of
    ``run.seconds``).  Spreading the set-ups over the whole run lets
    ``setup_s`` sample the host the way the timed passes do, instead of
    the few seconds after start-up.  Every set-up must produce the same
    ``digest(state)``: seeded set-up is deterministic.  ``setup_s`` is
    the median.  Imports are done before the first clock starts.
    """
    times, digests, campaign_s = [], [], []
    t_start = time.perf_counter()
    for i in range(CYCLES):
        d = run.fresh_dir("setup")
        run.recorder.enabled = run.trace
        t0 = time.perf_counter()
        state = make(d)
        t1 = time.perf_counter()
        run.recorder.enabled = False
        times.append(t1 - t0)
        digests.append(digest(state))
        # Collect the set-up's garbage now, untimed: left to the collector
        # it lands as a 30-50 ms full collection in the timed work next.
        gc.collect()
        if run.trace:
            spans = run.recorder.between(t0, t1)
            campaign_s.append(layer_seconds(spans).get("sim.campaign", 0.0))
        yield state, t_start + (i + 1) * run.seconds / CYCLES
    check(len(set(digests)) == 1,
          f"seeded set-up is not deterministic: {digests}")
    if run.trace:
        run.metrics.add("sim.campaign_s", median(campaign_s), "s")
    else:
        run.metrics.add("setup_s", median(times), "s")
    run.notes.append("setup_s samples: "
                     + ", ".join(f"{t:.3f}" for t in times))


@dataclass
class Pass:
    """One timed pass: its wall clock, result and per-step seconds."""

    wall: float
    result: object
    traced: bool
    steps: list[float]


@contextlib.contextmanager
def step(steps: list[float]):
    """Time one step of a pass into ``steps``."""
    t0 = time.perf_counter()
    yield
    steps.append(time.perf_counter() - t0)


def timed_passes(run: Run, make, digest, body) -> list[Pass]:
    """Alternate set-ups (see :func:`setups`) and ``body(state, steps)``.

    Each cycle times at least one pass, and another only while one like
    the last still fits before the cycle's deadline.  ``body`` times its
    steps with :func:`step`.  Traced runs alternate untraced and traced
    passes, so ``trace.overhead_ratio`` compares like with like.
    """
    out: list[Pass] = []
    for state, deadline in setups(run, make, digest):
        first = True
        while first or time.perf_counter() + out[-1].wall <= deadline:
            first = False
            traced = run.trace and len(out) % 2 == 1
            steps: list[float] = []
            run.recorder.enabled = traced
            t0 = time.perf_counter()
            result = body(state, steps)
            t1 = time.perf_counter()
            run.recorder.enabled = False
            if traced:
                run.traced_windows.append((t0, t1))
            out.append(Pass(t1 - t0, result, traced, steps))
    return out


def accuracy(pred, truth) -> tuple[float, float]:
    """``(MAE, weighted F1)`` of throughput predictions against truth.

    F1 is over the paper's 300/700 Mbps throughput classes.  Failed
    requests (NaN predictions) are left out; a run with none scored
    fails.
    """
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    ok = np.isfinite(pred)
    check(bool(ok.any()), "no prediction to score")
    return (float(np.mean(np.abs(pred[ok] - truth[ok]))),
            weighted_f1(classify_throughput(truth[ok]),
                        classify_throughput(pred[ok])))


def report(run: Run, passes: list[Pass], rows: int, mae: float,
           f1: float, facts: dict | None = None) -> None:
    """Every end-to-end metric, or with ``run.trace`` every per-layer one.

    ``rows`` is the input rows one pass processes; ``mae`` and ``f1``
    score the workload's held-out predictions (:func:`accuracy`);
    ``facts`` fills :data:`FACTS`.  ``setup_s`` (or ``sim.campaign_s``)
    comes from :func:`setups`, ``peak_rss_mb`` from ``run.py``.

    ``wall_s`` is the mean over the untraced passes of their timed
    steps: the run's timed work over its passes.  The host flips between
    a fast and a slow mode on scales of a second to minutes; a mean over
    passes spread through the run (:func:`timed_passes`) weighs the modes
    as the run met them, where a median or best pass picks one mode and
    jumps between runs.
    """
    plain = [p for p in passes if not p.traced]
    if run.trace:
        traced = [p.wall for p in passes if p.traced]
        run.metrics.add("trace.overhead_ratio",
                        median(traced) / median(p.wall for p in plain),
                        "ratio")
        report_layers(run, facts or {})
        return
    n_steps = len(plain[0].steps)
    check(n_steps > 0 and all(len(p.steps) == n_steps for p in plain),
          "passes timed different numbers of steps")
    wall_s = statistics.fmean(sum(p.steps) for p in plain)
    run.metrics.add("wall_s", wall_s, "s")
    run.metrics.add("rows_per_s", rows / wall_s, "rows/s")
    run.metrics.add("holdout_mae_mbps", mae, "Mbps")
    run.metrics.add("weighted_f1", f1, "ratio")
    run.notes.append(f"wall_s {wall_s:.3f} from {len(plain)} passes of "
                     f"{n_steps} steps; step seconds per pass: "
                     + json.dumps([[round(t, 4) for t in p.steps]
                                   for p in plain]))


def report_layers(run: Run, facts: dict) -> None:
    """Per-layer metrics over the traced passes, as means per pass.

    Times are self times: a span's duration minus the part its child
    spans cover.  Counts of a layer the workload never calls read 0.
    """
    spans = run.traced_spans()
    n = len(run.traced_windows)
    add = run.metrics.add
    seconds = layer_seconds(spans)
    for name in TIMED_LAYERS:
        add(f"{name}_s", seconds.get(name, 0.0) / n, "s")

    cleans = outermost(spans, "datasets.clean")
    add("datasets.clean_rows_in",
        sum(s.attrs["rows_in"] for s in cleans) / n, "rows")
    add("datasets.clean_rows_out",
        sum(s.attrs["rows_out"] for s in cleans) / n, "rows")
    add("fstore.online_calls",
        len(outermost(spans, "fstore.online")) / n, "count")
    calls = outermost(spans, "ml.predict")
    add("ml.predict_calls", len(calls) / n, "count")
    add("ml.predict_rows", sum(s.attrs["rows"] for s in calls) / n, "rows")

    submits = [s for s in spans if s.name == "gateway.submit"]
    watched = [(s.start, s.attrs["done"]) for s in submits
               if "done" in s.attrs]
    waits = match_queue_waits(watched, [c.start for c in calls],
                              [c.end for c in calls]) if watched else []
    add("gateway.queue_wait_s", sum(waits) / n, "s")
    if submits:
        run.notes.append(f"queue waits matched for {len(watched)} of "
                         f"{len(submits)} submits")

    counters = run.counters
    add("serve.batches", counters["batches"] / n, "count")
    add("serve.predicted_rows", counters["predicted_rows"] / n, "rows")
    add("serve.cache_hits", counters["cache_hits"] / n, "count")
    for name, unit in FACTS.items():
        add(name, facts.get(name, 0), unit)

    wall = sum(hi - lo for lo, hi in run.traced_windows)
    covered = sum(covered_seconds(run.recorder.spans, lo, hi)
                  for lo, hi in run.traced_windows)
    add("trace.unattributed_ratio", (wall - covered) / wall, "ratio")


# --------------------------------------------------------------------------- #
# Layer instrumentation (traced runs only)
# --------------------------------------------------------------------------- #


def _rows_arg(attrs, args, kwargs, result):
    attrs["rows"] = len(args[1])


def _clean_arg(attrs, args, kwargs, result):
    attrs["rows_in"] = len(args[0])
    attrs["rows_out"] = len(result[0])


def _submit_arg(recorder: SpanRecorder):
    def after(attrs, args, kwargs, result):
        fut = result[0]
        if fut.done():  # completed before we could watch it: unmatched
            return
        fut.add_done_callback(
            lambda _: attrs.__setitem__("done", recorder.clock()))
    return after


def instrument(recorder: SpanRecorder, counters: dict) -> None:
    """Wrap each layer's public entry points with span recording."""
    w = recorder.wrap
    w(collection, "run_area_campaign", "sim.campaign")
    w(generate, "generate_datasets", "sim.campaign")
    w(cleaning, "clean_stream", "datasets.clean", _clean_arg)
    w(OfflineMaterializer, "materialize_store", "fstore.materialize")
    w(Lumos5G, "design", "fstore.materialize")
    w(OnlineFeatureServer, "vector", "fstore.online")
    w(colstore_pipeline, "bin_store", "colstore.bin")
    w(colstore_pipeline, "streamed_prediction_baseline", "ml.baseline")
    for cls in (GBDTRegressor, GBDTClassifier, RandomForestRegressor,
                RandomForestClassifier, KNNRegressor, KNNClassifier):
        w(cls, "fit", "ml.fit")
        w(cls, "predict", "ml.predict", _rows_arg)
        if hasattr(cls, "predict_proba"):
            w(cls, "predict_proba", "ml.predict", _rows_arg)
        if hasattr(cls, "fit_binned_stream"):
            w(cls, "fit_binned_stream", "ml.fit_stream")
    w(serialize, "model_to_json", "ml.serialize")
    w(serialize, "model_from_json", "ml.serialize")
    w(serve_registry, "model_to_dict", "ml.serialize")
    w(serve_registry, "model_from_dict", "ml.serialize")
    w(ModelRegistry, "save", "serve.registry_save")
    w(ModelRegistry, "load_resilient", "serve.registry_load")
    w(RequestCodec, "parse_request", "serve.parse")
    w(RequestCodec, "format_response", "serve.encode")
    w(PredictorShard, "submit", "gateway.submit", _submit_arg(recorder))

    def service_counts(attrs, args, kwargs, result):
        service = args[0]
        counters["batches"] += service.batcher.batches
        counters["predicted_rows"] += (service.batcher.requests
                                       - service.cache.hits)
        counters["cache_hits"] += service.cache.hits

    # Counters only: a span here would cover the whole serve loop.
    recorder.wrap(InferenceService, "run_jsonl", None, service_counts)


# --------------------------------------------------------------------------- #
# paper_eval
# --------------------------------------------------------------------------- #


def run_paper_eval(run: Run) -> None:
    def make(_d):
        return generate.generate_datasets(
            areas=PAPER_AREAS, campaign=_campaign(run.seed, PAPER_PASSES),
            use_cache=False)

    def digest(datasets):
        return _digest(*(_table_digest(t) for t in datasets.values()))

    def grid(datasets, steps):
        """``(maes, f1s, baseline maes, rows)``; rows: train + test."""
        framework = Lumos5G(datasets, config=BENCH_MODEL_CONFIG,
                            seed=MODEL_SEED)
        maes, f1s, baselines, rows = [], [], [], 0
        for area, spec in REGRESSION_CELLS:
            with step(steps):
                r = framework.evaluate_regression(area, spec, "gdbt")
            maes.append(r.mae)
            rows += r.n_train + r.n_test
        for area, spec in CLASSIFICATION_CELLS:
            with step(steps):
                r = framework.evaluate_classification(area, spec, "gdbt")
            f1s.append(r.weighted_f1)
            rows += r.n_train + r.n_test
        for model in BASELINE_MODELS:
            with step(steps):
                r = framework.evaluate_regression(*BASELINE_CELL, model)
            baselines.append(r.mae)
            rows += r.n_train + r.n_test
        return tuple(maes), tuple(f1s), tuple(baselines), rows

    passes = timed_passes(run, make, digest, grid)
    cells = (len(REGRESSION_CELLS) + len(CLASSIFICATION_CELLS)
             + len(BASELINE_MODELS))
    run.attempted = cells * len(passes)
    first = passes[0].result
    for p in passes[1:]:
        check(p.result == first,
              f"paper_eval metrics differ between passes: {p.result} "
              f"vs {first}")
    maes, f1s, _, rows = first
    report(run, passes, rows, float(np.mean(maes)), float(np.mean(f1s)))


# --------------------------------------------------------------------------- #
# campaign_store
# --------------------------------------------------------------------------- #


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


@dataclass
class Trained:
    """One store-training pass: its work dir, model and provenance."""

    work: str
    model: object
    loaded: object
    info: dict
    payload: str
    holdout: object  # the held-out raw store of the pass's set-up


def run_campaign_store(run: Run) -> None:
    env = build_area(STORE_AREA)

    def make(d):
        train = collection.run_area_campaign(
            env, _campaign(run.seed, STORE_PASSES),
            store_dir=os.path.join(d, "raw"), chunk_rows=STORE_CHUNK_ROWS)
        holdout = collection.run_area_campaign(
            env, _campaign(run.seed + HOLDOUT_SEED_OFFSET, HOLDOUT_PASSES),
            store_dir=os.path.join(d, "holdout"),
            chunk_rows=STORE_CHUNK_ROWS)
        return d, train, holdout

    def digest(state):
        _, train, holdout = state
        return train.manifest.digest() + holdout.manifest.digest()

    config = dataclasses.replace(ModelConfig.fast(),
                                 gdbt_estimators=STORE_ROUNDS)

    def train(state, steps):
        store_root = state[0]
        work = run.fresh_dir("work")
        with step(steps):
            model, info = colstore_pipeline.train_from_store(
                os.path.join(store_root, "raw"), work, spec=STORE_SPEC,
                config=config, seed=MODEL_SEED)
        with step(steps):
            payload = serialize.model_to_json(model)
            registry_dir = os.path.join(work, "registry")
            version = ModelRegistry(registry_dir).save("store-gdbt", model)
            # A fresh registry, as a restarted server has: no memo.
            loaded = ModelRegistry(registry_dir).load_resilient(
                "store-gdbt", version)
        return Trained(work, model, loaded, info, payload, state[2])

    passes = timed_passes(run, make, digest, train)
    runs = [p.result for p in passes]
    run.attempted = len(passes)
    digests = {_model_digest(r.payload) for r in runs}
    check(len(digests) == 1,
          f"store-trained models differ between passes: {digests}")
    train_rows = runs[0].info["train_rows"]
    check(all(r.info["train_rows"] == train_rows for r in runs),
          "cleaned training rows differ between passes")

    # Held-out accuracy, untimed: clean and materialize the held-out
    # store once, then score the first and last pass's models and the
    # registry round trip on it.
    clean_h, _ = cleaning.clean_stream(runs[-1].holdout,
                                       run.fresh_dir("holdout-clean"))
    view = combination_view(STORE_SPEC, config.past_throughput_lags)
    feats_h = OfflineMaterializer(view).materialize_store(
        clean_h, run.fresh_dir("holdout-features"))
    X_h = np.vstack(list(colstore_pipeline.feature_matrix_chunks(feats_h)))
    preds = [runs[0].model.predict(X_h), runs[-1].model.predict(X_h),
             runs[-1].loaded.predict(X_h)]
    check(all(p.tobytes() == preds[0].tobytes() for p in preds),
          "held-out predictions differ across passes or after the "
          "registry round trip")
    error = colstore_pipeline.streamed_error(runs[0].model, feats_h, clean_h)
    y_h = np.concatenate([
        np.asarray(c[colstore_pipeline.LABEL_COLUMN], dtype=float)
        for c in clean_h.iter_chunks([colstore_pipeline.LABEL_COLUMN])])
    check(len(y_h) == len(X_h), "held-out labels and features differ "
          "in length")
    _, f1 = accuracy(preds[0], y_h)

    traced = [p.result for p in passes if p.traced]
    facts = {"colstore.chunks": runs[0].info["n_chunks"],
             "ml.model_bytes": len(runs[0].payload)}
    if traced:
        facts["colstore.bytes_written"] = median(
            _dir_bytes(r.work) for r in traced)
    report(run, passes, train_rows, error["mae"], f1, facts)


# --------------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------------- #


@dataclass
class Served:
    """A published model and the held-out rows it will be asked about."""

    registry_dir: str
    name: str
    version: int
    held: object  # repro.datasets.frame.Table


def _serve_setup(run: Run):
    """``(make, digest)`` of the serve set-up, for :func:`setups`."""
    def make(d):
        table = generate.generate_datasets(
            areas=(SERVE_AREA,), campaign=_campaign(run.seed, SERVE_PASSES),
            use_cache=False, include_global=False)[SERVE_AREA]
        runs = np.asarray(table["run_id"])
        held_mask = np.isin(runs, np.unique(runs)[1::2])
        framework = Lumos5G({SERVE_AREA: table.filter(~held_mask)},
                            config=ModelConfig.fast(), seed=MODEL_SEED)
        registry_dir = os.path.join(d, "registry")
        name, version = framework.publish(ModelRegistry(registry_dir),
                                          SERVE_AREA, SERVE_SPEC)
        return Served(registry_dir, name, version,
                      table.filter(held_mask))

    def digest(served):
        path = ModelRegistry(served.registry_dir).path(served.name,
                                                       served.version)
        with open(path) as f:
            return _model_digest(f.read()) + _table_digest(served.held)

    return make, digest


def _offline_reference(served: Served):
    """The model and its predictions on offline-materialized features."""
    model = ModelRegistry(served.registry_dir).load(served.name,
                                                    served.version)
    framework = Lumos5G({SERVE_AREA: served.held},
                        config=ModelConfig.fast(), seed=MODEL_SEED)
    X, y, _, _ = framework.design(SERVE_AREA, SERVE_SPEC)
    check(len(X) == len(served.held),
          "offline features dropped held-out rows")
    return model, X, np.asarray(y, dtype=float), model.predict(X)


def _check_responses(run: Run, lines, expected) -> np.ndarray:
    """Check one response per request, in order, against ``expected``.

    Every response carries its request's id; every prediction equals
    ``expected`` (``model.predict`` on offline features) bit for bit.
    A response without a prediction must be an error (shed, expired,
    failed); it counts as failed, not as incorrect.  Returns the served
    predictions, NaN where the request failed.
    """
    responses = [json.loads(line) for line in lines]
    check(len(responses) == len(expected),
          f"{len(responses)} responses for {len(expected)} requests")
    got = np.full(len(expected), np.nan)
    for i, resp in enumerate(responses):
        check(resp.get("id") == i,
              f"response {i} carries id {resp.get('id')!r}")
        if "prediction" in resp:
            got[i] = resp["prediction"]
        else:
            check("error" in resp, f"response {i} has neither a "
                  f"prediction nor an error: {resp}")
    ok = ~np.isnan(got)
    bad = np.flatnonzero(got[ok] != np.asarray(expected, dtype=float)[ok])
    check(bad.size == 0,
          f"{bad.size} served predictions differ from model.predict on "
          f"offline features")
    run.attempted += len(responses)
    run.failed += int((~ok).sum())
    return got


def _row_requests(served: Served, lags: int) -> list[str]:
    """Raw telemetry rows as a live UE reports them (JSON objects)."""
    held = served.held
    view = combination_view(SERVE_SPEC, lags)
    cols = {c: held[c] for c in view.source_columns()}
    tput = np.asarray(held["throughput_mbps"], dtype=float)
    run_ids = np.asarray(held["run_id"])
    rows = []
    for i in range(len(held)):
        row = {c: v[i].item() if hasattr(v[i], "item") else v[i]
               for c, v in cols.items()}
        # Within-run history, most recent first; the view reads `lags`.
        j = i
        history = []
        while j > 0 and len(history) < lags and run_ids[j - 1] == run_ids[i]:
            j -= 1
            history.append(float(tput[j]))
        row[PAST_THROUGHPUT_FIELD] = history
        rows.append(json.dumps(row))
    return rows


def _model_bytes(served: Served) -> int:
    return os.path.getsize(ModelRegistry(served.registry_dir).path(
        served.name, served.version))


async def _closed_loop(gateway, lines) -> list[str]:
    """One connection keeping :data:`IN_FLIGHT` requests outstanding.

    The next request goes out when a response comes back, so the
    gateway is never offered more than its admission window holds.
    """
    window = asyncio.Semaphore(IN_FLIGHT)
    responses: list[str] = []

    async def requests():
        for line in lines:
            await window.acquire()
            yield line

    async def write(text):
        responses.append(text)
        window.release()

    await gateway.handle_connection(requests(), write)
    return responses


def run_serve(run: Run) -> None:
    """Every held-out row through both front doors, once each per pass.

    The gateway step sends raw rows (online features) over one
    connection of a 1-shard :class:`AsyncGateway`, :data:`IN_FLIGHT` at
    a time; the CLI step runs ``repro serve`` (today ``InferenceService``
    with its ``PredictionCache``) over the rows' offline features.
    """
    make, digest = _serve_setup(run)
    ref = {}

    def serve(served, steps):
        if not ref:  # once, before the first timed step
            model, X, y, expected = _offline_reference(served)
            rows = _row_requests(served, ModelConfig.fast()
                                 .past_throughput_lags)
            lines = [f'{{"id": {k}, "key": "ue-{k % UE_KEYS}", '
                     f'"row": {row}}}' for k, row in enumerate(rows)]
            requests = os.path.join(run.fresh_dir("bulk"), "requests.jsonl")
            with open(requests, "w") as f:
                for i, row in enumerate(X):
                    feats = [None if np.isnan(v) else float(v) for v in row]
                    f.write(json.dumps({"id": i, "features": feats}) + "\n")
            gateway = AsyncGateway(model, version=served.version,
                                   config=GatewayConfig(shards=1))
            ref.update(served=served, y=y, expected=expected, lines=lines,
                       requests=requests, gateway=gateway)
            warm = asyncio.run(_closed_loop(gateway,
                                            lines[:WARMUP_REQUESTS]))
            _check_responses(run, warm, expected[:len(warm)])
        with step(steps):
            responses = asyncio.run(_closed_loop(ref["gateway"],
                                                 ref["lines"]))
        out = os.path.join(run.fresh_dir("bulk-out"), "responses.jsonl")
        argv = ["serve", "--registry", served.registry_dir, "--name",
                served.name, "--input", ref["requests"], "--output", out]
        log = io.StringIO()
        with contextlib.redirect_stderr(log), step(steps):
            code = cli.main(argv)
        check(code == 0, f"repro serve exited {code}: {log.getvalue()}")
        return responses, out

    try:
        passes = timed_passes(run, make, digest, serve)
        stats = ref["gateway"].collect_stats()
    finally:
        if "gateway" in ref:
            ref["gateway"].close()
    gateway_out = []
    for p in passes:
        responses, out = p.result
        gateway_out.append(_check_responses(run, responses,
                                            ref["expected"]))
        with open(out) as f:
            _check_responses(run, f.readlines(), ref["expected"])
    mae, f1 = accuracy(gateway_out[0], ref["y"])
    report(run, passes, 2 * len(ref["lines"]), mae, f1,
           {"ml.model_bytes": _model_bytes(ref["served"]),
            "gateway.shed": stats.shed})


WORKLOADS = {
    "paper_eval": run_paper_eval,
    "campaign_store": run_campaign_store,
    "serve": run_serve,
}
