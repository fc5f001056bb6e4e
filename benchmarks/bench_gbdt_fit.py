"""GBDT/forest training throughput: tree grower vs reference grower.

Fits on synthetic regression/classification data (>= 50k rows for the
asserted case) through three model families:

* **regressor** -- squared-error GBDT, grower vs the reference grower
  (``tests/ml/_tree_oracles.py``'s ``reference_fit_binned_chunks``
  monkeypatched in for ``HistogramTree.fit_binned_chunks``); the grower
  must be >= 2x.  The same fit also runs as a 3-chunk
  ``fit_binned_stream`` over in-memory chunks: the grower's multi-pass
  case, which trains the same trees as those chunks would anywhere.
* **classifier k=7** -- multi-output softmax boosting (7 classes means
  7-output trees), grower vs reference.
* **forest** -- bagged sqrt-feature trees, grown serially.

Every row is the median of ``REPEATS`` samples taken in alternation (each
round fits every row once, so a slow stretch of the host lands on all
rows of that round rather than on one row).  Throughput is reported as
rows*trees/sec (rows fitted per tree times trees per second), the
natural unit for boosting/bagging training, and recorded as obs gauges
so it lands in
``benchmarks/results/obs_metrics.json`` (``engine`` in a gauge name is
the grower; the names are kept so the history stays comparable):

* ``tree.bench.reg_engine_row_trees_per_s`` / ``tree.bench.reg_reference_row_trees_per_s``
* ``tree.bench.reg_speedup`` -- grower / reference ratio (asserted >= 2x)
* ``tree.bench.reg_3chunk_row_trees_per_s`` -- the 3-chunk stream fit
* ``tree.bench.clf_engine_row_trees_per_s`` / ``tree.bench.clf_reference_row_trees_per_s``
  / ``tree.bench.clf_speedup``
* ``tree.bench.forest_serial_row_trees_per_s``
"""

import pathlib
import sys
import time

import numpy as np

from repro import obs
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbdt import GBDTClassifier, GBDTRegressor
from repro.ml.tree import FeatureBinner, HistogramTree

from _bench_utils import emit, format_table

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "tests" / "ml"))
from _tree_oracles import reference_fit_binned_chunks  # noqa: E402

#: The asserted >= 2x case: a >= 50k-row regression fit.
N_REG, REG_TREES = 50_000, 5
#: Classifier rows are fewer: each round grows a 7-output tree, so the
#: reference baseline pays 7x the bincounts per node.
N_CLS, CLS_TREES = 20_000, 2
N_RF, RF_TREES = 20_000, 8
D = 20
#: Alternated samples per row; each row reports their median.
REPEATS = 3


def _regression_data(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N_REG, D))
    y = (X[:, 0] - 2.0 * X[:, 3] + 0.5 * X[:, 7] * X[:, 11]
         + rng.normal(0, 0.3, N_REG))
    return X, y


def _classification_data(seed=1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N_CLS, D))
    score = X[:, 0] + X[:, 5] - X[:, 9] + rng.normal(0, 0.5, N_CLS)
    edges = np.quantile(score, np.linspace(0, 1, 8)[1:-1])
    return X, np.digitize(score, edges)  # 7 classes


def test_gbdt_fit_throughput(benchmark, monkeypatch, capsys):
    X_reg, y_reg = _regression_data()
    X_clf, y_clf = _classification_data()
    reg_kwargs = dict(n_estimators=REG_TREES, max_depth=8,
                      min_samples_leaf=5, max_bins=64, random_state=0)
    clf_kwargs = dict(n_estimators=CLS_TREES, max_depth=6,
                      min_samples_leaf=10, max_bins=64, random_state=0)

    # The same regressor fit as a stream of 3 in-memory chunks.
    binner = FeatureBinner(reg_kwargs["max_bins"]).fit(X_reg)
    codes = binner.transform(X_reg)
    parts = [(codes[s:s + N_REG // 3 + 1], y_reg[s:s + N_REG // 3 + 1])
             for s in range(0, N_REG, N_REG // 3 + 1)]
    assert len(parts) == 3
    X_rf, y_rf = X_reg[:N_RF], y_reg[:N_RF]
    rf_kwargs = dict(n_estimators=RF_TREES, max_depth=10,
                     min_samples_leaf=3, max_bins=64, random_state=0)

    def reference(fit):
        def run():
            with monkeypatch.context() as m:
                m.setattr(HistogramTree, "fit_binned_chunks",
                          reference_fit_binned_chunks)
                return fit()
        return run

    # One round fits every row once; the grower and the reference grower
    # alternate within it.
    fits = {
        "reg_engine": lambda: GBDTRegressor(**reg_kwargs).fit(X_reg, y_reg),
        "reg_reference": reference(
            lambda: GBDTRegressor(**reg_kwargs).fit(X_reg, y_reg)),
        "reg_3chunk": lambda: GBDTRegressor(**reg_kwargs).fit_binned_stream(
            lambda: iter(parts), binner),
        "clf_engine": lambda: GBDTClassifier(**clf_kwargs).fit(X_clf, y_clf),
        "clf_reference": reference(
            lambda: GBDTClassifier(**clf_kwargs).fit(X_clf, y_clf)),
        "rf_serial": lambda: RandomForestRegressor(**rf_kwargs).fit(X_rf,
                                                                    y_rf),
    }
    samples = {name: [] for name in fits}
    models = {}

    def rounds():
        for _ in range(REPEATS):
            for name, fit in fits.items():
                t0 = time.perf_counter()
                models[name] = fit()
                samples[name].append(time.perf_counter() - t0)

    benchmark.pedantic(rounds, rounds=1, iterations=1)
    # Same bits out of both growers, or the speedup is meaningless.
    probe = X_reg[:2000]
    np.testing.assert_array_equal(models["reg_engine"].predict(probe),
                                  models["reg_reference"].predict(probe))
    (reg_engine_s, reg_reference_s, reg_3chunk_s, clf_engine_s,
     clf_reference_s, rf_serial_s) = (float(np.median(samples[name]))
                                      for name in fits)

    def rtps(n, trees, wall):
        return n * trees / wall

    reg_engine = rtps(N_REG, REG_TREES, reg_engine_s)
    reg_reference = rtps(N_REG, REG_TREES, reg_reference_s)
    reg_speedup = reg_engine / reg_reference
    reg_3chunk = rtps(N_REG, REG_TREES, reg_3chunk_s)
    clf_engine = rtps(N_CLS, CLS_TREES, clf_engine_s)
    clf_reference = rtps(N_CLS, CLS_TREES, clf_reference_s)
    clf_speedup = clf_engine / clf_reference
    rf_serial = rtps(N_RF, RF_TREES, rf_serial_s)

    obs.set_gauge("tree.bench.reg_engine_row_trees_per_s",
                  round(reg_engine, 1))
    obs.set_gauge("tree.bench.reg_reference_row_trees_per_s",
                  round(reg_reference, 1))
    obs.set_gauge("tree.bench.reg_speedup", round(reg_speedup, 2))
    obs.set_gauge("tree.bench.reg_3chunk_row_trees_per_s",
                  round(reg_3chunk, 1))
    obs.set_gauge("tree.bench.clf_engine_row_trees_per_s",
                  round(clf_engine, 1))
    obs.set_gauge("tree.bench.clf_reference_row_trees_per_s",
                  round(clf_reference, 1))
    obs.set_gauge("tree.bench.clf_speedup", round(clf_speedup, 2))
    obs.set_gauge("tree.bench.forest_serial_row_trees_per_s",
                  round(rf_serial, 1))

    table = format_table(
        ["fit", "rows", "trees", "wall s", "row*trees/s", "speedup"],
        [
            ["regressor reference", N_REG, REG_TREES,
             f"{reg_reference_s:.2f}", f"{reg_reference:.0f}", "1.00"],
            ["regressor grower", N_REG, REG_TREES,
             f"{reg_engine_s:.2f}", f"{reg_engine:.0f}",
             f"{reg_speedup:.2f}"],
            ["regressor grower 3 chunks", N_REG, REG_TREES,
             f"{reg_3chunk_s:.2f}", f"{reg_3chunk:.0f}",
             f"{reg_3chunk / reg_reference:.2f}"],
            ["classifier k=7 reference", N_CLS, CLS_TREES,
             f"{clf_reference_s:.2f}", f"{clf_reference:.0f}", "1.00"],
            ["classifier k=7 grower", N_CLS, CLS_TREES,
             f"{clf_engine_s:.2f}", f"{clf_engine:.0f}",
             f"{clf_speedup:.2f}"],
            ["forest serial", N_RF, RF_TREES,
             f"{rf_serial_s:.2f}", f"{rf_serial:.0f}", "-"],
        ],
    )
    emit("gbdt_fit_throughput",
         table + f"\nwall s: median of {REPEATS} alternated repeats",
         capsys)

    assert reg_speedup >= 2.0, (
        f"the tree grower must be >=2x the reference grower on the "
        f"{N_REG}-row regression fit, got {reg_speedup:.2f}x"
    )
