"""The Lumos5G framework: composable models over feature groups (Sec. 5-6).

``Lumos5G`` ties the pieces together: it takes cleaned per-area datasets
(plus the pooled ``"Global"``), extracts any Table-6 feature-group
combination, trains one of the framework's models (GDBT, Seq2Seq) or a
baseline (KNN, RF, Ordinary Kriging, Harmonic Mean), and evaluates it
under the paper's protocol -- 70/30 random train/test split, MAE/RMSE for
regression, weighted-average F1 and low-class recall for classification.
Seq2Seq consumes sequence windows and is split at run granularity so no
test run leaks history into training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import fstore, obs
from repro.core.features import (
    COMBINATIONS,
    parse_combination,
    requires_panel_survey,
)
from repro.core.labels import DEFAULT_CLASSES, ThroughputClasses
from repro.core.windows import build_windows
from repro.datasets.frame import Table
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GBDTClassifier, GBDTRegressor
from repro.ml.harmonic import HarmonicMeanPredictor
from repro.ml.knn import KNNClassifier, KNNRegressor
from repro.ml.kriging import OrdinaryKriging
from repro.ml.metrics import mae, recall_of_class, rmse, weighted_f1
from repro.ml.nn.seq2seq import Seq2SeqRegressor
from repro.ml.preprocessing import split_by_run, train_test_split

FRAMEWORK_MODELS = ("gdbt", "seq2seq")
BASELINE_MODELS = ("knn", "rf", "ok", "hm")
ALL_MODELS = FRAMEWORK_MODELS + BASELINE_MODELS


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters for every model family.

    ``paper()`` mirrors the published settings (8000 estimators / depth 8 /
    lr 0.01; 2-layer 128-unit Seq2Seq, length-20 windows); ``fast()`` is
    the laptop-scale profile used by tests and benchmarks -- same
    architecture families, smaller budgets.
    """

    gdbt_estimators: int = 200
    gdbt_depth: int = 6
    gdbt_learning_rate: float = 0.08
    gdbt_min_samples_leaf: int = 10
    seq2seq_hidden: int = 32
    seq2seq_layers: int = 1
    seq2seq_epochs: int = 12
    seq2seq_batch: int = 256
    seq2seq_lr: float = 3e-3
    input_len: int = 20
    output_len: int = 1
    window_stride: int = 2
    knn_k: int = 5
    rf_estimators: int = 60
    rf_depth: int = 12
    hm_window: int = 5
    past_throughput_lags: int = 5

    @classmethod
    def paper(cls) -> "ModelConfig":
        return cls(
            gdbt_estimators=8000, gdbt_depth=8, gdbt_learning_rate=0.01,
            seq2seq_hidden=128, seq2seq_layers=2, seq2seq_epochs=2000,
            seq2seq_batch=256, input_len=20, output_len=1, window_stride=1,
        )

    @classmethod
    def fast(cls) -> "ModelConfig":
        return cls(
            gdbt_estimators=60, gdbt_depth=5, gdbt_learning_rate=0.15,
            seq2seq_hidden=24, seq2seq_layers=1, seq2seq_epochs=6,
            window_stride=4, rf_estimators=25,
        )

    def estimator(self, model: str, task: str, seed: int):
        """A fresh ``gdbt``/``rf``/``knn``/``ok`` estimator for ``task``.

        The one place a config becomes an estimator, for :class:`Lumos5G`
        and the store path (``repro.colstore.pipeline``) alike.  ``ok``
        (Ordinary Kriging) is regression only.
        """
        if task not in ("regression", "classification"):
            raise ValueError(f"unknown task {task!r}")
        regression = task == "regression"
        if model == "gdbt":
            return (GBDTRegressor if regression else GBDTClassifier)(
                n_estimators=self.gdbt_estimators, max_depth=self.gdbt_depth,
                learning_rate=self.gdbt_learning_rate,
                min_samples_leaf=self.gdbt_min_samples_leaf,
                random_state=seed,
            )
        if model == "rf":
            return (RandomForestRegressor if regression
                    else RandomForestClassifier)(
                n_estimators=self.rf_estimators, max_depth=self.rf_depth,
                random_state=seed,
            )
        if model == "knn":
            return (KNNRegressor if regression
                    else KNNClassifier)(n_neighbors=self.knn_k)
        if model == "ok" and regression:
            return OrdinaryKriging(random_state=seed)
        raise ValueError(f"no {task} row model {model!r}")


@dataclass
class RegressionResult:
    area: str
    feature_group: str
    model: str
    mae: float
    rmse: float
    n_train: int
    n_test: int
    y_true: np.ndarray = field(repr=False)
    y_pred: np.ndarray = field(repr=False)


@dataclass
class ClassificationResult:
    area: str
    feature_group: str
    model: str
    weighted_f1: float
    recall_low: float
    n_train: int
    n_test: int
    y_true: np.ndarray = field(repr=False)
    y_pred: np.ndarray = field(repr=False)


def _window_strata(
    window_run_ids: np.ndarray, row_strata: np.ndarray,
    row_run_ids: np.ndarray,
) -> np.ndarray:
    """Map per-row strata to per-window strata via each window's run id."""
    run_to_stratum = {}
    for run, stratum in zip(row_run_ids, row_strata):
        run_to_stratum.setdefault(run, stratum)
    return np.asarray([run_to_stratum[r] for r in window_run_ids],
                      dtype=object)


class Lumos5G:
    """Composable 5G throughput prediction over one or more area datasets."""

    def __init__(
        self,
        datasets: dict[str, Table],
        config: ModelConfig | None = None,
        classes: ThroughputClasses | None = None,
        seed: int = 42,
    ):
        if not datasets:
            raise ValueError("need at least one dataset")
        self.datasets = datasets
        self.config = config or ModelConfig()
        self.classes = classes or DEFAULT_CLASSES
        self.seed = seed
        self._matrix_cache: dict[tuple[str, str], tuple] = {}

    # ------------------------------------------------------------------ #

    @property
    def areas(self) -> list[str]:
        return list(self.datasets)

    def table(self, area: str) -> Table:
        try:
            return self.datasets[area]
        except KeyError:
            raise KeyError(
                f"no dataset for area {area!r}; have {self.areas}"
            ) from None

    def supports(self, area: str, spec: str) -> bool:
        """Whether a feature group is available for an area.

        T-group features require the panel survey; the Loop has none
        (matching the dashes in Tables 7-8).
        """
        if not requires_panel_survey(spec):
            return True
        t = self.table(area)
        dist = np.asarray(t["ue_panel_distance_m"], dtype=float)
        # Pooled datasets (Global) mix surveyed and unsurveyed areas; T
        # models train on the surveyed subset (the unsurveyed rows are
        # dropped), so any sizeable surveyed fraction suffices.
        return bool(np.isfinite(dist).mean() > 0.1)

    def _rows_for_spec(self, area: str, spec: str) -> np.ndarray:
        """Row mask: T specs drop rows without panel-survey features."""
        t = self.table(area)
        if requires_panel_survey(spec):
            return np.isfinite(np.asarray(t["ue_panel_distance_m"],
                                          dtype=float))
        return np.ones(len(t), dtype=bool)

    def feature_view(self, spec: str) -> fstore.FeatureView:
        """The feature-store view this framework trains/serves ``spec`` with.

        One definition for every consumer: :meth:`design` materializes
        it offline, :meth:`publish` stamps its fingerprint into the
        model, and the serving stack executes the same view online.
        """
        return fstore.combination_view(
            spec, self.config.past_throughput_lags
        )

    def design(self, area: str, spec: str):
        """(X, y, run_ids, feature_names) for an area/feature-group pair."""
        key = (area, spec)
        if key not in self._matrix_cache:
            t = self.table(area).filter(self._rows_for_spec(area, spec))
            fm = fstore.extract(t, spec, self.config.past_throughput_lags)
            y = fstore.target(t)
            run_ids = np.asarray(t["run_id"])
            self._matrix_cache[key] = (fm.X, y, run_ids, fm.names)
        return self._matrix_cache[key]

    def _run_strata(self, area: str, spec: str) -> np.ndarray:
        """Per-row stratum labels (trajectory x mode) aligned with design()."""
        t = self.table(area).filter(self._rows_for_spec(area, spec))
        return np.asarray([
            f"{traj}/{mode}" for traj, mode
            in zip(t["trajectory"], t["mobility_mode"])
        ], dtype=object)

    # ------------------------------------------------------------------ #

    def _estimator(self, model: str, task: str, spec: str):
        if model == "ok" and parse_combination(spec) != ["L"]:
            raise ValueError(
                "Ordinary Kriging interpolates coordinates and only "
                "applies to the L feature group (paper Table 9: NA)"
            )
        return self.config.estimator(model, task, self.seed)

    def _split_fit_predict(self, estimator, model: str, X, y):
        """(y_test, predictions, n_train, n_test) on the 70/30 split."""
        X_tr, X_te, y_tr, y_te = train_test_split(
            X, y, test_size=0.3, rng=self.seed
        )
        with obs.span("model.fit", model=model, n_train=len(X_tr)):
            estimator.fit(X_tr, y_tr)
        with obs.span("model.predict", model=model, n_test=len(X_te)):
            y_pred = estimator.predict(X_te)
        return y_te, y_pred, len(X_tr), len(X_te)

    @staticmethod
    def _count_evaluation(n_tr: int, n_te: int) -> None:
        obs.inc("pipeline.evaluations_total")
        obs.set_gauge("pipeline.n_train", n_tr)
        obs.set_gauge("pipeline.n_test", n_te)

    # -- evaluation entry points -------------------------------------------- #

    def evaluate_regression(
        self, area: str, spec: str, model: str
    ) -> RegressionResult:
        """Train + evaluate one (area, feature group, model) cell of Table 8."""
        with obs.span("pipeline.evaluate_regression",
                      area=area, spec=spec, model=model):
            if model == "seq2seq":
                y_true, y_pred, n_tr, n_te = self._run_seq2seq(
                    area, spec, self.config.output_len)
                y_true, y_pred = y_true[:, 0], y_pred[:, 0]
            elif model == "hm":
                y_true, y_pred, n_tr, n_te = self._run_harmonic(area)
            else:
                X, y, _, _ = self.design(area, spec)
                y_true, y_pred, n_tr, n_te = self._split_fit_predict(
                    self._estimator(model, "regression", spec), model, X, y)
        self._count_evaluation(n_tr, n_te)
        return RegressionResult(
            area=area, feature_group=spec, model=model,
            mae=mae(y_true, y_pred), rmse=rmse(y_true, y_pred),
            n_train=n_tr, n_test=n_te, y_true=y_true, y_pred=y_pred,
        )

    def evaluate_classification(
        self, area: str, spec: str, model: str
    ) -> ClassificationResult:
        """Train + evaluate one cell of Table 7.

        GDBT/KNN/RF classify natively; Seq2Seq, OK and HM regress and the
        predicted throughput is post-processed into classes, exactly as
        the paper does for its Seq2Seq models.
        """
        with obs.span("pipeline.evaluate_classification",
                      area=area, spec=spec, model=model):
            if model in ("seq2seq", "ok", "hm"):
                reg = self.evaluate_regression(area, spec, model)
                labels_true = self.classes.classify(reg.y_true)
                labels_pred = self.classes.classify(reg.y_pred)
                n_tr, n_te = reg.n_train, reg.n_test
            else:
                X, y, _, _ = self.design(area, spec)
                labels_true, labels_pred, n_tr, n_te = \
                    self._split_fit_predict(
                        self._estimator(model, "classification", spec),
                        model, X, self.classes.classify(y))
        self._count_evaluation(n_tr, n_te)
        return ClassificationResult(
            area=area, feature_group=spec, model=model,
            weighted_f1=weighted_f1(labels_true, labels_pred,
                                    labels=self.classes.names),
            recall_low=recall_of_class(labels_true, labels_pred,
                                       self.classes.low_class),
            n_train=n_tr, n_test=n_te,
            y_true=labels_true, y_pred=labels_pred,
        )

    # -- model runners -------------------------------------------------------- #

    def _run_seq2seq(self, area: str, spec: str, output_len: int):
        """(y_test, predictions, n_train, n_test) of a Seq2Seq model.

        Both targets and predictions are ``(n_test, output_len)``: one
        column per horizon step, predictions clipped at zero.
        """
        cfg = self.config
        X, y, run_ids, _ = self.design(area, spec)
        # The LSTM cannot digest NaN (missing signal reports); impute with
        # the column mean, the standard neutral value after standardization.
        if np.isnan(X).any():
            col_mean = np.nanmean(X, axis=0)
            col_mean = np.where(np.isfinite(col_mean), col_mean, 0.0)
            X = np.where(np.isnan(X), col_mean[None, :], X)
        # The window's past-target channel subsumes explicit C lags; keep
        # both for parity with the paper's "sequence of feature values".
        windows = build_windows(
            X, y, run_ids,
            input_len=cfg.input_len, output_len=output_len,
            stride=cfg.window_stride,
        )
        if len(windows) < 10:
            raise ValueError(
                f"not enough sequence windows for {area}/{spec} "
                f"({len(windows)}); collect more passes"
            )
        train_mask, test_mask = split_by_run(
            windows.run_ids, test_size=0.3, rng=self.seed,
            strata=_window_strata(windows.run_ids,
                                  self._run_strata(area, spec), run_ids),
        )
        model = Seq2SeqRegressor(
            hidden_dim=cfg.seq2seq_hidden,
            encoder_layers=cfg.seq2seq_layers,
            epochs=cfg.seq2seq_epochs,
            batch_size=cfg.seq2seq_batch,
            learning_rate=cfg.seq2seq_lr,
            random_state=self.seed,
        )
        with obs.span("model.fit", model="seq2seq",
                      n_train=int(train_mask.sum())):
            model.fit(windows.X[train_mask], windows.y[train_mask])
        with obs.span("model.predict", model="seq2seq",
                      n_test=int(test_mask.sum())):
            pred = np.atleast_2d(model.predict(windows.X[test_mask]).T).T
        return (windows.y[test_mask], np.clip(pred, 0.0, None),
                int(train_mask.sum()), int(test_mask.sum()))

    def _run_harmonic(self, area: str):
        cfg = self.config
        t = self.table(area)
        tput = np.asarray(t["throughput_mbps"], dtype=float)
        run_ids = np.asarray(t["run_id"])
        hm = HarmonicMeanPredictor(window=cfg.hm_window)
        pred = hm.predict_sessions(tput, run_ids)
        # HM needs no training; score on the same 30% the other models use.
        _, test_idx = train_test_split(
            np.arange(len(tput)), test_size=0.3, rng=self.seed
        )[:2]
        return tput[test_idx], pred[test_idx], 0, len(test_idx)

    # -- framework extras ------------------------------------------------------ #

    def evaluate_multi_horizon(
        self, area: str, spec: str, output_len: int = 10
    ) -> dict[int, float]:
        """Per-step MAE of a Seq2Seq model predicting the next k seconds.

        The paper distinguishes short-term (next second) from longer-term
        prediction (Sec. 5.2); Seq2Seq's decoder emits an arbitrary-length
        output sequence, so one model covers every horizon up to
        ``output_len``.  Returns ``{horizon_step (1-based): MAE}``.
        """
        true, pred, _, _ = self._run_seq2seq(area, spec, output_len)
        return {
            k + 1: mae(true[:, k], pred[:, k]) for k in range(output_len)
        }

    def fit_regressor(self, area: str, spec: str, model: str = "gdbt"):
        """Train a deployable regressor on ALL of an area's data.

        Unlike :meth:`evaluate_regression` (which holds out a test set),
        this is the call an application makes to build the model it will
        actually ship -- e.g. the predictor behind an ABR policy or a
        :class:`~repro.core.mapstore.ThroughputMapBundle`.
        """
        X, y, _, _ = self.design(area, spec)
        with obs.span("model.fit", model=model, n_train=len(X)):
            return self._estimator(model, "regression", spec).fit(X, y)

    def fit_classifier(self, area: str, spec: str, model: str = "gdbt"):
        """Train a deployable throughput-class classifier on all data."""
        X, y, _, _ = self.design(area, spec)
        labels = self.classes.classify(y)
        with obs.span("model.fit", model=model, n_train=len(X)):
            return self._estimator(model, "classification", spec).fit(
                X, labels)

    def publish(
        self,
        registry,
        area: str,
        spec: str,
        model: str = "gdbt",
        task: str = "regression",
        name: str | None = None,
    ) -> tuple[str, int]:
        """Train a deployable model on all data and version it for serving.

        The handoff from training to the online path: fits via
        :meth:`fit_regressor` / :meth:`fit_classifier` and saves the
        result into a :class:`repro.serve.ModelRegistry`.  Returns the
        registry ``(name, version)``; ``repro serve`` loads it from
        there.

        A frozen drift baseline over the training-time prediction
        stream (``drift_baseline_``; serialized with the model) rides
        along so the serving telemetry plane can watch live predictions
        for distribution shift (docs/observability.md).

        The feature-store view the model was trained on is stamped into
        the payload too (``feature_view_``, including its
        content-addressed fingerprint; docs/feature_store.md): the
        registry refuses to serve the model against a different feature
        version, and the serving stack rebuilds the online transformer
        straight from the stamp.
        """
        from repro.obs.telemetry import attach_baseline

        X, _, _, _ = self.design(area, spec)
        if task == "regression":
            est = self.fit_regressor(area, spec, model)
            train_preds = np.asarray(est.predict(X), dtype=float)
        elif task == "classification":
            est = self.fit_classifier(area, spec, model)
            # Classifier drift is watched on max class probability --
            # the same scalar the serving loop extracts per response.
            train_preds = np.max(
                np.asarray(est.predict_proba(X), dtype=float), axis=1
            )
        else:
            raise ValueError(
                f"unknown task {task!r}; use 'regression' or "
                "'classification'"
            )
        attach_baseline(est, train_preds)
        fstore.attach_view(est, self.feature_view(spec))
        if name is None:
            name = "-".join(
                part.lower().replace("+", "")
                for part in (area, spec, model, task[:3])
            )
        version = registry.save(name, est)
        obs.inc("pipeline.models_published_total")
        return name, version

    def feature_importance(
        self, area: str, spec: str
    ) -> dict[str, float]:
        """GDBT global feature importance for Fig. 22."""
        X, y, _, names = self.design(area, spec)
        X_tr, _, y_tr, _ = train_test_split(X, y, test_size=0.3, rng=self.seed)
        reg = self.config.estimator("gdbt", "regression", self.seed).fit(
            X_tr, y_tr)
        return dict(zip(names, reg.feature_importances_.tolist()))

    def evaluation_grid(
        self,
        areas: list[str] | None = None,
        specs: list[str] | None = None,
        models: list[str] | None = None,
        task: str = "regression",
    ) -> list:
        """Sweep the full (area x feature-group x model) grid of a table."""
        areas = areas or self.areas
        specs = specs or list(COMBINATIONS)
        models = models or list(FRAMEWORK_MODELS)
        out = []
        for area in areas:
            for spec in specs:
                if not self.supports(area, spec):
                    continue
                for model in models:
                    if model == "ok" and spec != "L":
                        continue
                    if task == "regression":
                        out.append(self.evaluate_regression(area, spec, model))
                    else:
                        out.append(
                            self.evaluate_classification(area, spec, model)
                        )
        return out
