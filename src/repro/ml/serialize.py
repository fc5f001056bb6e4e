"""JSON-serializable persistence for the tree-based models.

The paper envisions UEs *downloading* throughput maps "augmented with the
ML models" (Sec. 1).  That needs models that serialize compactly without
pickle: this module round-trips the GBDT family
(:class:`~repro.ml.gbdt.GBDTRegressor` / ``GBDTClassifier``), the random
forests (:class:`~repro.ml.forest.RandomForestRegressor` /
``RandomForestClassifier``), :class:`~repro.ml.preprocessing.StandardScaler`
and :class:`~repro.ml.preprocessing.PredictionPipeline` (scaler + model)
through plain dicts / JSON strings.

:func:`model_to_dict` / :func:`model_from_dict` (and their ``_json``
twins) dispatch on the concrete type / the payload's ``kind`` tag; the
older ``gbdt_*`` entry points remain for existing callers.  The serving
layer (``repro.serve``) builds its on-disk model registry on these.
"""

from __future__ import annotations

import json

import numpy as np

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import (
    GBDTClassifier,
    GBDTQuantileRegressor,
    GBDTRegressor,
)
from repro.ml.preprocessing import (
    LabelEncoder,
    PredictionPipeline,
    StandardScaler,
)
from repro.ml.tree import FeatureBinner, HistogramTree, TreeParams, _Node

FORMAT_VERSION = 1


def _tree_to_dict(tree: HistogramTree) -> dict:
    columns = zip(tree.feature.tolist(), tree.threshold_bin.tolist(),
                  tree.left.tolist(), tree.right.tolist(),
                  tree.value.tolist(), tree.n_samples.tolist())
    return {
        "n_outputs": tree.n_outputs,
        "feature_gain": tree.feature_gain_.tolist(),
        "nodes": [{"f": f, "t": t, "l": l, "r": r, "v": v, "n": n}
                  for f, t, l, r, v, n in columns],
    }


def _tree_from_dict(data: dict, params: TreeParams) -> HistogramTree:
    tree = HistogramTree(params)
    tree.n_outputs = int(data["n_outputs"])
    tree.feature_gain_ = np.asarray(data["feature_gain"], dtype=float)
    tree._set_nodes([
        _Node(
            feature=int(n["f"]),
            threshold_bin=int(n["t"]),
            left=int(n["l"]),
            right=int(n["r"]),
            value=np.asarray(n["v"], dtype=float),
            n_samples=int(n["n"]),
        )
        for n in data["nodes"]
    ])
    return tree


def _binner_to_dict(binner: FeatureBinner) -> dict:
    return {
        "max_bins": binner.max_bins,
        "edges": [e.tolist() for e in binner.edges_],
    }


def _binner_from_dict(data: dict) -> FeatureBinner:
    binner = FeatureBinner(max_bins=int(data["max_bins"]))
    binner.edges_ = [np.asarray(e, dtype=float) for e in data["edges"]]
    return binner


_COMMON_HYPERPARAMS = (
    "n_estimators", "learning_rate", "max_depth", "min_samples_leaf",
    "subsample", "reg_lambda", "max_bins", "random_state",
)


def gbdt_to_dict(model) -> dict:
    """Serialize a fitted GBDT model to a JSON-safe dict."""
    if model._binner is None:
        raise ValueError("model must be fitted before serialization")
    if isinstance(model, GBDTClassifier):
        kind = "classifier"
    elif isinstance(model, GBDTQuantileRegressor):
        kind = "quantile_regressor"
    else:
        kind = "regressor"
    out = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "hyperparams": {k: getattr(model, k) for k in _COMMON_HYPERPARAMS},
        "n_features": model.n_features_,
        "binner": _binner_to_dict(model._binner),
        "trees": [_tree_to_dict(t) for t in model._trees],
    }
    if isinstance(model, GBDTClassifier):
        out["classes"] = model.encoder_.classes_.tolist()
        out["base_logits"] = model.base_logits_.tolist()
    else:
        out["base_score"] = model.base_score_
    if isinstance(model, GBDTQuantileRegressor):
        out["hyperparams"]["quantile"] = model.quantile
        # Per-tree refit leaf values (indexed by node id); the trees'
        # own leaf values only carry the split structure.
        out["leaf_values"] = [lv.tolist() for lv in model._leaf_values]
    telemetry = getattr(model, "fit_telemetry_", None)
    if telemetry is not None:
        # Training telemetry (fit wall clock, rounds completed, final
        # train loss) travels with the model so deployed bundles stay
        # attributable to their training run.
        out["telemetry"] = dict(telemetry)
    baseline = getattr(model, "drift_baseline_", None)
    if baseline is not None:
        # Frozen training-time prediction statistics; the serving drift
        # monitor compares its live window against these.
        out["drift_baseline"] = dict(baseline)
    view = getattr(model, "feature_view_", None)
    if view is not None:
        # The feature-view stamp (repro.fstore.attach_view): which view,
        # version and fingerprint the model was trained against, so the
        # registry can reject a model/feature-version mismatch at load.
        out["feature_view"] = dict(view)
    return out


def gbdt_from_dict(data: dict) -> GBDTRegressor | GBDTClassifier:
    """Reconstruct a fitted GBDT model from :func:`gbdt_to_dict` output."""
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format {data.get('format_version')!r}"
        )
    cls = {"classifier": GBDTClassifier,
           "quantile_regressor": GBDTQuantileRegressor}.get(
        data["kind"], GBDTRegressor)
    model = cls(**data["hyperparams"])
    model.n_features_ = int(data["n_features"])
    model._binner = _binner_from_dict(data["binner"])
    params = model._tree_params()
    model._trees = [_tree_from_dict(t, params) for t in data["trees"]]
    if data["kind"] == "classifier":
        model.encoder_ = LabelEncoder()
        model.encoder_.classes_ = np.asarray(data["classes"])
        model.base_logits_ = np.asarray(data["base_logits"], dtype=float)
    else:
        model.base_score_ = float(data["base_score"])
    if data["kind"] == "quantile_regressor":
        model._leaf_values = [np.asarray(lv, dtype=float)
                              for lv in data["leaf_values"]]
    if "telemetry" in data:
        model.fit_telemetry_ = dict(data["telemetry"])
    if "drift_baseline" in data:
        model.drift_baseline_ = dict(data["drift_baseline"])
    if "feature_view" in data:
        model.feature_view_ = dict(data["feature_view"])
    return model


def gbdt_to_json(model, **json_kwargs) -> str:
    return json.dumps(gbdt_to_dict(model), **json_kwargs)


def gbdt_from_json(payload: str):
    return gbdt_from_dict(json.loads(payload))


# --------------------------------------------------------------------------- #
# Random forests
# --------------------------------------------------------------------------- #

_FOREST_HYPERPARAMS = (
    "n_estimators", "max_depth", "min_samples_leaf", "max_features",
    "bootstrap", "max_bins", "random_state",
)


def forest_to_dict(
    model: RandomForestRegressor | RandomForestClassifier,
) -> dict:
    """Serialize a fitted random forest to a JSON-safe dict."""
    if model._binner is None:
        raise ValueError("model must be fitted before serialization")
    out = {
        "format_version": FORMAT_VERSION,
        "kind": ("rf_classifier"
                 if isinstance(model, RandomForestClassifier)
                 else "rf_regressor"),
        "hyperparams": {k: getattr(model, k) for k in _FOREST_HYPERPARAMS},
        "n_features": model.n_features_,
        "binner": _binner_to_dict(model._binner),
        "trees": [_tree_to_dict(t) for t in model._trees],
    }
    if isinstance(model, RandomForestClassifier):
        out["classes"] = model.encoder_.classes_.tolist()
    telemetry = getattr(model, "fit_telemetry_", None)
    if telemetry is not None:
        out["telemetry"] = dict(telemetry)
    baseline = getattr(model, "drift_baseline_", None)
    if baseline is not None:
        out["drift_baseline"] = dict(baseline)
    view = getattr(model, "feature_view_", None)
    if view is not None:
        out["feature_view"] = dict(view)
    return out


def forest_from_dict(
    data: dict,
) -> RandomForestRegressor | RandomForestClassifier:
    """Reconstruct a fitted forest from :func:`forest_to_dict` output."""
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format {data.get('format_version')!r}"
        )
    cls = (RandomForestClassifier if data["kind"] == "rf_classifier"
           else RandomForestRegressor)
    model = cls(**data["hyperparams"])
    model.n_features_ = int(data["n_features"])
    model._binner = _binner_from_dict(data["binner"])
    params = model._params()
    model._trees = [_tree_from_dict(t, params) for t in data["trees"]]
    if data["kind"] == "rf_classifier":
        model.encoder_ = LabelEncoder()
        model.encoder_.classes_ = np.asarray(data["classes"])
    if "telemetry" in data:
        model.fit_telemetry_ = dict(data["telemetry"])
    if "drift_baseline" in data:
        model.drift_baseline_ = dict(data["drift_baseline"])
    if "feature_view" in data:
        model.feature_view_ = dict(data["feature_view"])
    return model


# --------------------------------------------------------------------------- #
# Preprocessing: scaler and pipeline
# --------------------------------------------------------------------------- #


def scaler_to_dict(scaler: StandardScaler) -> dict:
    if scaler.mean_ is None:
        raise ValueError("scaler must be fitted before serialization")
    return {
        "format_version": FORMAT_VERSION,
        "kind": "standard_scaler",
        "mean": scaler.mean_.tolist(),
        "scale": scaler.scale_.tolist(),
    }


def scaler_from_dict(data: dict) -> StandardScaler:
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format {data.get('format_version')!r}"
        )
    scaler = StandardScaler()
    scaler.mean_ = np.asarray(data["mean"], dtype=float)
    scaler.scale_ = np.asarray(data["scale"], dtype=float)
    return scaler


def pipeline_to_dict(pipeline: PredictionPipeline) -> dict:
    out = {
        "format_version": FORMAT_VERSION,
        "kind": "pipeline",
        "scaler": (scaler_to_dict(pipeline.scaler)
                   if pipeline.scaler is not None else None),
        "model": model_to_dict(pipeline.model),
    }
    view = getattr(pipeline, "feature_view_", None)
    if view is not None:
        out["feature_view"] = dict(view)
    return out


def pipeline_from_dict(data: dict) -> PredictionPipeline:
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format {data.get('format_version')!r}"
        )
    scaler = (scaler_from_dict(data["scaler"])
              if data.get("scaler") is not None else None)
    pipeline = PredictionPipeline(model_from_dict(data["model"]),
                                  scaler=scaler)
    if "feature_view" in data:
        pipeline.feature_view_ = dict(data["feature_view"])
    return pipeline


# --------------------------------------------------------------------------- #
# Generic dispatch (what the model registry speaks)
# --------------------------------------------------------------------------- #

#: ``kind`` tag -> loader.  "regressor"/"classifier" are the original
#: GBDT tags, kept verbatim so pre-existing payloads stay loadable.
_LOADERS = {
    "regressor": gbdt_from_dict,
    "classifier": gbdt_from_dict,
    "quantile_regressor": gbdt_from_dict,
    "rf_regressor": forest_from_dict,
    "rf_classifier": forest_from_dict,
    "standard_scaler": scaler_from_dict,
    "pipeline": pipeline_from_dict,
}


def model_to_dict(model) -> dict:
    """Serialize any supported model/preprocessor to a tagged dict."""
    if isinstance(model, (GBDTRegressor, GBDTClassifier,
                          GBDTQuantileRegressor)):
        return gbdt_to_dict(model)
    if isinstance(model, (RandomForestRegressor, RandomForestClassifier)):
        return forest_to_dict(model)
    if isinstance(model, StandardScaler):
        return scaler_to_dict(model)
    if isinstance(model, PredictionPipeline):
        return pipeline_to_dict(model)
    raise TypeError(
        f"cannot serialize {type(model).__name__}; supported: GBDT, "
        "RandomForest, StandardScaler, PredictionPipeline"
    )


def model_from_dict(data: dict):
    """Reconstruct any :func:`model_to_dict` payload via its ``kind`` tag."""
    kind = data.get("kind")
    loader = _LOADERS.get(kind)
    if loader is None:
        raise ValueError(
            f"unknown model kind {kind!r}; expected one of "
            f"{sorted(_LOADERS)}"
        )
    return loader(data)


def model_to_json(model, **json_kwargs) -> str:
    return json.dumps(model_to_dict(model), **json_kwargs)


def model_from_json(payload: str):
    return model_from_dict(json.loads(payload))
