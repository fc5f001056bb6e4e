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
twins) are the whole surface: they dispatch on the concrete type / the
payload's ``kind`` tag.  Every tree ensemble goes through one writer and
one reader; a per-family table names the family's own entries.  The serving
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


_GBDT_HYPERPARAMS = (
    "n_estimators", "learning_rate", "max_depth", "min_samples_leaf",
    "subsample", "reg_lambda", "max_bins", "random_state",
)
_FOREST_HYPERPARAMS = (
    "n_estimators", "max_depth", "min_samples_leaf", "max_features",
    "bootstrap", "max_bins", "random_state",
)


def _encoder(classes) -> LabelEncoder:
    encoder = LabelEncoder()
    encoder.classes_ = np.asarray(classes)
    return encoder


def _floats(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


#: The families' own fitted entries: payload key -> (model attribute,
#: to JSON, from JSON).  The quantile family's ``leaf_values`` are its
#: per-tree refit leaf values (indexed by node id); the trees' own leaf
#: values only carry the split structure.
_ENTRIES = {
    "classes": ("encoder_", lambda e: e.classes_.tolist(), _encoder),
    "base_logits": ("base_logits_", np.ndarray.tolist, _floats),
    "base_score": ("base_score_", float, float),
    "leaf_values": ("_leaf_values", lambda lvs: [lv.tolist() for lv in lvs],
                    lambda lvs: [_floats(lv) for lv in lvs]),
}

#: Per ensemble family: payload ``kind`` ("regressor"/"classifier" are
#: the original GBDT tags, kept so existing payloads stay loadable), its
#: hyperparameters, and its own entries, written after ``trees`` in this
#: order.
_FAMILIES = {
    GBDTRegressor: ("regressor", _GBDT_HYPERPARAMS, ("base_score",)),
    GBDTClassifier: ("classifier", _GBDT_HYPERPARAMS,
                     ("classes", "base_logits")),
    GBDTQuantileRegressor: ("quantile_regressor",
                            _GBDT_HYPERPARAMS + ("quantile",),
                            ("base_score", "leaf_values")),
    RandomForestRegressor: ("rf_regressor", _FOREST_HYPERPARAMS, ()),
    RandomForestClassifier: ("rf_classifier", _FOREST_HYPERPARAMS,
                             ("classes",)),
}
_BY_KIND = {family[0]: cls for cls, family in _FAMILIES.items()}

#: Optional stamps, payload key -> model attribute: training telemetry
#: (fit wall clock, rounds or trees, final train loss), so a deployed
#: bundle stays attributable to its training run; the frozen
#: training-time prediction statistics the serving drift monitor
#: compares its live window against; and the feature-view stamp
#: (repro.fstore.attach_view) the registry checks at load.
_STAMPS = (("telemetry", "fit_telemetry_"),
           ("drift_baseline", "drift_baseline_"),
           ("feature_view", "feature_view_"))


def _check_format(data: dict) -> None:
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format {data.get('format_version')!r}"
        )


def _ensemble_to_dict(model) -> dict:
    """Serialize a fitted GBDT or forest to a JSON-safe dict."""
    if model._binner is None:
        raise ValueError("model must be fitted before serialization")
    kind, hyperparams, entries = _FAMILIES[type(model)]
    out = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "hyperparams": {k: getattr(model, k) for k in hyperparams},
        "n_features": model.n_features_,
        "binner": _binner_to_dict(model._binner),
        "trees": [_tree_to_dict(t) for t in model._trees],
    }
    for key in entries:
        attr, to_json, _ = _ENTRIES[key]
        out[key] = to_json(getattr(model, attr))
    for key, attr in _STAMPS:
        value = getattr(model, attr, None)
        if value is not None:
            out[key] = dict(value)
    return out


def _ensemble_from_dict(data: dict):
    """Reconstruct a fitted GBDT or forest from :func:`model_to_dict`
    output."""
    _check_format(data)
    cls = _BY_KIND[data["kind"]]
    model = cls(**data["hyperparams"])
    model.n_features_ = int(data["n_features"])
    model._binner = _binner_from_dict(data["binner"])
    for key in _FAMILIES[cls][2]:
        attr, _, from_json = _ENTRIES[key]
        setattr(model, attr, from_json(data[key]))
    params = model._tree_params()
    model._set_trees([_tree_from_dict(t, params) for t in data["trees"]])
    for key, attr in _STAMPS:
        if key in data:
            setattr(model, attr, dict(data[key]))
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
    _check_format(data)
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
    _check_format(data)
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

#: ``kind`` tag -> loader.
_LOADERS = {
    **dict.fromkeys(_BY_KIND, _ensemble_from_dict),
    "standard_scaler": scaler_from_dict,
    "pipeline": pipeline_from_dict,
}


def model_to_dict(model) -> dict:
    """Serialize any supported model/preprocessor to a tagged dict."""
    if type(model) in _FAMILIES:
        return _ensemble_to_dict(model)
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
