"""Preprocessing: scaling, splits, encodings.

Small, sklearn-shaped utilities: ``StandardScaler`` for the neural models,
``train_test_split`` with the paper's 70/30 random split, cyclic encoding
for compass/angle features (so 359 deg sits next to 1 deg), and a simple
integer label encoder.
"""

from __future__ import annotations

import numpy as np


class StandardScaler:
    """Zero-mean unit-variance feature scaling."""

    def __init__(self):
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X) -> "StandardScaler":
        X = np.asarray(X, dtype=float)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0  # constant columns pass through centered
        self.scale_ = scale
        return self

    def transform(self, X) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        return (np.asarray(X, dtype=float) - self.mean_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        return np.asarray(X, dtype=float) * self.scale_ + self.mean_


def train_test_split(
    *arrays,
    test_size: float = 0.3,
    rng: np.random.Generator | int | None = None,
):
    """Random split of parallel arrays; paper uses a 70/30 ratio.

    Returns ``a_train, a_test, b_train, b_test, ...`` in sklearn order.
    """
    if not arrays:
        raise ValueError("nothing to split")
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be in (0, 1)")
    n = len(arrays[0])
    for arr in arrays:
        if len(arr) != n:
            raise ValueError("arrays must share their first dimension")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * test_size)))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    out = []
    for arr in arrays:
        arr = np.asarray(arr)
        out.extend([arr[train_idx], arr[test_idx]])
    return tuple(out)


def split_by_run(
    run_ids, test_size: float = 0.3,
    rng: np.random.Generator | int | None = None,
    strata=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (train_mask, test_mask) keeping whole runs together.

    Sequence models must not see fragments of a test run during training;
    splitting at run granularity prevents that leakage.

    ``strata`` (optional, per-row labels such as trajectory x mobility
    mode) stratifies the split: each stratum contributes its own ~30% of
    runs, so a small campaign cannot end up with, say, every southbound
    walk in the test set.  Strata with a single run stay in training.
    """
    run_ids = np.asarray(run_ids)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    if strata is None:
        run_groups = {None: np.unique(run_ids)}
    else:
        strata = np.asarray(strata)
        if len(strata) != len(run_ids):
            raise ValueError("strata length mismatch")
        run_groups = {}
        for run in np.unique(run_ids):
            label = strata[run_ids == run][0]
            run_groups.setdefault(label, []).append(run)
        run_groups = {k: np.asarray(v) for k, v in run_groups.items()}

    test_runs: set = set()
    for runs in run_groups.values():
        if strata is not None and len(runs) < 2:
            continue
        perm = rng.permutation(len(runs))
        n_test = max(1, int(round(len(runs) * test_size)))
        test_runs.update(np.asarray(runs)[perm[:n_test]].tolist())
    test_mask = np.asarray([r in test_runs for r in run_ids])
    if not test_mask.any():  # degenerate: everything single-run strata
        return split_by_run(run_ids, test_size, rng, strata=None)
    return ~test_mask, test_mask


def cyclic_encode(angles_deg) -> np.ndarray:
    """Map angles in degrees to (sin, cos) columns.

    Compass direction and the two UE-panel angles are circular quantities;
    feeding raw degrees makes 0 and 360 maximally distant.  Angles are
    normalized mod 360 first so coterminal inputs (0 and 360, -90 and
    270) encode to bit-identical pairs -- in particular exactly
    ``(0.0, 1.0)`` at 0/360 deg, where the raw ``sin(radians(360.0))``
    would be ~-2.45e-16.  Inputs already in [0, 360) pass through the
    ``mod`` untouched, so encodings of in-range data are unchanged.  NaN
    angles (e.g. Loop T-features) propagate as NaN in both columns.
    """
    a = np.mod(np.asarray(angles_deg, dtype=float), 360.0)
    # mod of a tiny negative (-1e-69) rounds up to exactly 360.0; fold it
    # back so the residue really lives in [0, 360).
    a = np.where(a == 360.0, 0.0, a)
    a = np.radians(a)
    return np.column_stack([np.sin(a), np.cos(a)])


class LabelEncoder:
    """Map arbitrary labels to contiguous integers 0..k-1."""

    def __init__(self):
        self.classes_: np.ndarray | None = None

    def fit(self, y) -> "LabelEncoder":
        self.classes_ = np.unique(np.asarray(y))
        return self

    def fit_stream(self, ys) -> "LabelEncoder":
        """Fit from an iterable of label chunks: the sorted union of their
        labels (one chunk finds exactly what :meth:`fit` does)."""
        classes = None
        for y in ys:
            u = np.unique(np.asarray(y))
            classes = u if classes is None else np.union1d(classes, u)
        if classes is None:
            raise ValueError("empty chunk stream")
        self.classes_ = classes
        return self

    def transform(self, y) -> np.ndarray:
        if self.classes_ is None:
            raise RuntimeError("encoder is not fitted")
        y = np.asarray(y)
        index = {label: i for i, label in enumerate(self.classes_.tolist())}
        try:
            return np.asarray([index[v] for v in y.tolist()])
        except KeyError as exc:
            raise ValueError(f"unseen label {exc.args[0]!r}") from None

    def fit_transform(self, y) -> np.ndarray:
        return self.fit(y).transform(y)

    def inverse_transform(self, codes) -> np.ndarray:
        if self.classes_ is None:
            raise RuntimeError("encoder is not fitted")
        return self.classes_[np.asarray(codes, dtype=int)]


class PredictionPipeline:
    """An optional :class:`StandardScaler` in front of any estimator.

    The deployable unit the serving layer ships: models that were trained
    on scaled features (KNN, the neural baselines) carry their scaler so
    a request's raw feature vector is transformed exactly as training
    data was.  ``scaler=None`` passes features through untouched (the
    tree models bin raw values and need no scaling).
    """

    def __init__(self, model, scaler: StandardScaler | None = None):
        self.model = model
        self.scaler = scaler

    def _transform(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.scaler.transform(X) if self.scaler is not None else X

    def fit(self, X, y) -> "PredictionPipeline":
        X = np.asarray(X, dtype=float)
        if self.scaler is not None:
            X = self.scaler.fit_transform(X)
        self.model.fit(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        return self.model.predict(self._transform(X))

    def predict_row(self, row) -> float:
        """Predict from one raw telemetry row (a plain dict).

        Requires a feature-view stamp (``repro.fstore.attach_view``,
        applied by ``Lumos5G.publish``) so the pipeline knows which
        features to compute; the online path never allocates a table.
        """
        from repro import fstore

        view = fstore.view_of(self)
        if view is None:
            raise RuntimeError(
                "pipeline has no feature_view_ stamp; publish it through "
                "repro.fstore.attach_view to enable row predictions"
            )
        x = fstore.view_from_dict(view["view"]).transform_row(row)
        return float(self.predict(x[None, :])[0])

    def predict_proba(self, X) -> np.ndarray:
        return self.model.predict_proba(self._transform(X))

    @property
    def classes_(self) -> np.ndarray:
        return self.model.classes_

    @property
    def n_features_(self) -> int | None:
        return getattr(self.model, "n_features_", None)


def one_hot(codes, n_classes: int | None = None) -> np.ndarray:
    """Integer codes -> one-hot float matrix."""
    codes = np.asarray(codes, dtype=int)
    if n_classes is None:
        n_classes = int(codes.max()) + 1 if len(codes) else 0
    out = np.zeros((len(codes), n_classes))
    out[np.arange(len(codes)), codes] = 1.0
    return out
