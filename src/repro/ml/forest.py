"""Random forests -- the RF baseline of Alimpertis et al. [20].

Bagged histogram trees with per-split feature subsampling.  The regressor
averages leaf means; the classifier averages per-class scores of trees fit
on one-hot targets (probability forests), matching scikit-learn's
``predict_proba``-averaging behaviour closely enough for baseline duty.
Prediction descends every tree in one traversal
(:func:`repro.ml.tree._ensemble_sums`), so its cost grows with depth,
not with the number of trees times depth; ``max_depth=None`` grows
until ``min_samples_leaf`` stops a split.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro.ml.preprocessing import LabelEncoder, one_hot
from repro.ml.tree import (
    FeatureBinner,
    HistogramTree,
    TreeParams,
    _ensemble_sums,
    _feature_importances,
    _one_chunk,
)
from repro.par import spawn_seeds


class _ForestBase:
    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 12,
        min_samples_leaf: int = 3,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        max_bins: int = 256,
        random_state: int | None = 0,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.max_bins = max_bins
        #: Tree i grows from the i-th child of this seed's sequence.
        self.random_state = random_state
        self._binner: FeatureBinner | None = None
        self._trees: list[HistogramTree] = []
        self.n_features_: int | None = None
        #: Training provenance (wall clock, sizes); travels with the
        #: serialized model like the GBDT family's telemetry does.
        self.fit_telemetry_: dict | None = None

    def _params(self) -> TreeParams:
        return TreeParams(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            reg_lambda=0.0,
            max_features=self.max_features,
        )

    def _learn_targets(self, chunks) -> None:
        """Fix the target space from the stream's raw targets."""

    def fit(self, X, y):
        """Fit on in-memory data: bin ``X``, then grow every tree."""
        X = np.asarray(X, dtype=float)
        binner = FeatureBinner(self.max_bins)
        self._fit_trees_stream(_one_chunk(binner.fit_transform(X), y),
                               binner, out_of_core=False)
        return self

    def fit_binned_stream(self, chunks, binner: FeatureBinner):
        """Out-of-core fit from a re-iterable ``(binned, y)`` chunk stream
        (see :meth:`_fit_trees_stream` for the contract)."""
        self._fit_trees_stream(chunks, binner, out_of_core=True)
        return self

    def _fit_trees_stream(self, chunks, binner: FeatureBinner,
                          out_of_core: bool) -> None:
        """Tree fitting from a re-iterable ``(binned, y)`` stream.

        Tree ``i`` draws its bootstrap from the ``i``-th child of
        ``random_state``'s seed sequence -- ``n`` draws over all rows,
        turned into per-row draw counts -- and grows from the stream
        with every row repeated by its count, in row order, chunk by
        chunk (``min_samples_leaf`` counts draws, as resampling does).
        In-memory data is the one-chunk stream, expanded once per tree;
        a caller's stream (``out_of_core``, marked in
        ``fit_telemetry_``) is re-read and re-expanded every pass, one
        chunk at a time.  The grower is the same either way, so a store
        fit equals the in-memory fit over the same chunks bit for bit.
        """
        if binner.edges_ is None:
            raise RuntimeError("binner is not fitted")
        self._learn_targets(chunks)
        t_start = time.perf_counter()
        lens, d = [], None
        for binned, _ in chunks():
            lens.append(len(binned))
            d = np.asarray(binned).shape[1]
        n = int(np.sum(lens))
        if n == 0:
            raise ValueError("empty chunk stream")
        self.n_features_ = d
        self._binner = binner
        offsets = np.concatenate([[0], np.cumsum(lens)])

        def coded():
            return ((np.asarray(b), self._targets(y)) for b, y in chunks())

        if not out_of_core:  # in memory: map the targets once
            coded = partial(iter, list(coded()))
        params = self._params()
        self._trees = []
        for seed in spawn_seeds(self.random_state, self.n_estimators):
            rng = np.random.default_rng(seed)
            counts = (np.bincount(rng.integers(0, n, size=n), minlength=n)
                      if self.bootstrap else None)

            def tree_chunks():
                for c, (binned, targets) in enumerate(coded()):
                    if counts is not None:
                        reps = counts[offsets[c]:offsets[c + 1]]
                        binned = np.repeat(binned, reps, axis=0)
                        targets = np.repeat(targets, reps, axis=0)
                    yield binned, targets, None

            stream = (tree_chunks if out_of_core
                      else partial(iter, list(tree_chunks())))
            self._trees.append(HistogramTree(params).fit_binned_chunks(
                stream, rng=rng, n_bins=binner.n_bins_))
        self.fit_telemetry_ = {
            "model": self._MODEL_TAG,
            "fit_wall_s": time.perf_counter() - t_start,
            "n_trees": len(self._trees),
            "n_train": n,
        }
        if out_of_core:
            self.fit_telemetry_["out_of_core"] = True

    def _check_fitted(self) -> None:
        if self._binner is None:
            raise RuntimeError("model is not fitted")

    def _bin(self, X) -> np.ndarray:
        self._check_fitted()
        return self._binner.transform(np.asarray(X, dtype=float))

    def _mean_prediction(self, binned: np.ndarray) -> np.ndarray:
        """Mean of the trees' leaf values per row: one traversal of the
        whole forest, summed in tree order from zeros, then divided by
        the tree count."""
        self._check_fitted()
        trees = self._trees
        sums = _ensemble_sums(trees, binned,
                              np.concatenate([t.value for t in trees]),
                              np.zeros((len(binned), trees[0].n_outputs)))
        return sums / len(trees)

    @property
    def feature_importances_(self) -> np.ndarray:
        self._check_fitted()
        return _feature_importances(self._trees, self.n_features_)


class RandomForestRegressor(_ForestBase):
    """Bagging + feature-subsampled regression trees."""

    _MODEL_TAG = "rf_regressor"

    def _targets(self, y) -> np.ndarray:
        return np.asarray(y, dtype=float).reshape(-1, 1)

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """:meth:`predict` for rows already coded by the model's binner."""
        return self._mean_prediction(binned)[:, 0]

    def predict(self, X) -> np.ndarray:
        return self.predict_binned(self._bin(X))


class RandomForestClassifier(_ForestBase):
    """Probability forest over one-hot targets."""

    _MODEL_TAG = "rf_classifier"

    def _learn_targets(self, chunks) -> None:
        # Classes are the sorted union of labels across the chunks.
        self.encoder_ = LabelEncoder().fit_stream(y for _, y in chunks())

    def _targets(self, y) -> np.ndarray:
        return one_hot(self.encoder_.transform(np.asarray(y)),
                       len(self.encoder_.classes_))

    def predict_proba_binned(self, binned: np.ndarray) -> np.ndarray:
        """:meth:`predict_proba` for rows already coded by the model's
        binner."""
        scores = np.clip(self._mean_prediction(binned), 0.0, None)
        totals = scores.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return scores / totals

    def predict_proba(self, X) -> np.ndarray:
        return self.predict_proba_binned(self._bin(X))

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """:meth:`predict` for rows already coded by the model's binner."""
        codes = np.argmax(self._mean_prediction(binned), axis=1)
        return self.encoder_.inverse_transform(codes)

    def predict(self, X) -> np.ndarray:
        return self.predict_binned(self._bin(X))

    @property
    def classes_(self) -> np.ndarray:
        return self.encoder_.classes_
