"""Random forests -- the RF baseline of Alimpertis et al. [20].

Bagged histogram trees with per-split feature subsampling.  The regressor
averages leaf means; the classifier averages per-class scores of trees fit
on one-hot targets (probability forests), matching scikit-learn's
``predict_proba``-averaging behaviour closely enough for baseline duty.
Prediction descends every tree in one traversal of the stacked forest
(:class:`repro.ml.tree._Ensemble`), so its cost grows with depth,
not with the number of trees times depth; ``max_depth=None`` grows
until ``min_samples_leaf`` stops a split.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro.ml.preprocessing import one_hot
from repro.ml.tree import (
    FeatureBinner,
    HistogramTree,
    TreeParams,
    _Classifier,
    _Ensemble,
    _one_chunk,
)
from repro.par import spawn_seeds


class _ForestBase(_Ensemble):
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
        super().__init__()

    def _tree_params(self) -> TreeParams:
        return TreeParams(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            reg_lambda=0.0,
            max_features=self.max_features,
        )

    def fit(self, X, y):
        """Fit on in-memory data: bin ``X``, then grow every tree."""
        X = np.asarray(X, dtype=float)
        binner = FeatureBinner(self.max_bins)
        return self._fit_trees_stream(_one_chunk(binner.fit_transform(X), y),
                                      binner, out_of_core=False)

    def fit_binned_stream(self, chunks, binner: FeatureBinner):
        """Out-of-core fit from a re-iterable ``(binned, y)`` chunk stream
        (see :meth:`_fit_trees_stream` for the contract)."""
        return self._fit_trees_stream(chunks, binner, out_of_core=True)

    def _fit_trees_stream(self, chunks, binner: FeatureBinner,
                          out_of_core: bool):
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
        # A new binner never meets the old trees, even if growth raises.
        self.n_features_, self._binner = d, binner
        self._set_trees([])
        offsets = np.concatenate([[0], np.cumsum(lens)])

        def coded():
            return ((np.asarray(b), self._targets(y)) for b, y in chunks())

        if not out_of_core:  # in memory: map the targets once
            coded = partial(iter, list(coded()))
        params = self._tree_params()
        trees = []
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
            trees.append(HistogramTree(params).fit_binned_chunks(
                stream, rng=rng, n_bins=binner.n_bins_))
        self._set_trees(trees)
        self.fit_telemetry_ = {
            "model": self._MODEL_TAG,
            "fit_wall_s": time.perf_counter() - t_start,
            "n_trees": len(trees),
            "n_train": n,
        }
        if out_of_core:
            self.fit_telemetry_["out_of_core"] = True
        return self

    def _score(self, binned: np.ndarray) -> np.ndarray:
        """Mean of the trees' leaf values per row: one traversal of the
        whole forest, summed in tree order from zeros, then divided by
        the tree count."""
        start = np.zeros((len(binned), self._trees[0].n_outputs))
        return self._sums(binned, start) / len(self._trees)


class RandomForestRegressor(_ForestBase):
    """Bagging + feature-subsampled regression trees."""

    _MODEL_TAG = "rf_regressor"

    def _targets(self, y) -> np.ndarray:
        return np.asarray(y, dtype=float).reshape(-1, 1)

    def _decode(self, score: np.ndarray) -> np.ndarray:
        return score[:, 0]


class RandomForestClassifier(_Classifier, _ForestBase):
    """Probability forest over one-hot targets."""

    _MODEL_TAG = "rf_classifier"

    def _targets(self, y) -> np.ndarray:
        return one_hot(self.encoder_.transform(np.asarray(y)),
                       len(self.encoder_.classes_))

    @staticmethod
    def _proba(score: np.ndarray) -> np.ndarray:
        scores = np.clip(score, 0.0, None)
        totals = scores.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return scores / totals
