"""Gradient boosted decision trees -- the paper's "GDBT" models.

The paper trains a gradient boosting regressor and classifier (8000
estimators, depth 8, learning rate 0.01 in scikit-learn) and values GDBT
for being light-weight, composable, usable for classification *and*
regression, and interpretable via global feature importance.  This module
provides all four properties from scratch on the histogram-tree core:

* :class:`GBDTRegressor` -- squared-error boosting.
* :class:`GBDTQuantileRegressor` -- pinball-loss boosting with
  alpha-quantile leaf refits.
* :class:`GBDTClassifier` -- multi-class softmax boosting with Newton leaf
  values.
* all expose ``feature_importances_`` (normalized total split gain, the
  construction behind Fig. 22).

Defaults are scaled to laptop-size data (hundreds of trees rather than
8000); DESIGN.md documents this substitution.

One boosting driver (:meth:`_GBDTBase._drive`) runs every round of every
family and every entry point.  It reads a re-iterable stream of
``(binned, y)`` chunks: ``fit_binned_stream`` / ``fit_more_binned_stream``
hand it the caller's stream (the colstore pipeline's ``bin_store``), and
``fit`` / ``fit_more`` hand it the in-memory data as a one-chunk stream.
A small per-family loss object (:class:`_SquaredError`,
:class:`_PinballLoss`, :class:`_SoftmaxLoss`) carries what differs: the
init score, per-chunk gradients and hessians, the quantile leaf refit and
the train loss.  The driver owns the rest: the round loop, the in-bag
mask (one ``rng.random(n)`` draw per round, sliced per chunk), replaying
existing trees for warm starts, the ``gbdt.*`` metrics and
``fit_telemetry_``.  Trees grow through
:meth:`~repro.ml.tree.HistogramTree.fit_binned_chunks`, the one tree
grower, so ``fit`` and a one-chunk ``fit_binned_stream`` are one
computation, and a longer stream grows what the same chunks grow in
memory, bit for bit (docs/colstore.md).  ``subsample < 1`` is
in-memory only, and so is the quantile family, whose leaf refit needs
every in-bag residual of a leaf at once.

Prediction scores every tree in one traversal of the whole ensemble
(:class:`repro.ml.tree._Ensemble`, the fitted core shared with the
forests): whenever the tree list is set, each tree's per-node output
(the loss object's ``outputs``: leaf values, or the quantile family's
refit values) is concatenated, shrunken, beside the stacked node
arrays.  The steps are added in tree order from the base
score -- the same float ops as the rounds' ``state +=
lr * step`` -- so ``predict``, ``staged_errors`` and the warm-start
replay cost O(depth) numpy passes per row block, not one descent per
tree.  ``predict_binned`` (and the classifier's ``predict_proba_binned``)
score rows already coded by the model's binner, as a store fit's codes
store is.

Warm starts (docs/continuous_learning.md): every family supports
``fit_more(n_rounds, X, y)`` -- append boosting rounds on fresh data while
reusing the existing trees, binner, and base score.  The boosting
generator is kept on the model, so ``fit(k)`` followed by
``fit_more(n - k)`` on identical data is bit-identical to a single
``fit(n)`` (tests/ml/test_warm_start.py).  Constructing with
``warm_start=True`` makes repeated ``fit`` calls append rounds instead of
refitting from scratch.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro import obs
from repro.ml.preprocessing import one_hot
from repro.ml.tree import (
    FeatureBinner,
    HistogramTree,
    TreeParams,
    _Classifier,
    _Ensemble,
    _one_chunk,
)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class _SquaredError:
    """Least squares: the residual is the gradient, hessians are one.

    A loss object carries what differs between boosting families; its
    ``state`` is the per-row raw score of one chunk.
    """

    tag = "gbdt_regressor"

    def __init__(self, model: "_GBDTBase"):
        self.model = model

    def partial(self, y: np.ndarray):
        """One chunk's share of the init score."""
        return y.sum()

    def init(self, partials: list, n: int) -> None:
        """Set the base score from every chunk's ``partial``."""
        self.model.base_score_ = float(np.sum(partials) / n)

    def start(self, m: int) -> np.ndarray:
        return np.full(m, self.model.base_score_)

    def gradients(self, state: np.ndarray, y: np.ndarray):
        """Per-row (grad, hess) for one chunk; ``hess=None`` is all ones."""
        return (y - state)[:, None], None

    def refit(self, tree: HistogramTree, rows) -> None:
        """Post-growth leaf refit over the in-bag ``(binned, y, state)``."""

    def outputs(self, i: int, tree: HistogramTree) -> np.ndarray:
        """Tree ``i``'s (``tree``'s) unshrunken output per node: what a
        row landing on a leaf adds to its score, times the rate."""
        return tree.value[:, 0]

    def loss_sum(self, state: np.ndarray, y: np.ndarray) -> float:
        return float(np.sum((y - state) ** 2))


class _PinballLoss(_SquaredError):
    """Pinball loss: sign pseudo-residuals, alpha-quantile leaf refits."""

    tag = "gbdt_quantile_regressor"

    def partial(self, y: np.ndarray) -> np.ndarray:
        return y

    def init(self, partials: list, n: int) -> None:
        self.model.base_score_ = float(
            np.quantile(np.concatenate(partials), self.model.quantile))
        #: Per tree: refit alpha-quantile leaf values indexed by node id
        #: (zero at internal nodes), so prediction is one array gather.
        self.model._leaf_values = []

    def gradients(self, state, y):
        alpha = self.model.quantile
        return np.where(y - state >= 0.0, alpha, alpha - 1.0)[:, None], None

    def refit(self, tree, rows) -> None:
        leaves, residual = [], []
        for binned, y, state in rows:
            leaves.append(tree.apply(binned))
            residual.append(y - state)
        leaves, residual = np.concatenate(leaves), np.concatenate(residual)
        # Every tree leaf holds in-bag rows by construction, so the
        # refit quantile is defined wherever out-of-bag rows land.
        leaf_vals = np.zeros(len(tree.feature))
        for leaf in np.unique(leaves):
            leaf_vals[leaf] = np.quantile(residual[leaves == leaf],
                                          self.model.quantile)
        self.model._leaf_values.append(leaf_vals)

    def outputs(self, i, tree):
        return self.model._leaf_values[i]

    def loss_sum(self, state, y) -> float:
        alpha, residual = self.model.quantile, y - state
        return float(np.sum(np.where(residual >= 0.0, alpha * residual,
                                     (alpha - 1.0) * residual)))


class _SoftmaxLoss(_SquaredError):
    """Multi-class log loss over integer class codes; state is logits."""

    tag = "gbdt_classifier"

    def partial(self, y):
        return np.bincount(y, minlength=len(self.model.classes_))

    def init(self, partials, n) -> None:
        # Log-prior initial logits.
        priors = np.clip(np.sum(partials, axis=0) / n, 1e-9, 1.0)
        self.model.base_logits_ = np.log(priors)

    def start(self, m):
        return np.tile(self.model.base_logits_, (m, 1))

    def gradients(self, state, y):
        p = softmax(state)
        return (one_hot(y, len(self.model.classes_)) - p,
                np.clip(p * (1.0 - p), 1e-6, None))

    def outputs(self, i, tree):
        return tree.value

    def loss_sum(self, state, y) -> float:
        picked = np.clip(softmax(state)[np.arange(len(y)), y], 1e-12, 1.0)
        return float(np.sum(-np.log(picked)))


class _GBDTBase(_Ensemble):
    #: The family's loss object type (see :class:`_SquaredError`).
    _LOSS = _SquaredError

    def __init__(
        self,
        n_estimators: int = 300,
        learning_rate: float = 0.05,
        max_depth: int = 6,
        min_samples_leaf: int = 10,
        subsample: float = 1.0,
        reg_lambda: float = 1.0,
        max_bins: int = 256,
        random_state: int | None = 0,
        warm_start: bool = False,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.reg_lambda = reg_lambda
        self.max_bins = max_bins
        self.random_state = random_state
        self.warm_start = warm_start
        #: Boosting generator; survives across ``fit_more`` calls so a
        #: warm continuation draws the same subsample/feature streams a
        #: single longer fit would have.
        self._rng: np.random.Generator | None = None
        super().__init__()

    def _tree_params(self) -> TreeParams:
        return TreeParams(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            reg_lambda=self.reg_lambda,
        )

    def _warm_rng(self) -> np.random.Generator:
        """Deterministic generator for warm-starting a deserialized model.

        An in-process ``fit_more`` continues the generator ``fit`` left
        behind (bit-identical to one long fit); a serialize round trip
        drops that stream, so reseed deterministically from the model's
        ``random_state`` and the number of trees already grown.
        """
        seed = 0 if self.random_state is None else int(self.random_state)
        return np.random.default_rng((seed, len(self._trees)))

    def _check_fit_more(self, n_rounds: int, n_features: int) -> None:
        self._check_fitted()
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if n_features != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {n_features}"
            )

    # -- targets: what the classifier overrides ------------------------------ #

    def _targets(self, y) -> np.ndarray:
        """Raw targets -> the form the loss reads."""
        return np.asarray(y, dtype=float).ravel()

    # -- entry points --------------------------------------------------------- #

    def fit(self, X, y):
        """Fit ``n_estimators`` rounds from scratch on in-memory data.

        With ``warm_start=True`` and an already-fitted model, append the
        rounds through :meth:`fit_more` instead.
        """
        X = np.asarray(X, dtype=float)
        if self.warm_start and self._binner is not None:
            return self.fit_more(self.n_estimators, X, y)
        binner = FeatureBinner(self.max_bins)
        return self._drive(self.n_estimators,
                           _one_chunk(binner.fit_transform(X), y), binner)

    def fit_more(self, n_rounds: int, X, y):
        """Warm start: append ``n_rounds`` trees fitted on fresh data.

        The binner and base score stay frozen from the original fit --
        for the classifier the class set too, and labels outside it
        raise ``ValueError``.  Per-row boosting state is rebuilt by
        replaying the existing trees in the exact float-op order ``fit``
        used, so ``fit(k); fit_more(n - k)`` on identical data
        reproduces a single ``fit(n)`` bit for bit.
        """
        n_rounds = int(n_rounds)
        X = np.asarray(X, dtype=float)
        self._check_fit_more(n_rounds, X.shape[1])
        return self._drive(n_rounds, _one_chunk(self._binner.transform(X), y))

    # -- the boosting driver -------------------------------------------------- #

    def _node_table(self) -> np.ndarray:
        """Every tree's shrunken per-node step, in tree order."""
        loss = self._LOSS(self)
        return self.learning_rate * np.concatenate(
            [loss.outputs(i, t) for i, t in enumerate(self._trees)])

    def _score(self, binned: np.ndarray,
               staged: bool = False) -> np.ndarray:
        """Raw score per row: base plus every tree's shrunken step.

        One traversal of the whole ensemble adds the steps in tree
        order, bit for bit as the rounds added them; ``staged`` returns
        the score after every stage, base first, shape ``(T + 1,
        n[, k])``.
        """
        return self._sums(binned, self._LOSS(self).start(len(binned)),
                          staged)

    def _drive(self, n_rounds: int, chunks, binner: FeatureBinner | None = None,
               out_of_core: bool = False):
        """Run ``n_rounds`` boosting rounds over a ``(binned, y)`` stream.

        ``chunks`` is a zero-arg callable returning a fresh iterator
        over the same chunks on every call, ``y`` raw.  Given a fitted
        ``binner`` the fit is cold: fresh generator, target space and
        base score from one pass, no trees.  Without one, rounds append
        to the fitted model after every existing tree is replayed onto
        the new rows.  ``out_of_core`` marks a caller's stream (the
        ``*_binned_stream`` entry points): it is re-read every pass,
        its targets mapped chunk by chunk, and ``subsample < 1`` -- a
        row gather -- is refused.  In-memory data is mapped once.
        """
        if out_of_core and self.subsample < 1.0:
            raise NotImplementedError(
                "subsample < 1.0 requires the in-memory fit")
        if binner is None:
            self._check_fitted()
        else:
            if binner.edges_ is None:
                raise RuntimeError("binner is not fitted")
            self._learn_targets(chunks)
        def data():
            return ((b, self._targets(y)) for b, y in chunks())

        if not out_of_core:  # in memory: map the targets once
            data = partial(iter, list(data()))
        loss = self._LOSS(self)
        lens, partials, d = [], [], None
        for binned, y in data():
            lens.append(len(y))
            partials.append(loss.partial(y))
            d = np.asarray(binned).shape[1]
        n = int(np.sum(lens))
        if n == 0:
            raise ValueError("empty chunk stream")
        if binner is None:
            self._check_fit_more(n_rounds, d)
            if self._rng is None:
                self._rng = self._warm_rng()
            state = [self._score(binned) for binned, _ in data()]
        else:
            self._rng = np.random.default_rng(self.random_state)
            self.n_features_, self._binner = d, binner
            self._set_trees([])
            loss.init(partials, n)
            state = [loss.start(m) for m in lens]
        # Grown trees join the model in one _set_trees after the rounds;
        # until then predictions read the trees stacked last.
        trees = list(self._trees)
        offsets = np.cumsum([0] + lens)

        def rows(inbag):
            """Per chunk ``(binned, y, state)``, in-bag rows only."""
            for c, (binned, y) in enumerate(data()):
                s = state[c]
                if inbag is not None:
                    keep = inbag[offsets[c]:offsets[c + 1]]
                    binned, y, s = binned[keep], y[keep], s[keep]
                yield binned, y, s

        def grad_chunks(inbag):
            for binned, y, s in rows(inbag):
                yield (binned, *loss.gradients(s, y))

        params = self._tree_params()
        n_bins = self._binner.n_bins_
        obs_on = obs.enabled()
        t_start = time.perf_counter()
        try:
            for r in range(n_rounds):
                round_t0 = time.perf_counter() if obs_on else 0.0
                inbag = (self._rng.random(n) < self.subsample
                         if self.subsample < 1.0 else None)
                # A caller's stream recomputes gradients on every pass (a
                # float per row of driver state); in-memory rows keep them
                # for the round.
                grads = (partial(grad_chunks, inbag) if out_of_core
                         else partial(iter, list(grad_chunks(inbag))))
                tree = HistogramTree(params).fit_binned_chunks(
                    grads, rng=self._rng, n_bins=n_bins)
                loss.refit(tree, rows(inbag))
                trees.append(tree)
                scored = obs_on or r == n_rounds - 1
                total = 0.0
                # Targets are mapped only when the loss is read.
                step = loss.outputs(len(trees) - 1, tree)
                for c, (binned, y) in enumerate(
                        data() if scored else chunks()):
                    state[c] += self.learning_rate * np.take(
                        step, tree.apply(binned), axis=0)
                    if scored:
                        total += loss.loss_sum(state[c], y)
                if obs_on:
                    obs.inc("gbdt.rounds_total")
                    obs.observe("gbdt.round_s", time.perf_counter() - round_t0)
                    obs.set_gauge("gbdt.train_loss", total / n)
        finally:
            # Completed rounds join the model even if a later one
            # raised, as do the quantile refit values beside them.
            self._set_trees(trees)
        self.fit_telemetry_ = {
            "model": loss.tag,
            "fit_wall_s": time.perf_counter() - t_start,
            "rounds_completed": len(trees),
            "final_train_loss": total / n,
        }
        if out_of_core:
            self.fit_telemetry_.update(out_of_core=True, n_train=n)
        return self

    def staged_errors(self, X, y, metric) -> list[float]:
        """Metric after each boosting stage (for learning-curve ablations)."""
        stages = self._score(self._bin(X), staged=True)
        y = np.asarray(y)
        return [metric(y, self._decode(score)) for score in stages[1:]]


class _StreamFit:
    """The out-of-core entry points, shared by the squared-error and
    softmax families (the quantile family's leaf refit needs every
    in-bag residual of a leaf at once, so it has none)."""

    def fit_binned_stream(self, chunks, binner: FeatureBinner):
        """Out-of-core fit from a re-iterable ``(binned, y)`` chunk stream.

        ``chunks`` is a zero-arg callable returning a fresh iterator
        over identical (uint8-binned X, y) chunk pairs each call (the
        colstore pipeline's ``bin_store`` produces one); ``binner`` is
        the fitted :class:`FeatureBinner` behind the codes.  Driver
        state is the per-row raw score -- one float64 per row for the
        regressor, the k-class logits (8k bytes) for the classifier --
        from which each chunk's gradients are recomputed every round,
        so no gathered matrix ever exists.  A classifier's classes are
        the sorted union of the stream's labels, as in memory.  A
        single-chunk stream reproduces :meth:`fit` bit for bit, and any
        stream grows the trees its chunks grow in memory
        (docs/colstore.md).  ``subsample < 1`` needs row gathers and is
        not supported out of core.
        """
        return self._drive(self.n_estimators, chunks, binner,
                           out_of_core=True)

    def fit_more_binned_stream(self, n_rounds: int, chunks):
        """Warm-start the out-of-core path: append rounds from a stream.

        ``chunks`` must be binned with the model's own (frozen) binner;
        a classifier's class set is frozen too, and labels outside it
        raise ``ValueError`` before any tree is grown.  Per-row state is
        rebuilt by replaying the existing trees, so a cold
        ``fit_binned_stream(n)`` equals ``fit_binned_stream(k)`` plus
        ``fit_more_binned_stream(n - k)`` over the same stream bit for
        bit.  The refit data is only ever seen one chunk at a time.
        """
        return self._drive(int(n_rounds), chunks, out_of_core=True)


class GBDTRegressor(_StreamFit, _GBDTBase):
    """Least-squares gradient boosting."""


class GBDTQuantileRegressor(_GBDTBase):
    """Gradient boosting for conditional quantiles (pinball loss).

    Each round fits a tree to the pinball pseudo-residuals
    ``alpha - 1{y < F}`` and then refits every leaf to the alpha-quantile
    of its residuals (the classical GBM quantile recipe).  Quantile
    predictions are what risk-aware consumers need -- e.g. an ABR policy
    that wants "throughput I can count on 90% of the time" rather than
    the conditional mean.  In-memory only: the leaf refit needs every
    in-bag residual of a leaf at once.
    """

    _LOSS = _PinballLoss

    def __init__(self, quantile: float = 0.5, **kwargs):
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        super().__init__(**kwargs)
        self.quantile = quantile


class GBDTClassifier(_Classifier, _StreamFit, _GBDTBase):
    """Multi-class softmax boosting with Newton leaf values.

    Each boosting round grows one multi-output tree on the per-class
    gradients ``p - y`` with hessians ``p (1 - p)``; predictions are the
    argmax of the accumulated logits.
    """

    _LOSS = _SoftmaxLoss

    def _learn_targets(self, chunks) -> None:
        super()._learn_targets(chunks)
        if len(self.encoder_.classes_) < 2:
            raise ValueError("need at least two classes")

    def _targets(self, y) -> np.ndarray:
        return self.encoder_.transform(np.asarray(y))

    _proba = staticmethod(softmax)
