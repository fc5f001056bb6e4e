"""Histogram-based decision trees (the shared core of GBDT and forests).

Features are quantized once into at most 256 quantile bins; split search
then reduces to per-bin gradient/hessian histograms (the LightGBM-style
construction, Ke et al., NeurIPS 2017).  One builder covers every tree
use in the repo:

* plain regression trees fit targets with ``grad=y, hess=1`` (leaf = mean);
* gradient boosting fits Newton steps with arbitrary grad/hess;
* classification forests fit one-hot targets as multi-output regression.

Trees support multi-output targets: a leaf stores a k-vector and the split
gain sums over outputs.

Prediction has one traversal (:func:`_descend`): every (row, tree) pair
of a batch descends level by level through node arrays, so an ensemble
of T trees costs O(max depth) numpy passes, not T Python-level descents.
A single tree is its one-tree case; :func:`_ensemble_sums` concatenates
an ensemble's node arrays on every call and accumulates the trees'
outputs in tree order, bit for bit as a per-tree loop would.

Growth runs through an iterative, frontier-based engine
(:class:`_TreeGrower`) with the four classic histogram-GBDT
optimizations -- one-shot all-feature offset-bincount histograms, the
histogram-subtraction trick, in-place stable row partitioning, and a
fully vectorized split search (docs/performance.md).  The original
recursive grower survives as :meth:`HistogramTree.fit_reference`
(mirroring the ``predict_binned_slow`` pattern) and the engine produces
bit-identical trees: same node order, splits, values, gains and
``feature_gain_``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs

MAX_BINS = 256


class FeatureBinner:
    """Quantile binning of a float feature matrix into uint8 codes.

    Fits either in one shot (:meth:`fit`) or out of core
    (:meth:`partial_fit` per chunk + :meth:`finalize`, or
    :meth:`fit_stream` over a chunk iterable).  The streaming fit grows
    one :class:`repro.colstore.QuantileSketch` per feature and merges
    chunks into it; as long as a feature's finite values fit the sketch
    capacity (the default holds every paper-scale campaign) the sketch
    is *exact* and the finalized edges are bit-identical to
    :meth:`fit` on the gathered matrix.  Past capacity the edges are
    rank-approximate with a known bound (``docs/colstore.md``).
    """

    def __init__(self, max_bins: int = MAX_BINS, *,
                 sketch_capacity: int | None = None):
        if not 2 <= max_bins <= MAX_BINS:
            raise ValueError(f"max_bins must be in [2, {MAX_BINS}]")
        self.max_bins = max_bins
        self.sketch_capacity = sketch_capacity
        self.edges_: list[np.ndarray] | None = None
        self._sketches: list | None = None

    def fit(self, X: np.ndarray) -> "FeatureBinner":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        self.edges_ = []
        qs = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
        for j in range(X.shape[1]):
            col = X[:, j]
            col = col[np.isfinite(col)]
            if len(col) == 0 or col.min() == col.max():
                # Missing or constant feature: one bin, never splittable.
                self.edges_.append(np.empty(0))
                continue
            edges = np.unique(np.quantile(col, qs))
            self.edges_.append(edges)
        return self

    def partial_fit(self, X: np.ndarray) -> "FeatureBinner":
        """Absorb one chunk into the per-feature quantile sketches."""
        from repro.colstore import DEFAULT_CAPACITY, QuantileSketch

        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if self._sketches is None:
            cap = self.sketch_capacity or DEFAULT_CAPACITY
            self._sketches = [QuantileSketch(cap) for _ in range(X.shape[1])]
        if len(self._sketches) != X.shape[1]:
            raise ValueError("chunk feature count changed between calls")
        for j, sketch in enumerate(self._sketches):
            col = X[:, j]
            sketch.add(col[np.isfinite(col)])
        return self

    def finalize(self) -> "FeatureBinner":
        """Turn the accumulated sketches into bin edges.

        A sketch that never compacted replays :meth:`fit`'s exact
        arithmetic (``np.quantile`` over the very values it absorbed, in
        insertion order -- the quantile is order-insensitive, so the
        edges are bit-identical to the one-shot fit); a compacted sketch
        answers from its weighted summary.
        """
        if self._sketches is None:
            raise RuntimeError("partial_fit was never called")
        qs = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
        self.edges_ = []
        for sketch in self._sketches:
            if sketch.n == 0 or sketch.min_ == sketch.max_:
                self.edges_.append(np.empty(0))
                continue
            self.edges_.append(np.unique(sketch.quantiles(qs)))
        self._sketches = None
        return self

    def fit_stream(self, chunks) -> "FeatureBinner":
        """Fit from an iterable of 2-D chunks (one pass, bounded memory)."""
        for X in chunks:
            self.partial_fit(X)
        return self.finalize()

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("binner is not fitted")
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape, dtype=np.uint8)
        for j, edges in enumerate(self.edges_):
            col = X[:, j]
            codes = np.searchsorted(edges, col, side="right")
            codes[~np.isfinite(col)] = 0  # missing values go to bin 0
            out[:, j] = codes.astype(np.uint8)
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def n_bins(self, feature: int) -> int:
        return len(self.edges_[feature]) + 1

    @property
    def n_bins_(self) -> np.ndarray:
        """Per-feature bin counts; what tree growth needs to size its
        histogram grid without rescanning codes per node."""
        if self.edges_ is None:
            raise RuntimeError("binner is not fitted")
        return np.asarray([len(e) + 1 for e in self.edges_], dtype=np.int64)


@dataclass
class TreeParams:
    """Growth limits shared by all tree consumers."""

    #: None = unbounded: only min_samples_leaf and min_gain stop a split.
    max_depth: int | None = 6
    min_samples_leaf: int = 5
    min_gain: float = 1e-12
    reg_lambda: float = 1.0
    #: Number of features considered per split; None = all ("sqrt" for RF).
    max_features: int | str | None = None

    @property
    def depth_limit(self) -> float:
        """``max_depth`` as a bound every depth compares against."""
        return math.inf if self.max_depth is None else self.max_depth


@dataclass
class _Node:
    feature: int = -1
    threshold_bin: int = 0
    left: int = -1
    right: int = -1
    value: np.ndarray = field(default_factory=lambda: np.zeros(1))
    n_samples: int = 0
    gain: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def _split_scores(hist: np.ndarray, G: np.ndarray, H: np.ndarray,
                  n_node: int, lam: float, msl: int) -> np.ndarray:
    """Scores for every (feature, bin) candidate of a node's histogram.

    One cumulative-sum pass over the histogram planes, then the split
    objective evaluated on the whole ``(n_features, B-1)`` grid at once;
    invalid candidates (min_samples_leaf) are -inf.  On a direct-built
    histogram every cell of the result is bit-identical to the
    reference grower's per-feature scores.
    """
    B, k = hist.shape[1], (hist.shape[2] - 1) // 2
    GL = np.cumsum(hist[:, :, :k], axis=1)[:, : B - 1, :]
    HL = np.cumsum(hist[:, :, k:2 * k], axis=1)[:, : B - 1, :]
    NL = np.cumsum(hist[:, :, 2 * k], axis=1)[:, : B - 1]
    GR = G[None, None, :] - GL
    HR = H[None, None, :] - HL
    NR = n_node - NL
    valid = (NL >= msl) & (NR >= msl)
    score = ((GL * GL / (HL + lam)).sum(axis=2)
             + (GR * GR / (HR + lam)).sum(axis=2))
    score[~valid] = -np.inf
    return score


def _best_direct_split(score: np.ndarray, base: float):
    """Winning (feature-position, bin, gain) on a direct-built
    histogram's scores, or None: per-feature argmax, then the first
    occurrence of the max gain (see :meth:`_TreeGrower._select`)."""
    if score.size == 0:
        return None
    b_f = np.argmax(score, axis=1)  # first occurrence per feature
    sc_f = score[np.arange(score.shape[0]), b_f]
    gain_f = sc_f - base
    f_pos = int(np.argmax(gain_f))  # first occurrence of max gain
    gain = float(gain_f[f_pos])
    if not np.isfinite(gain):
        return None
    return f_pos, int(b_f[f_pos]), gain


class _TreeGrower:
    """Iterative frontier-based growth engine for :class:`HistogramTree`.

    Equivalent to the recursive reference grower
    (:meth:`HistogramTree.fit_reference`) node for node and bit for bit,
    but structured around four histogram-GBDT optimizations:

    1. **One-shot histogram construction**: per node, a single set of
       ``np.bincount`` calls over ``codes + per-feature bin offsets``
       builds every feature's grad/hess/count histogram at once, instead
       of a Python loop of ``n_features x n_outputs`` bincounts.
    2. **Histogram subtraction**: only the smaller child's histogram is
       built from rows; the larger child's is derived as
       ``parent - sibling``.  Parent histograms ride the frontier and
       are dropped as soon as both children own theirs.
    3. **In-place stable partition**: one shared set of row-major
       arrays (codes, grad, hess) is reordered in place at each split,
       so a node's rows are a contiguous slice -- no per-node
       ``binned[idx]`` row gathers.
    4. **Vectorized split search**: scores for every (feature, bin)
       candidate live in one 2-D array; a single argmax replaces the
       per-feature Python loop while reproducing its tie-breaking
       (first feature in sampled order, then lowest bin) exactly.

    Bit-identity with the reference is preserved by keeping every float
    that lands in the tree on the reference's exact computation path.
    Node G/H come from contiguous slice sums over rows in original
    order (stable partition).  Direct-built histograms accumulate
    per-cell in ascending row order, so their split scores equal the
    reference's bit for bit; selection then mirrors the reference's
    control flow -- per-feature bin by raw-score argmax, features
    compared on ``gain = score - base`` with first-wins ties (gain
    space matters: scores one ulp apart can round to equal gains).  A
    *derived* (parent - sibling) histogram carries ulp-level rounding
    noise, so its scores only nominate a near-tie band (everything
    within ``BAND_REL`` of the max -- orders of magnitude wider than
    the noise, so the reference's winner is always inside); every
    feature in the band is then re-scored with an exact single-feature
    pass and the same gain-space scan picks the winner.  Stored gains
    always come from the exact path.
    """

    #: Children smaller than this build their histograms directly:
    #: tiny nodes are cheap to histogram but dense in exactly-tied
    #: candidate splits, where derived-histogram noise would force wide
    #: exact re-scoring bands.
    SUBTRACT_MIN_ROWS = 256
    #: Relative half-width of the near-tie band re-scored exactly when
    #: selecting on a derived histogram.  Subtraction noise is
    #: O(depth * 2^-52) relative, ~1e5 times smaller.
    BAND_REL = 1e-8

    def __init__(self, tree: "HistogramTree", binned, grad, hess, rng,
                 n_bins=None):
        self.tree = tree
        p = tree.params
        self.k = tree.n_outputs
        # Own row-major copies: the engine reorders these in place.
        self.C = np.array(binned, order="C")
        self.G = np.array(grad, dtype=float, order="C")
        self.H = np.array(hess, dtype=float, order="C")
        self.n, self.d = self.C.shape
        if n_bins is not None and len(np.asarray(n_bins)):
            B = int(np.max(n_bins))
        else:
            B = int(self.C.max()) + 1 if self.n else 1
        #: Uniform per-feature bin stride; candidate bins beyond a
        #: feature's real range are empty and min_samples_leaf-invalid,
        #: so they can never win.  Floor of 2 keeps (B-1)-wide candidate
        #: grids non-degenerate when every feature is constant.
        self.B = max(B, 2)
        self.lam = max(p.reg_lambda, 1e-12)
        self.msl = p.min_samples_leaf
        self.rng = rng
        self.k_feat = tree._n_split_features(self.d)
        self.full = self.k_feat == self.d
        #: hess == 1 everywhere (regression trees, forests, quantile
        #: boosting): the hessian histogram equals the count histogram
        #: bit for bit (a bincount of ones is the count), so skip
        #: building it.
        self.unit_hess = bool(self.n == 0 or (self.H == 1.0).all())
        # Scratch buffers reused by every histogram build (flat codes
        # and repeated per-output weights), sliced per node.
        width = self.d if self.full else self.k_feat
        self._offsets = np.arange(width, dtype=np.intp) * self.B
        self._fbuf = np.empty((self.n, width), dtype=np.intp)
        self._wbuf = np.empty(self.n * width)

    # -- histogram construction -------------------------------------------- #

    def _build_hist(self, s: int, e: int, features) -> np.ndarray:
        """All-feature histogram for rows [s, e): shape (nf, B, 2k+1).

        Planes ``[..., :k]`` hold grad sums, ``[..., k:2k]`` hess sums,
        ``[..., 2k]`` counts (exact integers in float64, so histogram
        subtraction never loses a row).  Per-cell accumulation order is
        ascending row order -- identical to the reference grower's
        per-feature bincounts.
        """
        m = e - s
        k, B = self.k, self.B
        if features is None:
            codes, nf = self.C[s:e], self.d
        else:
            codes, nf = self.C[s:e][:, features], len(features)
        flat = self._fbuf[:m]  # (m, nf): nf always equals the buffer width
        np.add(codes, self._offsets, out=flat, casting="unsafe")
        fr = flat.ravel()
        total = nf * B
        hist = np.zeros((nf, B, 2 * k + 1))
        cnt = np.bincount(fr, minlength=total).reshape(nf, B)
        hist[:, :, 2 * k] = cnt
        wview = self._wbuf[: m * nf].reshape(m, nf)
        for j in range(k):
            wview[:] = self.G[s:e, j, None]
            hist[:, :, j] = np.bincount(
                fr, weights=wview.ravel(), minlength=total
            ).reshape(nf, B)
        if self.unit_hess:
            hist[:, :, k:2 * k] = cnt[:, :, None]
        else:
            for j in range(k):
                wview[:] = self.H[s:e, j, None]
                hist[:, :, j + k] = np.bincount(
                    fr, weights=wview.ravel(), minlength=total
                ).reshape(nf, B)
        obs.inc("tree.hist_built_total")
        return hist

    # -- exact single-feature score (reference arithmetic) ------------------ #

    def _exact_scores_1f(self, s: int, e: int, f: int,
                         G: np.ndarray, H: np.ndarray) -> np.ndarray:
        """Per-bin scores for one feature on the reference grower's exact
        float path (direct single-feature histogram + cumsum, -inf at
        min_samples_leaf-invalid bins), so derived-histogram rounding
        never reaches stored gains or tie-breaking."""
        k = self.k
        codes = self.C[s:e, f]
        nb = int(codes.max()) + 1
        hist = np.empty((1, nb, 2 * k + 1))
        hist[0, :, 2 * k] = np.bincount(codes, minlength=nb)
        for j in range(k):
            hist[0, :, j] = np.bincount(codes, weights=self.G[s:e, j],
                                        minlength=nb)
            hist[0, :, k + j] = np.bincount(codes, weights=self.H[s:e, j],
                                            minlength=nb)
        return _split_scores(hist, G, H, e - s, self.lam, self.msl)[0]

    def _select(self, score: np.ndarray, derived: bool, s: int, e: int,
                features, G: np.ndarray, H: np.ndarray, base: float):
        """Winning (feature-position, bin, gain) or None.

        The reference picks each feature's bin by raw-score argmax but
        compares *features* on ``gain = score[bin] - base`` with strict
        ``>`` -- and two scores one ulp apart can round to the same
        gain, so tie-breaking must happen in gain space, not score
        space.  Direct histograms: :func:`_best_direct_split`.  Derived
        histograms: exact re-scoring of every feature in the near-tie
        band (see class docstring), same first-wins scan over exact
        gains.
        """
        if not derived:
            return _best_direct_split(score, base)
        if score.size == 0:
            return None
        smax = float(score.max())
        if not np.isfinite(smax):
            return None
        delta = self.BAND_REL * (abs(smax) + 1.0)
        in_band = (score >= smax - delta).any(axis=1)
        best = None
        best_gain = -np.inf
        for f_pos in np.flatnonzero(in_band):  # ascending sample order
            f_pos = int(f_pos)
            f = f_pos if features is None else int(features[f_pos])
            exact = self._exact_scores_1f(s, e, f, G, H)
            if exact.size == 0:
                continue
            b = int(np.argmax(exact))
            gain = float(exact[b]) - base
            if np.isfinite(gain) and gain > best_gain:
                best = (f_pos, b)
                best_gain = gain
        if best is None:
            return None
        return best[0], best[1], best_gain

    # -- partition ---------------------------------------------------------- #

    def _partition(self, s: int, e: int, f: int, b: int) -> int:
        """Stable in-place partition of rows [s, e) on code <= b.

        Left-going rows keep their relative (original) order, as do
        right-going rows, so every node's slice stays in the exact row
        order the reference grower's ``idx[mask]`` chain would produce.
        """
        mask = self.C[s:e, f] <= b
        nl = int(np.count_nonzero(mask))
        if nl == 0 or nl == e - s:
            return nl
        perm = np.concatenate([np.flatnonzero(mask), np.flatnonzero(~mask)])
        self.C[s:e] = self.C[s:e][perm]
        self.G[s:e] = self.G[s:e][perm]
        self.H[s:e] = self.H[s:e][perm]
        return nl

    # -- main loop ---------------------------------------------------------- #

    def run(self) -> None:
        tree, p = self.tree, self.tree.params
        nodes: list[_Node] = []
        obs_on = obs.enabled()
        # Frontier entries:
        # (start, end, depth, hist, derived, parent_id, is_right).
        # LIFO with right pushed first reproduces the reference's
        # pre-order: parent, full left subtree, then right subtree --
        # node ids, rng draws and feature_gain_ accumulation all land in
        # the reference's order.
        stack = [(0, self.n, 0, None, False, -1, False)]
        while stack:
            s, e, depth, hist, derived, parent, is_right = stack.pop()
            t0 = time.perf_counter() if obs_on else 0.0
            nid = len(nodes)
            if parent >= 0:
                if is_right:
                    nodes[parent].right = nid
                else:
                    nodes[parent].left = nid
            m = e - s
            G = self.G[s:e].sum(axis=0)
            H = self.H[s:e].sum(axis=0)
            node = _Node(value=tree._leaf_value(G, H), n_samples=m)
            nodes.append(node)
            if depth >= p.depth_limit or m < 2 * p.min_samples_leaf:
                continue
            features = (None if self.full
                        else self.rng.choice(self.d, size=self.k_feat,
                                             replace=False))
            if hist is None:
                hist = self._build_hist(s, e, features)
                derived = False
            base = float(np.sum(G * G / (H + self.lam)))
            score = _split_scores(hist, G, H, m, self.lam, self.msl)
            sel = self._select(score, derived, s, e, features, G, H, base)
            if sel is None:
                continue
            f_pos, b, gain = sel
            f = f_pos if features is None else int(features[f_pos])
            if gain <= 0.0 or gain <= p.min_gain:
                continue
            nl = self._partition(s, e, f, b)
            node.feature = f
            node.threshold_bin = int(b)
            node.gain = gain
            tree.feature_gain_[f] += gain
            cdepth = depth + 1
            nr = m - nl
            lhist = rhist = None
            lder = rder = False
            if self.full:
                lneed = cdepth < p.depth_limit and nl >= 2 * p.min_samples_leaf
                rneed = cdepth < p.depth_limit and nr >= 2 * p.min_samples_leaf
                small_is_left = nl <= nr
                other_need = rneed if small_is_left else lneed
                other_size = nr if small_is_left else nl
                # Subtraction pays off only for a large derived child:
                # small ones are cheap to histogram directly and skip
                # the exact re-scoring band entirely.
                if other_need and other_size >= self.SUBTRACT_MIN_ROWS:
                    # Build the smaller child's histogram from its rows;
                    # its sibling is parent - sibling for free.
                    if small_is_left:
                        shist = self._build_hist(s, s + nl, None)
                    else:
                        shist = self._build_hist(s + nl, e, None)
                    ohist = hist - shist
                    obs.inc("tree.hist_subtracted_total")
                    small_need = lneed if small_is_left else rneed
                    if small_is_left:
                        lhist = shist if small_need else None
                        rhist, rder = ohist, True
                    else:
                        rhist = shist if small_need else None
                        lhist, lder = ohist, True
            stack.append((s + nl, e, cdepth, rhist, rder, nid, True))
            stack.append((s, s + nl, cdepth, lhist, lder, nid, False))
            if obs_on:
                obs.observe("tree.node_grow_s", time.perf_counter() - t0)
        tree._set_nodes(nodes)


def _preorder_renumber(nodes: list[_Node]) -> list[_Node]:
    """Reorder a level-order node list into the engine's pre-order.

    The streaming grower creates nodes breadth-first; renumbering to
    pre-order (parent, full left subtree, right subtree) keeps
    serialized trees, node-id goldens and ``apply`` leaf ids on the same
    layout the in-memory engine produces.
    """
    if not nodes:
        return nodes
    order: list[int] = []
    stack = [0]
    while stack:
        i = stack.pop()
        order.append(i)
        node = nodes[i]
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    remap = np.full(len(nodes), -1, dtype=np.int64)
    for new, old in enumerate(order):
        remap[old] = new
    out = []
    for old in order:
        node = nodes[old]
        if not node.is_leaf:
            node.left = int(remap[node.left])
            node.right = int(remap[node.right])
        out.append(node)
    return out


class _StreamingTreeGrower:
    """Level-order growth engine reading ``(binned, grad, hess)`` chunks.

    The out-of-core counterpart of :class:`_TreeGrower`: instead of
    owning row-major arrays it re-reads a chunk stream once per tree
    level.  Each pass advances every row's *slot* (the node it currently
    sits in, an int32 per row -- the only per-row state kept across
    passes) by applying the splits chosen at the previous level, then
    accumulates one combined histogram for the whole frontier with a
    single bincount per output plane over the key
    ``slot * (d * B) + feature * B + code``.  Frontiers wider than
    ``CELL_BUDGET`` histogram cells are swept in batches (extra passes,
    same bounded memory).

    Every histogram here is built directly from rows, so split search
    is the engine's direct-histogram path itself: :func:`_split_scores`
    then :func:`_best_direct_split`.

    Every tree the repo grows from more than one chunk comes through
    here: the boosting driver behind all GBDT entry points
    (``repro.ml.gbdt``) and the forests' ``fit_binned_stream`` hand
    their streams to :meth:`HistogramTree.fit_binned_chunks`, which
    routes a single-chunk stream -- in-memory data included -- to the
    exact engine and anything longer to this class.  Two gaps to the
    engine remain open:

    * node G/H/count come from the histogram planes (feature 0's bins)
      and histograms accumulate chunk-partially, so values match the
      engine to summation-order (ulp-level) noise -- the seeded
      equivalence tests bound it.
    * with ``max_features`` set, feature subsets draw per node in level
      order (root, then children left to right), not the engine's
      pre-order -- deterministic for a seed, but a different tree.

    After growth, nodes are renumbered to pre-order and
    ``feature_gain_`` is re-accumulated in that order, so downstream
    consumers see the engine's layout.
    """

    #: Max histogram cells (nodes x features x bins x planes) per sweep.
    CELL_BUDGET = 1 << 24

    def __init__(self, tree: "HistogramTree", chunks, d: int, rng,
                 n_bins=None):
        self.tree = tree
        self.chunks = chunks  # zero-arg callable -> fresh chunk iterator
        self.d = d
        self.rng = rng
        self.k = tree.n_outputs
        p = tree.params
        if n_bins is not None and len(np.asarray(n_bins)):
            self.B = max(int(np.max(n_bins)), 2)
        else:
            self.B = MAX_BINS  # codes are uint8; extra bins never win
        self.lam = max(p.reg_lambda, 1e-12)
        self.msl = p.min_samples_leaf
        self.k_feat = tree._n_split_features(d)
        self.full = self.k_feat == self.d
        self._offsets = np.arange(d, dtype=np.intp) * self.B
        #: Per-chunk int32 node-id per row (~4 bytes/row of driver state).
        self.slots: list[np.ndarray] = []
        #: Growth scratch, in level order until :meth:`run` finishes.
        self.nodes: list[_Node] = []

    # -- one stream pass ----------------------------------------------------- #

    def _sweep(self, batch: list[int], advance: bool) -> np.ndarray:
        """Histogram rows [all chunks] sitting in ``batch`` nodes.

        ``advance`` applies the previous level's splits to every row's
        slot first (done exactly once per level, on its first batch).
        Returns shape ``(len(batch), d, B, 2k+1)``; planes as in
        :meth:`_TreeGrower._build_hist`, accumulated in chunk order.
        """
        k, B, d = self.k, self.B, self.d
        nodes = self.nodes
        feat = np.asarray([n.feature for n in nodes], dtype=np.int64)
        thr = np.asarray([n.threshold_bin for n in nodes], dtype=np.int64)
        left = np.asarray([n.left for n in nodes], dtype=np.int64)
        right = np.asarray([n.right for n in nodes], dtype=np.int64)
        slot_of = np.full(len(nodes), -1, dtype=np.int64)
        for i, nid in enumerate(batch):
            slot_of[nid] = i
        S = len(batch)
        total = S * d * B
        hist = np.zeros((S, d, B, 2 * k + 1))
        first_pass = not self.slots
        for ci, (binned, grad, hess) in enumerate(self.chunks()):
            binned = np.asarray(binned)
            grad = np.atleast_2d(np.asarray(grad, dtype=float).T).T
            m = len(binned)
            if first_pass:
                self.slots.append(np.zeros(m, dtype=np.int32))
            elif ci >= len(self.slots) or len(self.slots[ci]) != m:
                raise ValueError(
                    "chunk stream changed shape between passes; "
                    "fit_binned_chunks needs a stable re-iterable stream"
                )
            ids = self.slots[ci]
            if advance and not first_pass:
                act = np.flatnonzero(np.take(feat, ids) >= 0)
                if act.size:
                    nid = ids[act]
                    f = np.take(feat, nid)
                    goes = binned[act, f] <= np.take(thr, nid)
                    ids[act] = np.where(
                        goes, np.take(left, nid), np.take(right, nid)
                    ).astype(np.int32)
            rows = np.flatnonzero(np.take(slot_of, ids) >= 0)
            if rows.size == 0:
                continue
            slot_r = slot_of[ids[rows]]
            keys = binned[rows].astype(np.intp)
            keys += self._offsets
            keys += (slot_r * (d * B))[:, None]
            fr = keys.ravel()
            cnt = np.bincount(fr, minlength=total).reshape(S, d, B)
            hist[:, :, :, 2 * k] += cnt
            wbuf = np.empty((rows.size, d))
            for j in range(k):
                wbuf[:] = grad[rows, j, None]
                hist[:, :, :, j] += np.bincount(
                    fr, weights=wbuf.ravel(), minlength=total
                ).reshape(S, d, B)
            if hess is None:
                for j in range(k):
                    hist[:, :, :, k + j] += cnt
            else:
                hess = np.atleast_2d(np.asarray(hess, dtype=float).T).T
                for j in range(k):
                    wbuf[:] = hess[rows, j, None]
                    hist[:, :, :, k + j] += np.bincount(
                        fr, weights=wbuf.ravel(), minlength=total
                    ).reshape(S, d, B)
        obs.inc("tree.stream_sweeps_total")
        return hist

    # -- main loop ----------------------------------------------------------- #

    def run(self) -> None:
        tree, p = self.tree, self.tree.params
        nodes = self.nodes
        k = self.k
        nodes.append(_Node())
        frontier: list[int] = [0]
        depths = {0: 0}
        cells_per_node = self.d * self.B * (2 * k + 1)
        per_batch = max(1, self.CELL_BUDGET // cells_per_node)
        while frontier:
            new_frontier: list[int] = []
            for start in range(0, len(frontier), per_batch):
                batch = frontier[start:start + per_batch]
                hist = self._sweep(batch, advance=start == 0)
                for s_idx, nid in enumerate(batch):
                    h = hist[s_idx]
                    G = h[0, :, :k].sum(axis=0)
                    H = h[0, :, k:2 * k].sum(axis=0)
                    m = int(round(float(h[0, :, 2 * k].sum())))
                    node = nodes[nid]
                    node.value = tree._leaf_value(G, H)
                    node.n_samples = m
                    depth = depths.pop(nid)
                    if depth >= p.depth_limit or m < 2 * p.min_samples_leaf:
                        continue
                    features = (None if self.full
                                else self.rng.choice(self.d, size=self.k_feat,
                                                     replace=False))
                    hf = h if features is None else h[features]
                    sel = _best_direct_split(
                        _split_scores(hf, G, H, m, self.lam, self.msl),
                        float(np.sum(G * G / (H + self.lam))))
                    if sel is None:
                        continue
                    f_pos, b, gain = sel
                    f = f_pos if features is None else int(features[f_pos])
                    if gain <= 0.0 or gain <= p.min_gain:
                        continue
                    node.feature = f
                    node.threshold_bin = int(b)
                    node.gain = gain
                    node.left = len(nodes)
                    nodes.append(_Node())
                    node.right = len(nodes)
                    nodes.append(_Node())
                    depths[node.left] = depths[node.right] = depth + 1
                    new_frontier.extend((node.left, node.right))
            frontier = new_frontier
        nodes = _preorder_renumber(nodes)
        tree.feature_gain_ = np.zeros(self.d)
        for node in nodes:
            if not node.is_leaf:
                tree.feature_gain_[node.feature] += node.gain
        tree._set_nodes(nodes)


class HistogramTree:
    """One grown tree over pre-binned features.

    Growth uses the iterative frontier engine (:class:`_TreeGrower`:
    offset-bincount histograms, histogram subtraction, in-place stable
    partition, vectorized split search); the original recursive grower
    survives as :meth:`fit_reference` because it is the ground truth the
    growth-equivalence property tests (and ``benchmarks/
    bench_gbdt_fit.py``) compare against, exactly as
    :meth:`predict_binned_slow` anchors the vectorized traversal.

    A grown tree is a set of flat node arrays indexed by node id (root
    0, pre-order): ``feature`` (-1 at leaves), ``threshold_bin``,
    ``left``, ``right``, ``n_samples``, ``gain`` and ``value`` of shape
    ``(n_nodes, k)``.  The growers build :class:`_Node` objects as
    scratch and freeze them into these arrays once, when growth (or
    deserialization) finishes, so a trained ensemble holds a handful of
    arrays per tree rather than one Python object per node.

    Prediction is the one-tree case of the ensemble traversal
    (:func:`_descend`, a vectorized level-order descent over those
    arrays); GBDT and forest models descend all their trees at once
    through :func:`_ensemble_sums`.  The original per-row/per-node loop
    survives as :meth:`predict_binned_slow` because it is the reference
    implementation the equivalence property tests (and the serving
    benchmark baseline) compare against.
    """

    def __init__(self, params: TreeParams):
        self.params = params
        self.n_outputs = 1
        #: Total split gain attributed to each feature (importance raw score).
        self.feature_gain_: np.ndarray | None = None
        self._set_nodes([])

    def _set_nodes(self, nodes: list[_Node]) -> None:
        """Freeze grown (or decoded) scratch nodes into the node arrays."""
        def ints(name):
            return np.array([getattr(nd, name) for nd in nodes],
                            dtype=np.int64)

        self.feature = ints("feature")
        self.threshold_bin = ints("threshold_bin")
        self.left = ints("left")
        self.right = ints("right")
        self.n_samples = ints("n_samples")
        self.gain = np.array([nd.gain for nd in nodes], dtype=float)
        self.value = (np.concatenate([nd.value for nd in nodes], dtype=float)
                      .reshape(len(nodes), -1)
                      if nodes else np.zeros((0, self.n_outputs)))

    # -- growing ------------------------------------------------------------ #

    def _prepare_fit(self, binned, grad, hess):
        binned = np.asarray(binned)
        grad = np.atleast_2d(np.asarray(grad, dtype=float).T).T
        hess = np.atleast_2d(np.asarray(hess, dtype=float).T).T
        if grad.shape != hess.shape or len(grad) != len(binned):
            raise ValueError("grad/hess/binned shape mismatch")
        self.n_outputs = grad.shape[1]
        self.feature_gain_ = np.zeros(binned.shape[1])
        return binned, grad, hess

    def fit(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        rng: np.random.Generator | None = None,
        n_bins: np.ndarray | None = None,
    ) -> "HistogramTree":
        """Grow on uint8-binned X; grad/hess are (n,) or (n, k).

        ``n_bins`` (per-feature bin counts, e.g.
        :attr:`FeatureBinner.n_bins_`) sizes the histogram grid without
        rescanning codes; when omitted the engine takes one max over
        ``binned``.  Codes must stay below the advertised bin counts.
        """
        binned, grad, hess = self._prepare_fit(binned, grad, hess)
        rng = rng or np.random.default_rng()
        _TreeGrower(self, binned, grad, hess, rng, n_bins=n_bins).run()
        return self

    def fit_reference(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        rng: np.random.Generator | None = None,
        n_bins: np.ndarray | None = None,
    ) -> "HistogramTree":
        """Reference recursive grower (pre-engine implementation).

        Kept as ground truth for the growth-equivalence property tests
        and the baseline in ``benchmarks/bench_gbdt_fit.py``; the
        engine in :meth:`fit` must stay bit-for-bit identical to it.
        ``n_bins`` is accepted for signature compatibility and ignored
        (this grower rescans codes per node).
        """
        del n_bins
        binned, grad, hess = self._prepare_fit(binned, grad, hess)
        rng = rng or np.random.default_rng()
        idx_all = np.arange(len(binned))
        nodes: list[_Node] = []
        self._grow_reference(nodes, binned, grad, hess, idx_all, depth=0,
                             rng=rng)
        self._set_nodes(nodes)
        return self

    def fit_binned_chunks(
        self,
        chunks,
        rng: np.random.Generator | None = None,
        n_bins: np.ndarray | None = None,
    ) -> "HistogramTree":
        """Grow out of core from a re-iterable ``(binned, grad, hess)`` stream.

        ``chunks`` is a zero-arg callable returning a fresh iterator
        over the *same* chunk sequence on every call (a colstore-backed
        generator function, typically); ``hess=None`` in a triple means
        unit hessians.  The stream is re-read once per tree level, so
        peak memory is one chunk plus the frontier histogram plus ~4
        bytes of slot state per row -- never the gathered matrix.

        A stream holding a single chunk is routed straight through
        :meth:`fit` and is bit-identical to the in-memory engine;
        multi-chunk growth matches it to chunk-partial summation (ulp
        level; see :class:`_StreamingTreeGrower` for the exact
        contract).
        """
        rng = rng or np.random.default_rng()
        it = chunks()
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("empty chunk stream") from None
        single = next(it, None) is None
        del it
        binned0, grad0, hess0 = first
        if hess0 is None:
            hess0 = np.ones_like(np.atleast_2d(
                np.asarray(grad0, dtype=float).T).T)
        if single:
            return self.fit(binned0, grad0, hess0, rng=rng, n_bins=n_bins)
        d = self._prepare_fit(binned0, grad0, hess0)[0].shape[1]
        del first, binned0, grad0, hess0
        _StreamingTreeGrower(self, chunks, d, rng, n_bins=n_bins).run()
        return self

    def _n_split_features(self, n_features: int) -> int:
        mf = self.params.max_features
        if mf is None:
            return n_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return max(1, min(int(mf), n_features))

    def _leaf_value(self, G: np.ndarray, H: np.ndarray) -> np.ndarray:
        return G / (H + max(self.params.reg_lambda, 1e-12))

    def _grow_reference(self, nodes, binned, grad, hess, idx, depth,
                        rng) -> int:
        node_id = len(nodes)
        G = grad[idx].sum(axis=0)
        H = hess[idx].sum(axis=0)
        node = _Node(value=self._leaf_value(G, H), n_samples=len(idx))
        nodes.append(node)

        p = self.params
        if depth >= p.depth_limit or len(idx) < 2 * p.min_samples_leaf:
            return node_id

        n_features = binned.shape[1]
        k_feat = self._n_split_features(n_features)
        features = (np.arange(n_features) if k_feat == n_features
                    else rng.choice(n_features, size=k_feat, replace=False))

        # Floor the regularizer so empty bins (H == 0) cannot divide by zero.
        lam = max(p.reg_lambda, 1e-12)
        base_score = float(np.sum(G * G / (H + lam)))
        best_gain, best_feature, best_bin = 0.0, -1, -1

        codes_node = binned[idx]
        for f in features:
            codes = codes_node[:, f]
            n_bins = int(codes.max()) + 1
            if n_bins < 2:
                continue
            # Per-bin gradient/hessian sums for every output.
            hist_g = np.empty((n_bins, self.n_outputs))
            hist_h = np.empty((n_bins, self.n_outputs))
            hist_n = np.bincount(codes, minlength=n_bins)
            for k in range(self.n_outputs):
                hist_g[:, k] = np.bincount(codes, weights=grad[idx, k],
                                           minlength=n_bins)
                hist_h[:, k] = np.bincount(codes, weights=hess[idx, k],
                                           minlength=n_bins)
            GL = np.cumsum(hist_g, axis=0)[:-1]
            HL = np.cumsum(hist_h, axis=0)[:-1]
            NL = np.cumsum(hist_n)[:-1]
            GR = G - GL
            HR = H - HL
            NR = len(idx) - NL
            valid = (NL >= p.min_samples_leaf) & (NR >= p.min_samples_leaf)
            if not valid.any():
                continue
            score = (np.sum(GL * GL / (HL + lam), axis=1)
                     + np.sum(GR * GR / (HR + lam), axis=1))
            score[~valid] = -np.inf
            b = int(np.argmax(score))
            gain = float(score[b]) - base_score
            if gain > best_gain:
                best_gain, best_feature, best_bin = gain, int(f), b

        if best_feature < 0 or best_gain <= p.min_gain:
            return node_id

        mask = codes_node[:, best_feature] <= best_bin
        left_idx, right_idx = idx[mask], idx[~mask]
        node.feature = best_feature
        node.threshold_bin = best_bin
        node.gain = best_gain
        self.feature_gain_[best_feature] += best_gain
        node.left = self._grow_reference(nodes, binned, grad, hess,
                                         left_idx, depth + 1, rng)
        node.right = self._grow_reference(nodes, binned, grad, hess,
                                          right_idx, depth + 1, rng)
        return node_id

    # -- prediction ---------------------------------------------------------- #

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """Leaf values for pre-binned samples; shape (n, k).

        The one-tree case of the ensemble traversal (:func:`_descend`):
        rows descend level by level through the node arrays, so cost is
        O(depth) numpy passes instead of a Python loop per node group.
        """
        return np.take(self.value, self.apply(binned), axis=0)

    def apply(self, binned: np.ndarray) -> np.ndarray:
        """Leaf node-id each pre-binned sample lands in."""
        return _descend(binned, self.feature, self.threshold_bin,
                        _kids(self.feature, self.left, self.right),
                        _ONE_ROOT)[:, 0]

    # -- reference (per-row) prediction -------------------------------------- #

    def predict_binned_slow(self, binned: np.ndarray) -> np.ndarray:
        """Reference node-group-loop traversal (pre-vectorization).

        Kept as the ground truth for the equivalence property tests and
        the per-row baseline in ``benchmarks/bench_serve_latency.py``;
        must stay bit-for-bit identical to :meth:`predict_binned`.
        """
        n = len(binned)
        out = np.zeros((n, self.n_outputs))
        node_ids = np.zeros(n, dtype=int)
        active = np.arange(n)
        while len(active):
            nid = node_ids[active]
            # Group by current node to test leafness vectorized-ish.
            still = []
            for u in np.unique(nid):
                members = active[nid == u]
                f = int(self.feature[u])
                if f < 0:
                    out[members] = self.value[u]
                else:
                    goes_left = binned[members, f] <= self.threshold_bin[u]
                    node_ids[members[goes_left]] = self.left[u]
                    node_ids[members[~goes_left]] = self.right[u]
                    still.append(members)
            active = np.concatenate(still) if still else np.empty(0, dtype=int)
        return out

    def apply_slow(self, binned: np.ndarray) -> np.ndarray:
        """Reference counterpart of :meth:`apply` (see predict_binned_slow)."""
        n = len(binned)
        node_ids = np.zeros(n, dtype=int)
        active = np.arange(n)
        while len(active):
            nid = node_ids[active]
            still = []
            for u in np.unique(nid):
                members = active[nid == u]
                f = int(self.feature[u])
                if f < 0:
                    continue
                goes_left = binned[members, f] <= self.threshold_bin[u]
                node_ids[members[goes_left]] = self.left[u]
                node_ids[members[~goes_left]] = self.right[u]
                still.append(members)
            active = np.concatenate(still) if still else np.empty(0, dtype=int)
        return node_ids

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    @property
    def depth(self) -> int:
        def walk(i: int) -> int:
            if self.feature[i] < 0:
                return 0
            return 1 + max(walk(self.left[i]), walk(self.right[i]))
        return walk(0) if len(self.feature) else 0


#: Rows per block of an ensemble traversal: bounds its (rows x trees)
#: int64 node ids and float accumulation on large evaluations.
_ROW_BLOCK = 256

#: Root of a lone tree, for :meth:`HistogramTree.apply`.
_ONE_ROOT = np.zeros(1, dtype=np.int64)


def _descend(binned, feature, threshold, kids, roots) -> np.ndarray:
    """The tree traversal: leaf node-id of every (row, tree) pair.

    ``feature`` and ``threshold`` are node arrays and ``kids`` the
    child ids :func:`_kids` interleaves -- one tree's, or a whole
    ensemble's concatenated by :func:`_stack` -- and ``roots`` holds
    each tree's root id.  Every pair starts at its tree's root and the
    active pairs advance one level per iteration until all sit at
    leaves, so a batch costs O(max depth) numpy passes whatever the
    tree count, with no depth bound.  Returns shape ``(n, len(roots))``.

    A leaf is its own child, so a pair that reached one stays there
    (reading a code it ignores, at offset -1 of its row); the active set
    is compacted only once at least half of it is done, which keeps
    balanced ensembles (every leaf at one depth) free of per-level
    filtering.
    """
    T, d = len(roots), binned.shape[1]
    # Rows are read through flat offsets, where a split feature past the
    # last column would silently read the next row: refuse it up front.
    if len(feature) and int(feature.max()) >= d:
        raise IndexError(f"a tree splits on feature {int(feature.max())} "
                         f"of a {d}-column batch")
    codes = np.ravel(binned)
    node_ids = np.empty((len(binned), T), dtype=np.int64)
    node_ids[:] = roots
    leaf_of = node_ids.reshape(-1)
    # The active set: flat pair index, current node, the pair's row
    # offset into ``codes`` and the node's split feature.
    pos = np.flatnonzero(np.take(feature, leaf_of) >= 0)
    nid = leaf_of[pos]
    base = pos // T * d
    f = np.take(feature, nid)
    while pos.size:
        goes_right = np.take(codes, base + f) > np.take(threshold, nid)
        nid = np.take(kids, 2 * nid + goes_right)
        f = np.take(feature, nid)
        at_leaf = f < 0
        done = int(np.count_nonzero(at_leaf))
        if 2 * done >= len(pos):
            leaf_of[pos] = nid
            inner = ~at_leaf
            pos, nid, base, f = pos[inner], nid[inner], base[inner], f[inner]
    return node_ids


def _kids(feature, left, right) -> np.ndarray:
    """Child ids interleaved as :func:`_descend` reads them:
    ``kids[2 * i]`` / ``kids[2 * i + 1]`` are node ``i``'s left / right
    child, and a leaf is its own child."""
    own = np.arange(len(feature), dtype=np.int64)
    leaf = feature < 0
    return np.stack([np.where(leaf, own, left), np.where(leaf, own, right)],
                    axis=1).reshape(-1)


def _stack(trees: list[HistogramTree]):
    """An ensemble's node arrays concatenated in tree order.

    Returns ``(feature, threshold, kids, roots)`` for :func:`_descend`:
    child ids are shifted to index the concatenation and ``roots[t]``
    is tree ``t``'s first node, so a per-node table concatenated the
    same way is indexed by the leaf ids it returns.  Built on every
    call, never cached: a tree changed in place is read as it stands.
    """
    sizes = np.array([len(t.feature) for t in trees], dtype=np.int64)
    roots = np.cumsum(sizes) - sizes
    shift = np.repeat(roots, sizes)
    feature = np.concatenate([t.feature for t in trees])
    return (feature,
            np.concatenate([t.threshold_bin for t in trees]),
            _kids(feature, np.concatenate([t.left for t in trees]) + shift,
                  np.concatenate([t.right for t in trees]) + shift),
            roots)


def _ensemble_sums(trees: list[HistogramTree], binned: np.ndarray,
                   table: np.ndarray, start: np.ndarray,
                   staged: bool = False) -> np.ndarray:
    """``start`` plus every tree's ``table`` entry at its leaf, per row.

    ``table`` holds a per-node output for every tree, concatenated in
    tree order (``(N,)`` or ``(N, k)``); ``start`` is ``(n,)`` or
    ``(n, k)``.  One :func:`_descend` call per ``_ROW_BLOCK`` rows
    finds every tree's leaf; ``np.add.accumulate`` then adds the
    outputs strictly in tree order, so the sums are bit-identical to
    ``out = start; for t: out += table_t[leaf_t]``.  Returns the final
    sums (shaped like ``start``), or with ``staged`` every partial sum,
    shape ``(T + 1, *start.shape)`` with ``start`` first.
    """
    arrays = _stack(trees)
    out = (np.empty((len(trees) + 1,) + start.shape) if staged
           else np.empty_like(start))
    for s in range(0, len(binned), _ROW_BLOCK):
        e = s + _ROW_BLOCK
        leaves = _descend(binned[s:e], *arrays)
        steps = np.concatenate([start[s:e, None], table[leaves]], axis=1)
        np.add.accumulate(steps, axis=1, out=steps)
        if staged:
            out[:, s:e] = np.moveaxis(steps, 1, 0)
        else:
            out[s:e] = steps[:, -1]
    return out


def _one_chunk(binned: np.ndarray, y: np.ndarray):
    """In-memory ``(binned, y)`` as the one-chunk stream the stream fits read."""
    if len(binned) != len(y):
        raise ValueError("X/y length mismatch")
    return lambda: iter([(binned, y)])


def _feature_importances(trees: list[HistogramTree],
                         n_features: int) -> np.ndarray:
    """Split-gain importance of an ensemble, normalized to sum to 1."""
    total = np.zeros(n_features)
    for tree in trees:
        total += tree.feature_gain_
    s = total.sum()
    return total / s if s > 0 else total


class DecisionTreeRegressor:
    """Standalone CART-style regressor over the histogram core."""

    def __init__(self, max_depth: int = 6, min_samples_leaf: int = 5,
                 max_bins: int = MAX_BINS):
        self.params = TreeParams(max_depth=max_depth,
                                 min_samples_leaf=min_samples_leaf,
                                 reg_lambda=0.0)
        self.max_bins = max_bins
        self._binner: FeatureBinner | None = None
        self._tree: HistogramTree | None = None

    def fit(self, X, y, rng: np.random.Generator | None = None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._binner = FeatureBinner(self.max_bins)
        binned = self._binner.fit_transform(X)
        self._tree = HistogramTree(self.params)
        self._tree.fit(binned, y, np.ones_like(np.atleast_2d(y.T).T),
                       rng=rng, n_bins=self._binner.n_bins_)
        return self

    def predict(self, X) -> np.ndarray:
        if self._tree is None:
            raise RuntimeError("model is not fitted")
        binned = self._binner.transform(np.asarray(X, dtype=float))
        pred = self._tree.predict_binned(binned)
        return pred[:, 0] if pred.shape[1] == 1 else pred
