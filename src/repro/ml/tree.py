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
A single tree is its one-tree case.  :class:`_Ensemble`, the fitted core
of GBDT, forests and the standalone tree, stacks its trees' node arrays
and per-node outputs once, whenever its tree list is set, and
:meth:`_Ensemble._sums` accumulates the trees' outputs in tree order,
bit for bit as a per-tree loop would.

Growth has one grower (:class:`_Grower`): level-order growth over a
re-iterable ``(binned, grad, hess)`` chunk stream, with offset-bincount
histograms, histogram subtraction and a vectorized split search
(docs/performance.md).  In-memory data is its one-chunk case, and every
chunk geometry grows, bit for bit, the tree a plain per-node reference
grower (``tests/ml/_tree_oracles.py``) grows on the same chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.ml.preprocessing import LabelEncoder

MAX_BINS = 256

#: A grown tree's node arrays (see :class:`HistogramTree`).
NODE_ARRAYS = ("feature", "threshold_bin", "left", "right", "n_samples",
               "gain", "value")


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
                  n_node: int, lam: float, msl: int,
                  unit: bool = False) -> np.ndarray:
    """Scores for every (feature, bin) candidate of a node's histogram.

    One cumulative-sum pass over the histogram planes, then the split
    objective evaluated on the whole ``(n_features, B-1)`` grid at once;
    invalid candidates (min_samples_leaf) are -inf.  On a direct-built
    histogram every cell of the result is bit-identical to the
    reference grower's per-feature scores.  ``unit``: the hess planes
    equal the count plane, whose running sum is then reused.
    """
    B, k = hist.shape[1], (hist.shape[2] - 1) // 2
    cut = hist[:, : B - 1]
    NL = np.cumsum(cut[:, :, 2 * k], axis=1)
    NR = n_node - NL
    valid = (NL >= msl) & (NR >= msl)
    if k == 1:  # one output: the sums over outputs are the terms
        GL = np.cumsum(cut[:, :, 0], axis=1)
        HL = NL if unit else np.cumsum(cut[:, :, 1], axis=1)
        GR, HR = G[0] - GL, H[0] - HL
        score = GL * GL / (HL + lam) + GR * GR / (HR + lam)
    else:
        GL = np.cumsum(cut[:, :, :k], axis=1)
        HL = (NL[:, :, None] if unit
              else np.cumsum(cut[:, :, k:2 * k], axis=1))
        GR, HR = G - GL, H - HL
        score = ((GL * GL / (HL + lam)).sum(axis=2)
                 + (GR * GR / (HR + lam)).sum(axis=2))
    score[~valid] = -np.inf
    return score


def _best_direct_split(score: np.ndarray, base: float):
    """Winning (feature-position, bin, gain) on a direct-built
    histogram's scores, or None: per-feature bin by raw-score argmax,
    then features compared on ``gain = score - base`` with first-wins
    ties -- gain space, since scores one ulp apart can round to equal
    gains."""
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


def _outputs(a) -> np.ndarray:
    """``(n,)`` or ``(n, k)`` floats as a C-contiguous ``(n, k)`` array."""
    return np.ascontiguousarray(np.atleast_2d(np.asarray(a, dtype=float).T).T)


class _Open:
    """A node of the level being grown: its rows, sums and histogram."""

    __slots__ = ("nid", "rows", "m", "need", "build", "derived", "feats",
                 "G", "H", "hist", "base", "band", "split")

    def __init__(self, nid: int, need: bool = False):
        self.nid = nid
        #: Per chunk, ascending int32 row indices (None: the root's all).
        self.rows: list | None = None if nid == 0 else []
        self.m = 0
        self.need = need  # splittable: below the depth limit, >= 2 msl rows
        self.build = need  # histogram built from rows in the level's pass
        self.derived = False  # histogram is parent minus smaller sibling
        self.feats = None  # drawn max_features subset (None: all)
        self.G = self.H = self.hist = self.band = self.split = None
        self.base = 0.0


class _Grower:
    """The tree grower: level-order growth over a chunk stream.

    ``chunks`` is a zero-arg callable returning a fresh iterator over
    the same ``(binned, grad, hess)`` chunks on every call
    (``hess=None``: unit hessians); in-memory data is its one-chunk
    case.  Each level reads the stream once (pass A: partition the
    parents' rows, gather sums and histograms) and, when a derived
    histogram needs exact re-scoring, once more (pass B).  A node keeps,
    per chunk, its ascending int32 row indices -- ~4 bytes per row, never
    the gathered matrix -- and is finished as soon as its last chunk is
    read, so only histograms a subtraction still needs outlive it.

    Every float that lands in the tree follows the arithmetic the
    reference grower (``tests/ml/_tree_oracles.py``) spells out, at any
    chunk geometry: node G/H are ``grad[rows].sum(axis=0)`` per chunk and
    histograms offset bincounts per chunk (each cell summing its rows in
    ascending order), both added in chunk order; ``max_features`` subsets
    are drawn per splittable node in level order.  Split search scores
    every (feature, bin) candidate at once (:func:`_split_scores`,
    :func:`_best_direct_split`).  When a split's larger child will split
    again and holds >= ``SUBTRACT_MIN_ROWS`` rows, only the smaller
    child's histogram is built and the larger is ``parent - sibling``,
    made in the parent's buffer.  That carries ulp-level noise, so its
    scores only nominate a near-tie band (within ``BAND_REL`` of the
    max, orders of magnitude wider than the noise); pass B re-scores
    every band feature from a direct single-feature histogram, and the
    winner and its stored gain come from those.  Nodes are renumbered to
    pre-order at the end and ``feature_gain_`` accumulated in pre-order.
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

    _CHANGED = ("chunk stream changed shape between passes; "
                "fit_binned_chunks needs a stable re-iterable stream")

    def __init__(self, tree: "HistogramTree", chunks, rng, n_bins=None):
        self.tree = tree
        self.chunks = chunks
        self.rng = rng
        p = tree.params
        self.limit = p.depth_limit
        self.lam = max(p.reg_lambda, 1e-12)
        self.msl = p.min_samples_leaf
        #: Uniform per-feature bin stride: bins past a feature's range
        #: are empty, so never valid; >= 2 keeps candidate grids non-empty.
        self.B = (max(int(np.max(n_bins)), 2)
                  if n_bins is not None and len(np.asarray(n_bins))
                  else MAX_BINS)
        self.lens: list[int] | None = None  # rows per chunk, from pass 1
        self.unit = True  # every chunk's hessians are 1: hess plane = count
        self.nodes = [_Node()]

    def _setup(self, d: int, k: int) -> None:
        self.d, self.k = d, k
        self.k_feat = self.tree._n_split_features(d)
        self.full = self.k_feat == d
        self._offsets = np.arange(d, dtype=np.intp) * self.B
        # Scratch reused by every histogram build (flat codes and
        # repeated per-output weights), grown to the largest node chunk.
        self._fbuf = np.empty(0, dtype=np.intp)
        self._wbuf = np.empty(0)

    # -- the stream ---------------------------------------------------------- #

    def _stream(self):
        """One pass: ``(chunk index, binned, grad, hess)``, shapes checked."""
        first = self.lens is None
        if first:
            self.lens = []
        seen = 0
        for ci, (binned, grad, hess) in enumerate(self.chunks()):
            binned = np.asarray(binned)
            grad = _outputs(grad)
            hess = None if hess is None else _outputs(hess)
            m = len(binned)
            if len(grad) != m or (hess is not None
                                  and hess.shape != grad.shape):
                raise ValueError("grad/hess/binned shape mismatch")
            if first:
                if ci == 0:
                    self._setup(binned.shape[1], grad.shape[1])
                self.lens.append(m)
                self.unit = self.unit and hess is None
            elif ci >= len(self.lens) or m != self.lens[ci]:
                raise ValueError(self._CHANGED)
            seen = ci + 1
            yield ci, binned, grad, hess
        if first and not seen:
            raise ValueError("empty chunk stream")
        if seen != len(self.lens):
            raise ValueError(self._CHANGED)
        obs.inc("tree.stream_passes_total")

    def _gather(self, binned, grad, hess, r, feats, codes: bool):
        """Rows ``r`` of one chunk (None: every row) as ``(codes, grad,
        hess)``; codes, over ``feats``, only if asked."""
        if r is None:
            c = binned if feats is None else binned[:, feats]
            return c if codes else None, grad, hess
        # np.take: the same rows as fancy indexing, ~3x faster.
        c = np.take(binned, r, axis=0) if codes else None
        if codes and feats is not None:
            c = c[:, feats]
        return (c, np.take(grad, r, axis=0),
                None if hess is None else np.take(hess, r, axis=0))

    def _hist(self, codes, g, h) -> np.ndarray:
        """All-feature histogram of one node chunk: ``(nf, B, 2k+1)``.

        Planes ``[..., :k]`` hold grad sums, ``[..., k:2k]`` hess sums,
        ``[..., 2k]`` counts (exact integers in float64, so subtraction
        never loses a row).  Each cell sums its rows in ascending order.
        """
        m, nf = codes.shape
        k, B = self.k, self.B
        size = m * nf
        if self._fbuf.size < size:
            self._fbuf = np.empty(size, dtype=np.intp)
            self._wbuf = np.empty(size)
        flat = self._fbuf[:size].reshape(m, nf)
        np.add(codes, self._offsets[:nf], out=flat, casting="unsafe")
        fr, w = self._fbuf[:size], self._wbuf[:size]
        hist = np.empty((nf, B, 2 * k + 1))
        cnt = np.bincount(fr, minlength=nf * B).reshape(nf, B)
        hist[:, :, 2 * k] = cnt
        for j, src in enumerate([g] if h is None else [g, h]):
            for i in range(k):
                w.reshape(m, nf)[:] = src[:, i, None]
                hist[:, :, j * k + i] = np.bincount(
                    fr, weights=w, minlength=nf * B).reshape(nf, B)
        if h is None:
            hist[:, :, k:2 * k] = cnt[:, :, None]
        obs.inc("tree.hist_built_total")
        return hist

    # -- one level ----------------------------------------------------------- #

    def _add(self, o: _Open, ci: int, binned, grad, hess) -> None:
        """Add chunk ``ci``'s share of ``o``'s sums and histogram."""
        r = None if o.rows is None else o.rows[ci]
        if (len(binned) if r is None else len(r)) == 0:
            return
        codes, g, h = self._gather(binned, grad, hess, r, o.feats, o.build)
        G = g.sum(axis=0)
        # Unit hessians sum to the row count, exactly.
        H = float(len(g)) if h is None else h.sum(axis=0)
        o.m += len(g)
        o.G = G if o.G is None else o.G + G
        o.H = H if o.H is None else o.H + H
        if o.build:
            hist = self._hist(codes, g, h)
            if o.hist is None:
                o.hist = hist
            else:
                o.hist += hist

    def _partition(self, par: _Open, kids, ci: int, binned) -> None:
        """Send ``par``'s rows of chunk ``ci`` to its two children."""
        f, b = par.split[:2]
        left, right = kids
        r = None if par.rows is None else par.rows[ci]
        if r is None:
            goes = binned[:, f] <= b
            left.rows.append(np.flatnonzero(goes).astype(np.int32))
            right.rows.append(np.flatnonzero(~goes).astype(np.int32))
        else:
            goes = binned[r, f] <= b
            left.rows.append(r[goes])
            right.rows.append(r[~goes])
            par.rows[ci] = None  # read once: free as we go

    def _close(self, par: _Open | None, kids, depth: int, pending) -> None:
        """After a family's last chunk: derive, then finish each child."""
        if par is not None:
            par.rows = None
            small, big = kids if kids[1].derived else kids[::-1]
            if big.derived:
                big.hist, par.hist = par.hist, None
                if small.hist is not None:
                    big.hist -= small.hist
                obs.inc("tree.hist_subtracted_total")
                if not small.need:
                    small.hist = None
        for o in kids:
            self._finish(o, depth, pending)

    def _finish(self, o: _Open, depth: int, pending: list) -> None:
        """Leaf value; then select a split, or queue exact re-scoring."""
        G = np.zeros(self.k) if o.G is None else o.G
        H = o.H if isinstance(o.H, np.ndarray) else np.full(self.k, o.H or 0.0)
        node = self.nodes[o.nid]
        node.value, node.n_samples = self.tree._leaf_value(G, H), o.m
        if o.nid == 0:  # the root's size is known only now
            o.need = depth < self.limit and o.m >= 2 * self.msl
            if o.need and not self.full:
                o.feats = self.rng.choice(self.d, size=self.k_feat,
                                          replace=False)
                o.hist = o.hist[o.feats]
        if not o.need:
            o.hist = o.rows = None
            return
        o.G, o.H = G, H
        if o.hist is None:  # no rows at all (min_samples_leaf=0)
            nf = self.d if o.feats is None else len(o.feats)
            o.hist = np.zeros((nf, self.B, 2 * self.k + 1))
        o.base = float(np.sum(G * G / (H + self.lam)))
        score = _split_scores(o.hist, G, H, o.m, self.lam, self.msl,
                              self.unit)
        if not o.derived:
            self._decide(o, _best_direct_split(score, o.base))
            return
        smax = float(score.max()) if score.size else -np.inf
        if not np.isfinite(smax):
            self._decide(o, None)
            return
        delta = self.BAND_REL * (abs(smax) + 1.0)
        o.band = np.flatnonzero((score >= smax - delta).any(axis=1))
        pending.append(o)

    def _rescore(self, pending: list[_Open]) -> None:
        """Pass B: exact single-feature scores for every derived node's
        near-tie band, then the same first-wins scan in gain space."""
        parts = [[None] * len(o.band) for o in pending]
        for ci, binned, grad, hess in self._stream():
            for o, acc in zip(pending, parts):
                r = None if o.rows is None else o.rows[ci]
                if (len(binned) if r is None else len(r)) == 0:
                    continue
                _, g, h = self._gather(binned, grad, hess, r, None, False)
                for i, f in enumerate(o.band):
                    col = binned[:, f] if r is None else binned[r, f]
                    hist = self._hist(col[:, None], g, h)[0]
                    if acc[i] is None:
                        acc[i] = hist
                    else:
                        acc[i] += hist
        for o, acc in zip(pending, parts):
            best, best_gain = None, -np.inf
            for f, hist in zip(o.band, acc):  # ascending feature order
                nb = int(np.flatnonzero(hist[:, 2 * self.k])[-1]) + 1
                exact = _split_scores(hist[None, :nb], o.G, o.H, o.m,
                                      self.lam, self.msl, self.unit)[0]
                if exact.size == 0:
                    continue
                b = int(np.argmax(exact))
                gain = float(exact[b]) - o.base
                if np.isfinite(gain) and gain > best_gain:
                    best, best_gain = (int(f), b), gain
            self._decide(o, None if best is None else (*best, best_gain))

    def _decide(self, o: _Open, sel) -> None:
        """Record ``o``'s split (or leaf) and plan its children: sizes
        from the count plane, and whether the larger one is derived --
        the only case ``o`` keeps its histogram."""
        p = self.tree.params
        if sel is not None and not (sel[2] <= 0.0 or sel[2] <= p.min_gain):
            f_pos, b, gain = sel
            f = f_pos if o.feats is None else int(o.feats[f_pos])
            node = self.nodes[o.nid]
            node.feature, node.threshold_bin, node.gain = f, int(b), gain
            nl = int(o.hist[f_pos, :b + 1, 2 * self.k].sum())
            nr = o.m - nl
            big = nr if nl <= nr else nl  # ties: the left child is small
            o.split = (f, int(b), nl, nr)
            if (self.full and self._needs(big)
                    and big >= self.SUBTRACT_MIN_ROWS):
                return  # keep the histogram: parent - sibling
        else:
            o.rows = None
        o.hist = None

    def _needs(self, m: int) -> bool:
        return self._cdepth < self.limit and m >= 2 * self.msl

    def _next_level(self, level: list[_Open]):
        """The split nodes' children, in level order, as families."""
        fams = []
        for o in level:
            if o.split is None:
                continue
            nl, nr = o.split[2:]
            kids = [_Open(len(self.nodes), self._needs(nl)),
                    _Open(len(self.nodes) + 1, self._needs(nr))]
            node = self.nodes[o.nid]
            node.left, node.right = kids[0].nid, kids[1].nid
            self.nodes += [_Node(), _Node()]
            if o.hist is not None:  # subtraction (see _decide)
                small, big = kids if nl <= nr else kids[::-1]
                small.build, big.build, big.derived = True, False, True
            if not self.full:
                for c in kids:
                    if c.need:
                        c.feats = self.rng.choice(self.d, size=self.k_feat,
                                                  replace=False)
            fams.append((o, kids))
        return fams

    def _level(self, fams, depth: int) -> list[_Open]:
        """Pass A over one level; returns the nodes awaiting pass B."""
        pending: list[_Open] = []
        last = None if self.lens is None else len(self.lens) - 1
        for ci, binned, grad, hess in self._stream():
            for par, kids in fams:
                if par is not None:
                    self._partition(par, kids, ci, binned)
                for o in kids:
                    self._add(o, ci, binned, grad, hess)
                if ci == last:
                    self._close(par, kids, depth, pending)
        if last is None:  # the root's pass: the chunk count was unknown
            self._close(None, fams[0][1], depth, pending)
        return pending

    def run(self) -> None:
        root = _Open(0)
        # The root's size is unknown until its pass: build, judge after.
        root.build = self.limit > 0
        fams, depth = [(None, [root])], 0
        while fams:
            self._cdepth = depth + 1  # the children's depth, for _needs
            pending = self._level(fams, depth)
            if pending:
                self._rescore(pending)
            fams = self._next_level([o for _, kids in fams for o in kids])
            depth += 1
        self.tree.n_outputs = self.k
        self.tree._set_level_order(self.nodes, self.d)


class HistogramTree:
    """One grown tree over pre-binned features, grown by :class:`_Grower`.

    A grown tree is a set of flat node arrays indexed by node id (root
    0, pre-order): ``feature`` (-1 at leaves), ``threshold_bin``,
    ``left``, ``right``, ``n_samples``, ``gain`` and ``value`` of shape
    ``(n_nodes, k)``, frozen from :class:`_Node` scratch once growth (or
    deserialization) finishes.  Frozen means read-only: an ensemble
    stacks these arrays once, so a write in place would go unseen, and
    it raises instead.  Prediction is the one-tree case of the ensemble
    traversal (:func:`_descend`).
    """

    def __init__(self, params: TreeParams):
        self.params = params
        self.n_outputs = 1
        #: Total split gain attributed to each feature (importance raw score).
        self.feature_gain_: np.ndarray | None = None
        self._set_nodes([])

    def _set_nodes(self, nodes: list[_Node]) -> None:
        """Freeze grown (or decoded) scratch nodes into read-only node
        arrays."""
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
        for name in NODE_ARRAYS:
            getattr(self, name).flags.writeable = False

    def _set_level_order(self, nodes: list[_Node], n_features: int) -> None:
        """Freeze level-order grown nodes in pre-order (parent, full left
        subtree, right subtree), the layout of serialized trees, node-id
        goldens and ``apply`` leaf ids; ``feature_gain_`` sums in that
        order."""
        order, stack = [], [0]
        while stack:
            i = stack.pop()
            order.append(i)
            if not nodes[i].is_leaf:
                stack += (nodes[i].right, nodes[i].left)
        remap = np.empty(len(nodes), dtype=np.int64)
        remap[order] = np.arange(len(order))
        nodes = [nodes[i] for i in order]
        self.feature_gain_ = np.zeros(n_features)
        for node in nodes:
            if not node.is_leaf:
                node.left = int(remap[node.left])
                node.right = int(remap[node.right])
                self.feature_gain_[node.feature] += node.gain
        self._set_nodes(nodes)

    # -- growing ------------------------------------------------------------ #

    def fit(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray | None,
        rng: np.random.Generator | None = None,
        n_bins: np.ndarray | None = None,
    ) -> "HistogramTree":
        """Grow on uint8-binned X; grad/hess are (n,) or (n, k).

        The one-chunk case of :meth:`fit_binned_chunks`.  ``n_bins``
        (per-feature bin counts, e.g. :attr:`FeatureBinner.n_bins_`)
        sizes the histogram grid without rescanning codes; when omitted
        the grower takes one max over ``binned``.  Codes must stay below
        the advertised bin counts.  ``hess=None`` means unit hessians.
        """
        binned = np.asarray(binned)
        if n_bins is None:
            n_bins = [int(binned.max()) + 1 if binned.size else 1]
        if hess is not None and (np.asarray(hess) == 1.0).all():
            hess = None  # the count plane is then the hessian plane
        return self.fit_binned_chunks(lambda: iter([(binned, grad, hess)]),
                                      rng=rng, n_bins=n_bins)

    def fit_binned_chunks(
        self,
        chunks,
        rng: np.random.Generator | None = None,
        n_bins: np.ndarray | None = None,
    ) -> "HistogramTree":
        """Grow from a re-iterable ``(binned, grad, hess)`` stream.

        ``chunks`` is a zero-arg callable returning a fresh iterator
        over the *same* chunks on every call; ``hess=None`` in a triple
        means unit hessians.  The stream is read once or twice per tree
        level, never gathered (see :class:`_Grower`), and any chunk
        geometry grows the tree the reference grower grows on the same
        chunks, bit for bit.  Without ``n_bins`` the grid is
        ``MAX_BINS`` wide.
        """
        _Grower(self, chunks, rng or np.random.default_rng(), n_bins).run()
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
    same way is indexed by the leaf ids it returns.  Built once per
    tree list, by :meth:`_Ensemble._set_trees`; the trees' node arrays
    are read-only, so the stack cannot go stale under them.
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


def _one_chunk(binned: np.ndarray, y: np.ndarray):
    """In-memory ``(binned, y)`` as the one-chunk stream the stream fits read."""
    if len(binned) != len(y):
        raise ValueError("X/y length mismatch")
    return lambda: iter([(binned, y)])


class _Ensemble:
    """The fitted core of a tree ensemble (GBDT, forests, one tree).

    It owns the binner, the feature count, the fit telemetry and the
    trees.  The tree list is only ever set through :meth:`_set_trees`
    (by every fit, warm start and load), which stacks the trees' node
    arrays (:func:`_stack`) and the family's per-node output table
    (:meth:`_node_table`) once, so no prediction concatenates anything.
    A family supplies ``_score`` (binned rows -> raw score) and may
    override ``_decode`` (raw score -> prediction).
    """

    def __init__(self):
        self._binner: FeatureBinner | None = None
        self.n_features_: int | None = None
        #: Training provenance (wall clock, sizes, loss); travels with
        #: the serialized model (see repro.ml.serialize).
        self.fit_telemetry_: dict | None = None
        self._set_trees([])

    def _set_trees(self, trees) -> None:
        """Install ``trees``, then stack their node arrays and outputs."""
        self._trees = list(trees)
        self._stacked = _stack(self._trees) if self._trees else None
        self._table = self._node_table() if self._trees else None

    def _node_table(self) -> np.ndarray:
        """Every tree's per-node output, concatenated in tree order."""
        return np.concatenate([t.value for t in self._trees])

    def _sums(self, binned: np.ndarray, start: np.ndarray,
              staged: bool = False) -> np.ndarray:
        """``start`` plus every tree's table entry at its leaf, per row.

        ``start`` is ``(n,)`` or ``(n, k)``, as the table is ``(N,)`` or
        ``(N, k)``.
        One :func:`_descend` call per ``_ROW_BLOCK`` rows finds every
        tree's leaf in the stacked arrays; ``np.add.accumulate`` then
        adds the outputs strictly in tree order, so the sums are
        bit-identical to ``out = start; for t: out += table_t[leaf_t]``.
        Returns the final sums (shaped like ``start``), or with
        ``staged`` every partial sum, shape ``(T + 1, *start.shape)``
        with ``start`` first.
        """
        out = (np.empty((len(self._trees) + 1,) + start.shape) if staged
               else np.empty_like(start))
        for s in range(0, len(binned), _ROW_BLOCK):
            e = s + _ROW_BLOCK
            leaves = _descend(binned[s:e], *self._stacked)
            steps = np.concatenate([start[s:e, None], self._table[leaves]],
                                   axis=1)
            np.add.accumulate(steps, axis=1, out=steps)
            if staged:
                out[:, s:e] = np.moveaxis(steps, 1, 0)
            else:
                out[s:e] = steps[:, -1]
        return out

    def _learn_targets(self, chunks) -> None:
        """Fix the target space from the stream's raw targets (cold fits)."""

    def _check_fitted(self) -> None:
        if self._binner is None:
            raise RuntimeError("model is not fitted")

    def _bin(self, X) -> np.ndarray:
        self._check_fitted()
        return self._binner.transform(np.asarray(X, dtype=float))

    @property
    def feature_importances_(self) -> np.ndarray:
        """Split-gain importance normalized to sum to 1 (Fig. 22)."""
        self._check_fitted()
        total = np.zeros(self.n_features_)
        for tree in self._trees:
            total += tree.feature_gain_
        s = total.sum()
        return total / s if s > 0 else total

    def _decode(self, score: np.ndarray) -> np.ndarray:
        """Raw scores -> predictions (a regressor predicts the score)."""
        return score

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """Predictions for rows already coded by the model's own binner
        (a store fit's codes store, say): :meth:`predict` without the
        binning."""
        self._check_fitted()
        return self._decode(self._score(binned))

    def predict(self, X) -> np.ndarray:
        return self.predict_binned(self._bin(X))


class _Classifier:
    """The classifier side of an ensemble: labels through ``encoder_``,
    probabilities through the family's ``_proba`` of the raw score."""

    def _learn_targets(self, chunks) -> None:
        # Classes are the sorted union of labels across the chunks --
        # for one chunk, exactly what LabelEncoder.fit finds.
        self.encoder_ = LabelEncoder().fit_stream(y for _, y in chunks())

    @property
    def classes_(self) -> np.ndarray:
        return self.encoder_.classes_

    def _decode(self, score: np.ndarray) -> np.ndarray:
        return self.encoder_.inverse_transform(np.argmax(score, axis=1))

    def predict_proba_binned(self, binned: np.ndarray) -> np.ndarray:
        """:meth:`predict_proba` for rows already coded by the model's
        binner."""
        self._check_fitted()
        return self._proba(self._score(binned))

    def predict_proba(self, X) -> np.ndarray:
        return self.predict_proba_binned(self._bin(X))


class DecisionTreeRegressor(_Ensemble):
    """Standalone CART-style regressor: the one-tree ensemble."""

    def __init__(self, max_depth: int = 6, min_samples_leaf: int = 5,
                 max_bins: int = MAX_BINS):
        self.params = TreeParams(max_depth=max_depth,
                                 min_samples_leaf=min_samples_leaf,
                                 reg_lambda=0.0)
        self.max_bins = max_bins
        super().__init__()

    def fit(self, X, y, rng: np.random.Generator | None = None):
        X = np.asarray(X, dtype=float)
        binner = FeatureBinner(self.max_bins)
        binned = binner.fit_transform(X)
        tree = HistogramTree(self.params).fit(
            binned, np.asarray(y, dtype=float), None, rng=rng,
            n_bins=binner.n_bins_)
        self._binner, self.n_features_ = binner, X.shape[1]
        self._set_trees([tree])
        return self

    def _score(self, binned: np.ndarray) -> np.ndarray:
        return self._trees[0].predict_binned(binned)

    def _decode(self, score: np.ndarray) -> np.ndarray:
        return score[:, 0] if score.shape[1] == 1 else score
