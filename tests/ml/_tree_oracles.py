"""Reference tree implementations: the ground truth of the tree tests.

``repro.ml.tree`` grows trees with one level-order grower and predicts
with one vectorized traversal.  The plain versions they must match bit
for bit live here, outside the package:

* :func:`grow_reference` -- per-node, per-feature bincounts over a list
  of ``(binned, grad, hess)`` chunks, no histogram subtraction, no
  scratch, no vectorized split search; :func:`fit_reference` is its
  one-chunk case and :func:`reference_fit_binned_chunks` a drop-in for
  ``HistogramTree.fit_binned_chunks`` (monkeypatch it in to refit whole
  models with the reference grower);
* :func:`apply_slow` / :func:`predict_binned_slow` -- the node-group loop
  traversal that preceded the vectorized one.

The growth-equivalence tests, the vectorized-equivalence tests and
``benchmarks/bench_gbdt_fit.py`` import them from here.
"""

from __future__ import annotations

import functools
from collections import deque

import numpy as np

from repro.ml.tree import HistogramTree, TreeParams, _Node, _outputs


def grow_reference(params: TreeParams, chunks, rng) -> HistogramTree:
    """A tree grown by the reference grower over a list of chunks.

    Nodes grow in FIFO (level) order.  A node's G/H are
    ``grad[rows].sum(axis=0)`` per chunk, and each feature's histogram a
    bincount per chunk, added in chunk order; ``max_features`` subsets
    are drawn in FIFO order.  Nodes are then renumbered to pre-order and
    ``feature_gain_`` accumulated in pre-order.
    """
    tree = HistogramTree(params)
    lam = max(params.reg_lambda, 1e-12)
    chunks = [(np.asarray(b), _outputs(g),
               np.ones_like(_outputs(g)) if h is None else _outputs(h))
              for b, g, h in chunks]
    n_features = chunks[0][0].shape[1]
    tree.n_outputs = k = chunks[0][1].shape[1]
    k_feat = tree._n_split_features(n_features)

    def chunk_sum(parts, zeros=None):
        return functools.reduce(np.add, parts) if parts else zeros

    nodes = [_Node()]
    queue = deque([(0, [np.arange(len(b)) for b, _, _ in chunks], 0)])
    while queue:
        nid, idx, depth = queue.popleft()
        parts = [(b[i], g[i], h[i])
                 for (b, g, h), i in zip(chunks, idx) if len(i)]
        G = chunk_sum([g.sum(axis=0) for _, g, _ in parts], np.zeros(k))
        H = chunk_sum([h.sum(axis=0) for _, _, h in parts], np.zeros(k))
        m = sum(len(i) for i in idx)
        node = nodes[nid]
        node.value, node.n_samples = tree._leaf_value(G, H), m
        if depth >= params.depth_limit or m < 2 * params.min_samples_leaf:
            continue
        features = (np.arange(n_features) if k_feat == n_features
                    else rng.choice(n_features, size=k_feat, replace=False))
        base_score = float(np.sum(G * G / (H + lam)))
        best_gain, best_feature, best_bin = 0.0, -1, -1
        for f in features:
            n_bins = max((int(c[:, f].max()) + 1 for c, _, _ in parts),
                         default=1)
            if n_bins < 2:
                continue
            # Per-bin gradient/hessian sums for every output.
            hist_g = np.empty((n_bins, k))
            hist_h = np.empty((n_bins, k))
            hist_n = chunk_sum([np.bincount(c[:, f], minlength=n_bins)
                                for c, _, _ in parts])
            for j in range(k):
                hist_g[:, j] = chunk_sum(
                    [np.bincount(c[:, f], weights=g[:, j], minlength=n_bins)
                     for c, g, _ in parts])
                hist_h[:, j] = chunk_sum(
                    [np.bincount(c[:, f], weights=h[:, j], minlength=n_bins)
                     for c, _, h in parts])
            GL = np.cumsum(hist_g, axis=0)[:-1]
            HL = np.cumsum(hist_h, axis=0)[:-1]
            NL = np.cumsum(hist_n)[:-1]
            GR, HR, NR = G - GL, H - HL, m - NL
            valid = ((NL >= params.min_samples_leaf)
                     & (NR >= params.min_samples_leaf))
            if not valid.any():
                continue
            score = (np.sum(GL * GL / (HL + lam), axis=1)
                     + np.sum(GR * GR / (HR + lam), axis=1))
            score[~valid] = -np.inf
            b = int(np.argmax(score))
            gain = float(score[b]) - base_score
            if gain > best_gain:
                best_gain, best_feature, best_bin = gain, int(f), b

        if best_feature < 0 or best_gain <= params.min_gain:
            continue
        node.feature, node.threshold_bin = best_feature, best_bin
        node.gain = best_gain
        goes = [b[i, best_feature] <= best_bin
                for (b, _, _), i in zip(chunks, idx)]
        node.left, node.right = len(nodes), len(nodes) + 1
        nodes += [_Node(), _Node()]
        queue.append((node.left, [i[g] for i, g in zip(idx, goes)],
                      depth + 1))
        queue.append((node.right, [i[~g] for i, g in zip(idx, goes)],
                      depth + 1))
    tree._set_level_order(nodes, n_features)
    return tree


def fit_reference(params: TreeParams, binned, grad, hess,
                  rng=None) -> HistogramTree:
    """The reference grower on in-memory data (its one-chunk case), which
    ``HistogramTree.fit`` must match bit for bit."""
    return grow_reference(params, [(binned, grad, hess)],
                          rng or np.random.default_rng())


def reference_fit_binned_chunks(tree: HistogramTree, chunks, rng=None,
                                n_bins=None) -> HistogramTree:
    """Drop-in for ``HistogramTree.fit_binned_chunks``: the reference
    grower over the stream's chunks (it rescans codes, so ``n_bins`` is
    ignored).  Returns a new tree; every model reads the returned one."""
    del n_bins
    return grow_reference(tree.params, list(chunks()),
                          rng or np.random.default_rng())


def apply_slow(tree: HistogramTree, binned) -> np.ndarray:
    """Leaf node-id per row by the node-group loop: the rows at each node
    are split between its children until every row sits at a leaf."""
    n = len(binned)
    node_ids = np.zeros(n, dtype=int)
    active = np.arange(n)
    while len(active):
        nid = node_ids[active]
        still = []
        for u in np.unique(nid):
            members = active[nid == u]
            f = int(tree.feature[u])
            if f < 0:
                continue
            goes_left = binned[members, f] <= tree.threshold_bin[u]
            node_ids[members[goes_left]] = tree.left[u]
            node_ids[members[~goes_left]] = tree.right[u]
            still.append(members)
        active = np.concatenate(still) if still else np.empty(0, dtype=int)
    return node_ids


def predict_binned_slow(tree: HistogramTree, binned) -> np.ndarray:
    """Leaf values per row, shape ``(n, k)``, through :func:`apply_slow`."""
    return tree.value[apply_slow(tree, binned)]
