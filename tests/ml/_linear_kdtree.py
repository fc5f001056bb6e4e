"""Ridge/logistic regression and a k-d tree, kept only for their tests.

These estimators left ``repro.ml``: the paper's model set is GDBT,
Seq2Seq, KNN (brute force), RF, Ordinary Kriging and the harmonic mean,
and nothing in the library, the benchmarks or the examples built them.
Their pinned tests (``test_linear_kdtree.py`` and the k-d tree property
class in ``test_random_properties.py``) still check them here.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.ml.gbdt import softmax
from repro.ml.preprocessing import LabelEncoder, StandardScaler, one_hot


def _impute(X: np.ndarray) -> np.ndarray:
    if not np.isnan(X).any():
        return X
    col_mean = np.nanmean(X, axis=0)
    col_mean = np.where(np.isfinite(col_mean), col_mean, 0.0)
    return np.where(np.isnan(X), col_mean[None, :], X)


class RidgeRegressor:
    """L2-regularized least squares with intercept (closed form)."""

    def __init__(self, alpha: float = 1.0):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self._scaler: StandardScaler | None = None

    def fit(self, X, y) -> "RidgeRegressor":
        X = _impute(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y):
            raise ValueError("X/y length mismatch")
        self._scaler = StandardScaler()
        Z = self._scaler.fit_transform(X)
        self._y_mean = float(y.mean())
        yc = y - self._y_mean
        d = Z.shape[1]
        A = Z.T @ Z + self.alpha * np.eye(d)
        self.coef_ = np.linalg.solve(A, Z.T @ yc)
        return self

    def predict(self, X) -> np.ndarray:
        if self._scaler is None:
            raise RuntimeError("model is not fitted")
        Z = self._scaler.transform(_impute(np.asarray(X, dtype=float)))
        return Z @ self.coef_ + self._y_mean


class LogisticRegression:
    """Multinomial logistic regression trained by full-batch Newton-free
    gradient descent with L2 regularization."""

    def __init__(self, alpha: float = 1e-3, max_iter: int = 300,
                 learning_rate: float = 0.5, tol: float = 1e-7):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.max_iter = max_iter
        self.learning_rate = learning_rate
        self.tol = tol
        self._scaler: StandardScaler | None = None

    def fit(self, X, y) -> "LogisticRegression":
        X = _impute(np.asarray(X, dtype=float))
        self.encoder_ = LabelEncoder()
        codes = self.encoder_.fit_transform(y)
        k = len(self.encoder_.classes_)
        if k < 2:
            raise ValueError("need at least two classes")
        Y = one_hot(codes, k)
        self._scaler = StandardScaler()
        Z = self._scaler.fit_transform(X)
        Z = np.column_stack([Z, np.ones(len(Z))])  # intercept column
        n, d = Z.shape
        W = np.zeros((d, k))
        prev_loss = np.inf
        for _ in range(self.max_iter):
            P = softmax(Z @ W)
            grad = Z.T @ (P - Y) / n + self.alpha * W
            W -= self.learning_rate * grad
            loss = (-np.sum(Y * np.log(np.clip(P, 1e-12, None))) / n
                    + 0.5 * self.alpha * float((W * W).sum()))
            if abs(prev_loss - loss) < self.tol:
                break
            prev_loss = loss
        self.W_ = W
        return self

    def _logits(self, X) -> np.ndarray:
        if self._scaler is None:
            raise RuntimeError("model is not fitted")
        Z = self._scaler.transform(_impute(np.asarray(X, dtype=float)))
        Z = np.column_stack([Z, np.ones(len(Z))])
        return Z @ self.W_

    def predict_proba(self, X) -> np.ndarray:
        return softmax(self._logits(X))

    def predict(self, X) -> np.ndarray:
        codes = np.argmax(self._logits(X), axis=1)
        return self.encoder_.inverse_transform(codes)

    @property
    def classes_(self) -> np.ndarray:
        return self.encoder_.classes_


class KDTree:
    """Static k-d tree over an (n, d) float matrix."""

    def __init__(self, points: np.ndarray, leaf_size: int = 16):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty 2-D array")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.points = points
        self.leaf_size = leaf_size
        # Node arrays: axis < 0 marks a leaf holding indices [start, end).
        self._axis: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._index = np.arange(len(points))
        self._build(0, len(points))

    def _new_node(self) -> int:
        for arr in (self._axis, self._threshold, self._left, self._right,
                    self._start, self._end):
            arr.append(-1)
        return len(self._axis) - 1

    def _build(self, start: int, end: int) -> int:
        node = self._new_node()
        n = end - start
        if n <= self.leaf_size:
            self._axis[node] = -1
            self._start[node] = start
            self._end[node] = end
            return node
        subset = self.points[self._index[start:end]]
        spreads = subset.max(axis=0) - subset.min(axis=0)
        axis = int(np.argmax(spreads))
        order = np.argsort(subset[:, axis], kind="stable")
        self._index[start:end] = self._index[start:end][order]
        mid = start + n // 2
        self._axis[node] = axis
        self._threshold[node] = float(
            self.points[self._index[mid], axis]
        )
        self._left[node] = self._build(start, mid)
        self._right[node] = self._build(mid, end)
        return node

    def query(self, q: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """(distances, indices) of the k nearest points to ``q``."""
        q = np.asarray(q, dtype=float)
        if q.ndim != 1 or len(q) != self.points.shape[1]:
            raise ValueError("query dimensionality mismatch")
        k = min(k, len(self.points))
        # Max-heap of (-dist2, index) for the current best k.
        best: list[tuple[float, int]] = []

        def visit(node: int) -> None:
            axis = self._axis[node]
            if axis < 0:
                for i in self._index[self._start[node]:self._end[node]]:
                    d2 = float(((self.points[i] - q) ** 2).sum())
                    if len(best) < k:
                        heapq.heappush(best, (-d2, int(i)))
                    elif d2 < -best[0][0]:
                        heapq.heapreplace(best, (-d2, int(i)))
                return
            diff = q[axis] - self._threshold[node]
            near, far = ((self._left[node], self._right[node]) if diff < 0
                         else (self._right[node], self._left[node]))
            visit(near)
            if len(best) < k or diff * diff < -best[0][0]:
                visit(far)

        visit(0)
        order = sorted(best, key=lambda t: -t[0])
        dists = np.sqrt(np.asarray([-d2 for d2, _ in order]))
        idx = np.asarray([i for _, i in order], dtype=int)
        return dists, idx

    def query_many(
        self, Q: np.ndarray, k: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`query`; returns (n_q, k) distance/index arrays."""
        Q = np.asarray(Q, dtype=float)
        n = len(Q)
        k_eff = min(k, len(self.points))
        dists = np.empty((n, k_eff))
        idx = np.empty((n, k_eff), dtype=int)
        for i in range(n):
            dists[i], idx[i] = self.query(Q[i], k_eff)
        return dists, idx
