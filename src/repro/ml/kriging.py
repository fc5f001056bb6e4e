"""Ordinary Kriging -- the geospatial-interpolation baseline [26].

Kriging predicts the value at a query location as a weighted sum of
observed values, with weights from a fitted variogram under the unbiased
constraint (weights sum to 1).  It models *spatial correlation only*, which
is exactly why the paper uses it as the canary: mmWave throughput has weak
spatial correlation, so OK performs poorly on 5G traces (Table 9, A.4).
It applies only to the L feature group (2-D coordinates).

Implementation notes: duplicate coordinates are aggregated to their mean
(Kriging needs distinct support points), the support is optionally
subsampled for tractability, a spherical variogram is fitted to the
empirical semivariogram by least squares, and the (n+1) kriging system is
factorized once and reused for every prediction.
"""

from __future__ import annotations

import numpy as np


def spherical_variogram(h: np.ndarray, nugget: float, sill: float,
                        range_: float) -> np.ndarray:
    """Classic spherical model: rises to ``sill`` at distance ``range_``."""
    h = np.asarray(h, dtype=float)
    ratio = np.clip(h / max(range_, 1e-9), 0.0, 1.0)
    gamma = nugget + (sill - nugget) * (1.5 * ratio - 0.5 * ratio**3)
    return np.where(h <= 0.0, 0.0, gamma)


def fit_spherical_variogram(
    coords: np.ndarray, values: np.ndarray, n_lags: int = 15
) -> tuple[float, float, float]:
    """Least-squares (nugget, sill, range) fit to the empirical variogram."""
    n = len(coords)
    if n < 3:
        raise ValueError("need at least 3 points to fit a variogram")
    d = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    g = 0.5 * (values[:, None] - values[None, :]) ** 2
    iu = np.triu_indices(n, k=1)
    dists, gammas = d[iu], g[iu]
    max_d = dists.max()
    if max_d <= 0:
        raise ValueError("all points are co-located")
    edges = np.linspace(0.0, max_d, n_lags + 1)
    lag_d, lag_g = [], []
    for i in range(n_lags):
        sel = (dists > edges[i]) & (dists <= edges[i + 1])
        if sel.sum() >= 3:
            lag_d.append(dists[sel].mean())
            lag_g.append(gammas[sel].mean())
    lag_d, lag_g = np.asarray(lag_d), np.asarray(lag_g)
    if len(lag_d) < 3:
        sill = float(values.var()) or 1.0
        return 0.1 * sill, sill, max_d / 2.0

    best, best_err = None, np.inf
    sill0 = max(lag_g.max(), 1e-9)
    for range_ in np.linspace(max_d * 0.1, max_d, 12):
        for nugget_frac in (0.0, 0.1, 0.3, 0.5):
            nugget = nugget_frac * sill0
            pred = spherical_variogram(lag_d, nugget, sill0, range_)
            err = float(((pred - lag_g) ** 2).mean())
            if err < best_err:
                best, best_err = (nugget, sill0, range_), err
    return best


class OrdinaryKriging:
    """Ordinary Kriging regressor over 2-D coordinates."""

    def __init__(self, max_points: int = 600, n_lags: int = 15,
                 random_state: int | None = 0):
        self.max_points = max_points
        self.n_lags = n_lags
        self.random_state = random_state
        self._coords: np.ndarray | None = None

    def fit(self, X, y) -> "OrdinaryKriging":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[1] != 2:
            raise ValueError(
                "Ordinary Kriging applies to 2-D coordinates only "
                "(the L feature group)"
            )
        # Aggregate duplicate coordinates to their mean value.
        uniq, inverse = np.unique(X, axis=0, return_inverse=True)
        sums = np.bincount(inverse, weights=y)
        counts = np.bincount(inverse)
        coords, values = uniq, sums / counts
        if len(coords) > self.max_points:
            rng = np.random.default_rng(self.random_state)
            keep = rng.choice(len(coords), self.max_points, replace=False)
            coords, values = coords[keep], values[keep]
        if len(coords) < 3:
            raise ValueError("need at least 3 distinct locations")

        self.nugget_, self.sill_, self.range_ = fit_spherical_variogram(
            coords, values, self.n_lags
        )
        n = len(coords)
        d = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
        K = np.empty((n + 1, n + 1))
        K[:n, :n] = spherical_variogram(d, self.nugget_, self.sill_,
                                        self.range_)
        K[:n, n] = 1.0
        K[n, :n] = 1.0
        K[n, n] = 0.0
        # Tiny jitter keeps the saddle-point system factorizable.
        K[:n, :n] += np.eye(n) * 1e-8
        from scipy import linalg  # only this baseline needs scipy

        self._lu = linalg.lu_factor(K)
        self._coords = coords
        self._values = values
        self._mean = float(values.mean())
        return self

    def predict(self, X) -> np.ndarray:
        if self._coords is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        n = len(self._coords)
        d = np.sqrt(
            ((X[:, None, :] - self._coords[None, :, :]) ** 2).sum(-1)
        )
        B = np.empty((n + 1, len(X)))
        B[:n] = spherical_variogram(d, self.nugget_, self.sill_,
                                    self.range_).T
        B[n] = 1.0
        from scipy import linalg

        weights = linalg.lu_solve(self._lu, B)[:n]
        return weights.T @ self._values
