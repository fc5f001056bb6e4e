"""Seeded-random property tests for the ML primitives (no new deps).

Hand-rolled property testing: a couple dozen randomized cases per
property, each fully determined by its loop-index seed, asserting
invariants rather than golden values -- ``KDTree`` must agree with brute
force on any point set, and ``StandardScaler`` must round-trip any
finite matrix.
"""

import numpy as np
import pytest

from repro.ml.preprocessing import StandardScaler

from _linear_kdtree import KDTree


def _brute_force_knn(points, q, k):
    d = np.sqrt(((points - q) ** 2).sum(axis=1))
    idx = np.argsort(d, kind="stable")[:k]
    return d[idx], idx


class TestKDTreeMatchesBruteForce:
    @pytest.mark.parametrize("case", range(20))
    def test_query_random_point_sets(self, case):
        rng = np.random.default_rng(1000 + case)
        n = int(rng.integers(1, 200))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, 12))
        leaf = int(rng.integers(1, 32))
        points = rng.normal(scale=rng.uniform(0.1, 50.0), size=(n, d))
        tree = KDTree(points, leaf_size=leaf)
        for q in rng.normal(scale=10.0, size=(5, d)):
            dists, idx = tree.query(q, k=k)
            bf_d, _ = _brute_force_knn(points, q, k)
            assert len(dists) == min(k, n)
            # Distances must match brute force exactly (ties may swap
            # indices, so compare the distance multiset, ascending).
            np.testing.assert_allclose(np.sort(dists), np.sort(bf_d),
                                       rtol=0, atol=1e-9)
            # Returned indices must actually realize those distances.
            realized = np.sqrt(((points[idx] - q) ** 2).sum(axis=1))
            np.testing.assert_allclose(dists, realized, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("case", range(6))
    def test_duplicate_and_grid_points(self, case):
        """Degenerate geometries: duplicates, collinear, lattice points."""
        rng = np.random.default_rng(2000 + case)
        base = rng.integers(0, 4, size=(60, 2)).astype(float)  # many dupes
        tree = KDTree(base, leaf_size=int(rng.integers(1, 8)))
        q = rng.uniform(-1, 5, size=2)
        k = int(rng.integers(1, 20))
        dists, _ = tree.query(q, k=k)
        bf_d, _ = _brute_force_knn(base, q, k)
        np.testing.assert_allclose(np.sort(dists), np.sort(bf_d), atol=1e-9)

    def test_query_many_matches_single_queries(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(80, 3))
        tree = KDTree(points)
        Q = rng.normal(size=(7, 3))
        dists, idx = tree.query_many(Q, k=4)
        for i, q in enumerate(Q):
            d_i, idx_i = tree.query(q, k=4)
            np.testing.assert_allclose(dists[i], d_i, atol=1e-12)
            assert np.array_equal(idx[i], idx_i)

    def test_k_larger_than_n_returns_all(self):
        points = np.random.default_rng(0).normal(size=(5, 2))
        dists, idx = KDTree(points).query(np.zeros(2), k=50)
        assert len(dists) == 5
        assert sorted(idx.tolist()) == list(range(5))


class TestScalerRoundTrip:
    @pytest.mark.parametrize("case", range(20))
    def test_inverse_transform_identity(self, case):
        rng = np.random.default_rng(4000 + case)
        n = int(rng.integers(2, 300))
        d = int(rng.integers(1, 8))
        loc = rng.uniform(-1e3, 1e3, size=d)
        scale = rng.uniform(1e-3, 1e3, size=d)
        X = rng.normal(loc=loc, scale=scale, size=(n, d))
        scaler = StandardScaler()
        Z = scaler.fit_transform(X)
        np.testing.assert_allclose(scaler.inverse_transform(Z), X,
                                   rtol=1e-9, atol=1e-6)

    @pytest.mark.parametrize("case", range(10))
    def test_transform_standardizes(self, case):
        rng = np.random.default_rng(5000 + case)
        X = rng.normal(loc=rng.uniform(-10, 10),
                       scale=rng.uniform(0.1, 10),
                       size=(int(rng.integers(10, 200)), 3))
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_columns_center_without_blowup(self):
        X = np.column_stack([np.full(20, 7.0),
                             np.arange(20, dtype=float)])
        scaler = StandardScaler()
        Z = scaler.fit_transform(X)
        assert np.all(np.isfinite(Z))
        np.testing.assert_allclose(Z[:, 0], 0.0)  # centered, scale 1
        np.testing.assert_allclose(scaler.inverse_transform(Z), X,
                                   atol=1e-12)
