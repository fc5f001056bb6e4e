"""Out-of-core model fitting: streaming binner, trees, GBDT, forests.

Contracts under test (docs/colstore.md):

* ``FeatureBinner.fit_stream`` is bit-identical to ``fit`` while every
  column fits the sketch capacity (the exact fast path);
* ``HistogramTree.fit_binned_chunks`` is the one tree grower: a
  single-chunk stream is ``fit`` bit for bit, and a multi-chunk stream
  grows, bit for bit, what the reference grower grows on the same
  chunks (per-chunk sums added in chunk order);
* ``fit_binned_stream`` on the GBDT/forest families reproduces the
  in-memory fit exactly for single-chunk streams, and for multi-chunk
  ones the fit the reference grower makes of the same chunks.
"""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GBDTClassifier, GBDTRegressor
from repro.ml.tree import (
    NODE_ARRAYS,
    FeatureBinner,
    HistogramTree,
    TreeParams,
)

from _tree_oracles import grow_reference, reference_fit_binned_chunks


def _data(n=600, d=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2
         + 0.2 * rng.normal(size=n))
    return X, y


def _chunks_of(arrays, sizes):
    out = []
    start = 0
    for s in sizes:
        out.append(tuple(a[start:start + s] for a in arrays))
        start += s
    assert start == len(arrays[0])
    return out


class TestBinnerStream:
    def test_exact_path_bit_identical_to_fit(self):
        X, _ = _data()
        exact = FeatureBinner(64).fit(X)
        streamed = FeatureBinner(64).fit_stream(
            np.array_split(X, 7, axis=0))
        for a, b in zip(exact.edges_, streamed.edges_):
            assert np.array_equal(a, b)

    def test_nan_columns_handled_like_fit(self):
        X, _ = _data()
        X[::3, 2] = np.nan
        X[:, 4] = 1.5  # constant -> unsplittable
        exact = FeatureBinner(32).fit(X)
        streamed = FeatureBinner(32).fit_stream(
            np.array_split(X, 4, axis=0))
        for a, b in zip(exact.edges_, streamed.edges_):
            assert np.array_equal(a, b)
        assert streamed.edges_[4].size == 0

    def test_sketched_path_close_to_exact(self):
        """Past capacity the edges are rank-approximate: same bin count
        scale, near-identical quantile grid."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20_000, 2))
        exact = FeatureBinner(16).fit(X)
        streamed = FeatureBinner(16, sketch_capacity=512).fit_stream(
            np.array_split(X, 40, axis=0))
        for a, b in zip(exact.edges_, streamed.edges_):
            assert len(b) == len(a)
            # Edges are value-space close (normal data, 1/16 quantiles).
            assert np.max(np.abs(a - b)) < 0.1

    def test_feature_count_change_rejected(self):
        b = FeatureBinner(16)
        b.partial_fit(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="feature count"):
            b.partial_fit(np.zeros((4, 2)))

    def test_finalize_without_partial_fit_raises(self):
        with pytest.raises(RuntimeError, match="partial_fit"):
            FeatureBinner(16).finalize()


class TestTreeStream:
    def _fit_pair(self, sizes, params=None, seed=0):
        X, y = _data(seed=seed)
        params = params or TreeParams(max_depth=5, min_samples_leaf=5)
        binner = FeatureBinner(64).fit(X)
        binned = binner.transform(X)
        grad = y[:, None]
        ref = HistogramTree(params).fit(
            binned, grad, np.ones_like(grad), n_bins=binner.n_bins_)

        parts = _chunks_of([binned, grad], sizes)

        def chunks():
            for b, g in parts:
                yield b, g, None

        stream = HistogramTree(params).fit_binned_chunks(
            chunks, n_bins=binner.n_bins_)
        oracle = grow_reference(params, [(b, g, None) for b, g in parts],
                                np.random.default_rng())
        return ref, stream, oracle, binned

    def test_single_chunk_bit_identical(self):
        ref, stream, _, binned = self._fit_pair([600])
        for name in NODE_ARRAYS:
            assert getattr(ref, name).tobytes() == \
                getattr(stream, name).tobytes(), name
        assert ref.feature_gain_.tobytes() == stream.feature_gain_.tobytes()

    def test_multi_chunk_same_structure(self):
        ref, stream, oracle, binned = self._fit_pair([200, 200, 200])
        for name in ("feature", "threshold_bin", "left", "right",
                     "n_samples"):
            assert getattr(ref, name).tobytes() == \
                getattr(stream, name).tobytes(), name
        # Values sum per chunk, in chunk order: exactly the oracle's.
        for name in NODE_ARRAYS:
            assert getattr(oracle, name).tobytes() == \
                getattr(stream, name).tobytes(), name
        assert oracle.feature_gain_.tobytes() == \
            stream.feature_gain_.tobytes()

    def test_chunk_shape_change_between_passes_rejected(self):
        X, y = _data()
        binner = FeatureBinner(64).fit(X)
        binned = binner.transform(X)
        state = {"calls": 0}

        def chunks():
            # Stable for the peek + first sweep, then shape-shifts.
            state["calls"] += 1
            if state["calls"] <= 2:
                yield binned[:300], y[:300, None], None
                yield binned[300:], y[300:, None], None
            else:
                yield binned[:200], y[:200, None], None
                yield binned[200:], y[200:, None], None

        with pytest.raises(ValueError, match="changed shape"):
            HistogramTree(
                TreeParams(max_depth=4, min_samples_leaf=5)
            ).fit_binned_chunks(chunks, n_bins=binner.n_bins_)


class TestGBDTStream:
    PARAMS = dict(n_estimators=20, max_depth=4, learning_rate=0.2,
                  min_samples_leaf=5, random_state=3)

    def test_regressor_single_chunk_bitwise(self):
        X, y = _data()
        binner = FeatureBinner(256).fit(X)
        ref = GBDTRegressor(**self.PARAMS).fit(X, y)

        def chunks():
            yield binner.transform(X), y

        est = GBDTRegressor(**self.PARAMS).fit_binned_stream(chunks,
                                                             binner)
        assert np.array_equal(ref.predict(X), est.predict(X))

    def test_regressor_multi_chunk_close(self):
        X, y = _data()
        binner = FeatureBinner(256).fit(X)
        ref = GBDTRegressor(**self.PARAMS).fit(X, y)
        parts = _chunks_of([binner.transform(X), y], [250, 250, 100])

        def chunks():
            yield from parts

        est = GBDTRegressor(**self.PARAMS).fit_binned_stream(chunks,
                                                             binner)
        assert np.allclose(ref.predict(X), est.predict(X),
                           rtol=1e-9, atol=1e-9)
        # Bit for bit what the reference grower makes of these chunks.
        with pytest.MonkeyPatch.context() as m:
            m.setattr(HistogramTree, "fit_binned_chunks",
                      reference_fit_binned_chunks)
            oracle = GBDTRegressor(**self.PARAMS).fit_binned_stream(
                chunks, binner)
        assert oracle.predict(X).tobytes() == est.predict(X).tobytes()

    def test_classifier_single_chunk_bitwise(self):
        X, y = _data()
        labels = np.where(y > np.median(y), "high", "low")
        binner = FeatureBinner(256).fit(X)
        ref = GBDTClassifier(**self.PARAMS).fit(X, labels)

        def chunks():
            yield binner.transform(X), labels

        est = GBDTClassifier(**self.PARAMS).fit_binned_stream(chunks,
                                                              binner)
        assert np.array_equal(ref.predict_proba(X), est.predict_proba(X))
        assert np.array_equal(ref.classes_, est.classes_)

    def test_subsample_not_streamable(self):
        X, y = _data(n=100)
        binner = FeatureBinner(64).fit(X)

        def chunks():
            yield binner.transform(X), y

        with pytest.raises(NotImplementedError, match="subsample"):
            GBDTRegressor(n_estimators=5, subsample=0.8
                          ).fit_binned_stream(chunks, binner)

    def test_unfitted_binner_rejected(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            GBDTRegressor(n_estimators=5).fit_binned_stream(
                lambda: iter(()), FeatureBinner(64))


class TestForestStream:
    PARAMS = dict(n_estimators=8, max_depth=6, random_state=5)

    def test_regressor_single_chunk_bitwise(self):
        X, y = _data()
        ref = RandomForestRegressor(**self.PARAMS).fit(X, y)
        binner = FeatureBinner(256).fit(X)

        def chunks():
            yield binner.transform(X), y

        est = RandomForestRegressor(**self.PARAMS).fit_binned_stream(
            chunks, binner)
        assert np.array_equal(ref.predict(X), est.predict(X))

    def test_regressor_multi_chunk_deterministic_and_useful(self):
        X, y = _data()
        binner = FeatureBinner(256).fit(X)
        parts = _chunks_of([binner.transform(X), y], [250, 250, 100])

        def chunks():
            yield from parts

        a = RandomForestRegressor(**self.PARAMS).fit_binned_stream(
            chunks, binner)
        b = RandomForestRegressor(**self.PARAMS).fit_binned_stream(
            chunks, binner)
        assert np.array_equal(a.predict(X), b.predict(X))
        r2 = 1 - np.mean((a.predict(X) - y) ** 2) / np.var(y)
        assert r2 > 0.7

    def test_classifier_single_chunk_bitwise(self):
        X, y = _data()
        labels = np.where(y > np.median(y), "high", "low")
        ref = RandomForestClassifier(**self.PARAMS).fit(X, labels)
        binner = FeatureBinner(256).fit(X)

        def chunks():
            yield binner.transform(X), labels

        est = RandomForestClassifier(**self.PARAMS).fit_binned_stream(
            chunks, binner)
        assert np.array_equal(ref.predict_proba(X), est.predict_proba(X))
        assert np.array_equal(ref.classes_, est.classes_)

    def test_empty_stream_rejected(self):
        binner = FeatureBinner(64).fit(np.zeros((4, 2)) +
                                       np.arange(4)[:, None])
        with pytest.raises(ValueError, match="empty"):
            RandomForestRegressor(n_estimators=2).fit_binned_stream(
                lambda: iter(()), binner)
