"""Worker-count invariance for the ML layer.

Running a grid search with a process pool must yield *exactly* the same
result as running serially -- same scores, same best params.
Parallelism is a wall-clock knob only.  Forests grow serially, one tree
per child of ``random_state``'s seed sequence, so their seed still
decides the model.
"""

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNNRegressor
from repro.ml.metrics import mae
from repro.ml.model_selection import GridSearch


def _regression_data(seed=0, n=240, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = X @ rng.normal(size=d) + 0.1 * rng.normal(size=n)
    return X, y


# Module-level so GridSearch's tasks stay picklable under any start method.

def _make_knn(params):
    return KNNRegressor(**params)


class TestForestInvariance:
    def test_random_state_still_matters(self):
        X, y = _regression_data()
        a = RandomForestRegressor(n_estimators=8, random_state=1).fit(X, y)
        b = RandomForestRegressor(n_estimators=8, random_state=2).fit(X, y)
        assert not np.array_equal(a.predict(X), b.predict(X))


class TestGridSearchInvariance:
    GRID = {"n_neighbors": [1, 3, 7]}

    def test_fit_cv_same_result_parallel(self):
        X, y = _regression_data(seed=5)
        serial = GridSearch(_make_knn, self.GRID, mae).fit_cv(X, y, rng=0)
        par = GridSearch(_make_knn, self.GRID, mae).fit_cv(
            X, y, rng=0, workers=3)
        assert serial.best_params_ == par.best_params_
        assert serial.best_score_ == par.best_score_
        assert [r.score for r in serial.results_] == \
            [r.score for r in par.results_]

    def test_lambda_factory_falls_back_serial(self):
        """Unpicklable factories must degrade gracefully, not crash."""
        X, y = _regression_data(seed=9, n=120)
        search = GridSearch(lambda p: KNNRegressor(**p), self.GRID, mae)
        search.fit_cv(X, y, rng=0, workers=4)
        reference = GridSearch(_make_knn, self.GRID, mae).fit_cv(X, y, rng=0)
        assert search.best_params_ == reference.best_params_
        assert search.best_score_ == reference.best_score_
