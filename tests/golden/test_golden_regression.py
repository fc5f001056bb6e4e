"""Golden regression suite: frozen Table 7/8-style accuracy numbers.

Guards the paper-facing metrics against silent corruption by serving or
vectorization refactors: the seeded small-config GBDT runs must keep
reproducing the snapshot in ``golden_metrics.json`` to within a float
whisker.  A legitimate modelling change regenerates the snapshot with
``PYTHONPATH=src python tools/update_goldens.py`` and commits the diff.

``test_perturbed_split_moves_metrics`` is the standing proof that the
tolerance actually bites: nudging one tree-split constant by a single
bin shifts predictions far outside it.
"""

import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))
import update_goldens  # noqa: E402

from repro.ml.metrics import mae  # noqa: E402
from repro.ml.preprocessing import train_test_split  # noqa: E402
from repro.ml.serialize import model_from_dict, model_to_dict  # noqa: E402


@pytest.fixture(scope="module")
def fresh():
    """One golden recomputation shared by every comparison test."""
    return update_goldens.compute_goldens()


@pytest.fixture(scope="module")
def snapshot():
    return update_goldens.load_goldens()


def _approx(value):
    return pytest.approx(value, rel=update_goldens.GOLDEN_RTOL,
                         abs=update_goldens.GOLDEN_ATOL)


class TestGoldenSnapshot:
    def test_snapshot_config_matches_harness(self, fresh, snapshot):
        """The snapshot was produced by the configuration being tested
        (stale goldens after a config change fail loudly here)."""
        assert snapshot["config"] == fresh["config"]

    def test_same_specs_covered(self, fresh, snapshot):
        assert sorted(snapshot["metrics"]) == sorted(fresh["metrics"])

    @pytest.mark.parametrize("spec", update_goldens.GOLDEN_SPECS)
    def test_regression_metrics_frozen(self, fresh, snapshot, spec):
        got = fresh["metrics"][spec]["regression"]
        want = snapshot["metrics"][spec]["regression"]
        assert got["mae"] == _approx(want["mae"])
        assert got["rmse"] == _approx(want["rmse"])

    @pytest.mark.parametrize("spec", update_goldens.GOLDEN_SPECS)
    def test_classification_metrics_frozen(self, fresh, snapshot, spec):
        got = fresh["metrics"][spec]["classification"]
        want = snapshot["metrics"][spec]["classification"]
        assert got["weighted_f1"] == _approx(want["weighted_f1"])
        assert got["recall_low"] == _approx(want["recall_low"])

    @pytest.mark.parametrize("spec", update_goldens.GOLDEN_SPECS)
    def test_split_sizes_frozen(self, fresh, snapshot, spec):
        assert fresh["metrics"][spec]["n_train"] == \
            snapshot["metrics"][spec]["n_train"]
        assert fresh["metrics"][spec]["n_test"] == \
            snapshot["metrics"][spec]["n_test"]


class TestToleranceBites:
    def test_perturbed_split_moves_metrics(self):
        """One perturbed tree-split constant must blow the tolerance.

        This is the demonstration required of the golden suite: the
        harness is sensitive enough that corrupting a single threshold
        in a single tree produces a metric shift orders of magnitude
        beyond GOLDEN_RTOL.  The perturbed model is loaded from an
        edited payload (fitted node arrays are read-only).
        """
        framework = update_goldens._golden_framework()
        X, y, _, _ = framework.design("Airport", "L")
        X_tr, X_te, y_tr, y_te = train_test_split(
            X, y, test_size=0.3, rng=framework.seed
        )
        model = framework.config.estimator(
            "gdbt", "regression", framework.seed).fit(X_tr, y_tr)
        baseline = mae(y_te, model.predict(X_te))

        payload = model_to_dict(model)
        node = next(n for n in payload["trees"][0]["nodes"] if n["f"] >= 0)
        node["t"] += 1  # the "perturbed tree-split constant"
        perturbed = mae(y_te, model_from_dict(payload).predict(X_te))

        shift = abs(perturbed - baseline) / baseline
        assert shift > 100 * update_goldens.GOLDEN_RTOL, (
            f"perturbing a split constant moved MAE by only {shift:.2e}; "
            "the golden tolerance would not catch corruption"
        )
