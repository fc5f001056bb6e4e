"""Property-style tests for ordinary kriging invariants."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy import linalg

from repro.ml.kriging import OrdinaryKriging, spherical_variogram


class TestKrigingInvariants:
    def _fitted(self, seed=0, n=120):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 50, size=(n, 2))
        y = 0.1 * X[:, 0] + np.sin(X[:, 1] / 8.0) + rng.normal(0, 0.05, n)
        return OrdinaryKriging(random_state=seed).fit(X, y), X, y

    def test_weights_sum_to_one(self):
        """The unbiasedness constraint of ordinary kriging."""
        model, X, _ = self._fitted()
        queries = np.array([[10.0, 10.0], [40.0, 5.0], [25.0, 25.0]])
        n = len(model._coords)
        d = np.sqrt(((queries[:, None, :] - model._coords[None]) ** 2)
                    .sum(-1))
        B = np.empty((n + 1, len(queries)))
        B[:n] = spherical_variogram(d, model.nugget_, model.sill_,
                                    model.range_).T
        B[n] = 1.0
        weights = linalg.lu_solve(model._lu, B)[:n]
        np.testing.assert_allclose(weights.sum(axis=0), 1.0, atol=1e-8)

    def test_constant_field_predicted_exactly(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 10, size=(60, 2))
        y = np.full(60, 42.0)
        # A constant field has zero variance; nudge minimally so the
        # variogram fit is defined.
        y = y + rng.normal(0, 1e-6, 60)
        model = OrdinaryKriging().fit(X, y)
        pred = model.predict(rng.uniform(0, 10, size=(20, 2)))
        np.testing.assert_allclose(pred, 42.0, atol=1e-3)

    def test_far_queries_revert_toward_mean(self):
        model, X, y = self._fitted()
        far = model.predict(np.array([[10_000.0, 10_000.0]]))
        assert abs(far[0] - model._values.mean()) < 0.5

    def test_translation_invariance(self):
        """Kriging depends only on relative geometry."""
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 20, size=(80, 2))
        y = np.cos(X[:, 0] / 5.0) + rng.normal(0, 0.02, 80)
        q = np.array([[5.0, 5.0], [12.0, 3.0]])
        a = OrdinaryKriging(random_state=0).fit(X, y).predict(q)
        shift = np.array([1000.0, -500.0])
        b = OrdinaryKriging(random_state=0).fit(X + shift, y).predict(
            q + shift
        )
        np.testing.assert_allclose(a, b, atol=1e-6)


def test_scipy_stays_out_of_every_other_process():
    """Only the kriging baseline loads scipy, and only when it runs.

    The CLI, the gateway, the online feature path and the store
    pipeline import ``repro.ml``; none of them may pay scipy's import
    time and memory for a baseline they never fit.
    """
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys\n"
            "import repro.cli, repro.gateway, repro.fstore\n"
            "import repro.colstore.pipeline, repro.ml\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' "
            "or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
