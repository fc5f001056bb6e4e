"""Shared benchmark fixtures: one campaign, one result cache, per-paper
tables written to ``benchmarks/results/``.

Heavy work (dataset simulation, model training) happens once per session
in cached fixtures; each ``bench_*`` file assembles its paper table from
the cache, times its representative computation with
``benchmark.pedantic``, prints the table and writes it to disk.

Scale: the bench profile trades the paper's 8000-tree / 2000-epoch model
budgets for laptop-sized equivalents (documented in DESIGN.md); the
qualitative shape of every table is preserved and asserted.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import obs
from repro.core.pipeline import Lumos5G, ModelConfig
from repro.datasets.generate import generate_datasets
from repro.sim.collection import CampaignConfig

from _bench_utils import RESULTS_DIR, bench_obs_record

BENCH_SEED = 2020
BENCH_CAMPAIGN = CampaignConfig(
    passes_per_trajectory=6,
    driving_passes=6,
    stationary_runs=2,
    stationary_duration_s=90,
    seed=BENCH_SEED,
)

BENCH_MODEL_CONFIG = ModelConfig(
    gdbt_estimators=120,
    gdbt_depth=6,
    gdbt_learning_rate=0.1,
    gdbt_min_samples_leaf=10,
    seq2seq_hidden=32,
    seq2seq_layers=1,
    seq2seq_epochs=10,
    seq2seq_batch=512,
    seq2seq_lr=3e-3,
    input_len=20,
    output_len=1,
    window_stride=4,
    knn_k=5,
    rf_estimators=50,
    rf_depth=12,
)


@pytest.fixture(scope="session")
def datasets():
    """Cleaned per-area tables + the pooled Global table."""
    return generate_datasets(
        areas=("Airport", "Intersection", "Loop"),
        campaign=BENCH_CAMPAIGN,
        use_cache=True,
    )


@pytest.fixture(scope="session")
def framework(datasets):
    return Lumos5G(datasets, config=BENCH_MODEL_CONFIG, seed=42)


class ResultCache:
    """Memoized (area, spec, model) -> evaluation results."""

    def __init__(self, framework: Lumos5G):
        self.framework = framework
        self._reg: dict[tuple, object] = {}
        self._clf: dict[tuple, object] = {}

    def regression(self, area: str, spec: str, model: str):
        key = (area, spec, model)
        if key not in self._reg:
            self._reg[key] = self.framework.evaluate_regression(
                area, spec, model
            )
        return self._reg[key]

    def classification(self, area: str, spec: str, model: str):
        key = (area, spec, model)
        if key not in self._clf:
            self._clf[key] = self.framework.evaluate_classification(
                area, spec, model
            )
        return self._clf[key]


@pytest.fixture(scope="session")
def results(framework):
    return ResultCache(framework)


# --------------------------------------------------------------------------- #
# Observability: per-bench wall-clock + registry snapshot, persisted next to
# the paper tables so perf regressions show up in benchmarks/results/ diffs.
# --------------------------------------------------------------------------- #

_OBS_RECORDS: dict[str, dict] = {}


@pytest.fixture(autouse=True)
def _obs_bench_record(request):
    """Record each bench's wall-clock and the metrics it emitted.

    The registry is process-wide, so it is reset as each bench starts:
    otherwise every record would also carry every earlier bench's
    metrics when several benches share a session.
    """
    obs.set_enabled(True)
    obs.get_registry().reset()
    t0 = time.perf_counter()
    yield
    _OBS_RECORDS[request.node.name] = bench_obs_record(
        time.perf_counter() - t0)


def pytest_sessionfinish(session, exitstatus):
    if not _OBS_RECORDS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "obs_metrics.json"
    # Merge over what's already on disk so running a subset of benches
    # refreshes only their records instead of dropping everyone else's.
    records: dict = {}
    if path.is_file():
        try:
            records = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            records = {}
    records.update(_OBS_RECORDS)
    path.write_text(
        json.dumps(records, indent=2, sort_keys=True) + "\n"
    )
