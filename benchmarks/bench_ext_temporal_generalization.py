"""Extension (Sec. 8.1): temporal generalizability.

Train on one campaign and test on a campaign collected "later" (fresh
random state: new shadowing innovations, run offsets, pedestrian flows --
the static environment and spatial shadowing field stay fixed, as they
would across days).  The paper leaves daily/seasonal generalization as
future work; here we quantify the gap between a random 70/30 split and a
strict campaign-to-campaign split.
"""

import numpy as np

from repro import fstore
from repro.datasets.generate import generate_datasets
from repro.ml.gbdt import GBDTRegressor
from repro.ml.metrics import mae
from repro.ml.preprocessing import train_test_split
from repro.sim.collection import CampaignConfig

from _bench_utils import emit, format_table


def _dataset(seed):
    campaign = CampaignConfig(passes_per_trajectory=8, driving_passes=2,
                              stationary_runs=1, stationary_duration_s=60,
                              seed=seed)
    return generate_datasets(areas=("Airport",), campaign=campaign,
                             include_global=False,
                             use_cache=False)["Airport"]


def test_ext_temporal_generalization(benchmark, capsys):
    day1 = benchmark.pedantic(lambda: _dataset(101), rounds=1, iterations=1)
    day2 = _dataset(202)

    X1 = fstore.extract(day1, "T+M").X
    y1 = fstore.target(day1)
    X2 = fstore.extract(day2, "T+M").X
    y2 = fstore.target(day2)

    def gdbt():
        return GBDTRegressor(n_estimators=120, max_depth=6,
                             learning_rate=0.1, random_state=0)

    # Same-campaign random split (the paper's protocol).
    X_tr, X_te, y_tr, y_te = train_test_split(X1, y1, test_size=0.3, rng=0)
    within = mae(y_te, gdbt().fit(X_tr, y_tr).predict(X_te))
    # Cross-campaign: train day 1, test day 2.
    across = mae(y2, gdbt().fit(X1, y1).predict(X2))

    rows = [
        ["within-campaign 70/30", within],
        ["train day 1 -> test day 2", across],
        ["generalization gap", f"{(across / within - 1) * 100:.1f}%"],
    ]
    table = format_table(["protocol", "T+M GDBT MAE"], rows)
    emit("ext_temporal_generalization", table, capsys)

    # The model must transfer across campaigns: the spatial structure
    # carries over; only run-specific noise is new.
    assert across < 1.6 * within
    assert across < 0.9 * float(np.abs(y2 - y2.mean()).mean())
