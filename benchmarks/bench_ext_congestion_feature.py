"""Extension (Appendix A.1.4): a carrier-supplied load feature.

The paper could not observe how many other subscribers shared each panel
and names this the missing "time-of-day" factor, suggesting carriers add
the number of co-scheduled UEs as a feature.  We can: the simulator logs
the true per-second panel load.  This bench runs a campaign with
background subscribers and compares GDBT (L+M) with and without the
carrier load feature.
"""

import numpy as np

from repro import fstore
from repro.datasets.generate import generate_datasets
from repro.ml.gbdt import GBDTRegressor
from repro.ml.metrics import mae
from repro.ml.preprocessing import train_test_split
from repro.net.scheduler import CellLoadModel
from repro.sim.collection import CampaignConfig
from repro.sim.simulator import SimulationConfig

from _bench_utils import emit, format_table


def test_ext_carrier_load_feature(benchmark, capsys):
    sim_cfg = SimulationConfig(cell_load=CellLoadModel(
        mean_background_ues=1.2
    ))
    campaign = CampaignConfig(passes_per_trajectory=8, driving_passes=2,
                              stationary_runs=2, stationary_duration_s=60,
                              seed=40, simulation=sim_cfg)
    table = benchmark.pedantic(
        lambda: generate_datasets(areas=("Airport",), campaign=campaign,
                                  include_global=False,
                                  use_cache=False)["Airport"],
        rounds=1, iterations=1,
    )

    X_base = fstore.extract(table, "L+M").X
    load = np.asarray(table["carrier_load_ues"], dtype=float)
    X_loaded = np.column_stack([X_base, load])
    y = fstore.target(table)

    def fit_eval(X):
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, test_size=0.3,
                                                  rng=0)
        model = GBDTRegressor(n_estimators=120, max_depth=6,
                              learning_rate=0.1, random_state=0)
        return mae(y_te, model.fit(X_tr, y_tr).predict(X_te))

    base = fit_eval(X_base)
    loaded = fit_eval(X_loaded)

    rows = [
        ["L+M (UE-side only)", base],
        ["L+M + carrier load", loaded],
        ["improvement", f"{(1 - loaded / base) * 100:.1f}%"],
    ]
    table_txt = format_table(["features", "GDBT MAE (Mbps)"], rows)
    table_txt += ("\n(campaign with ~1.2 mean background UEs per panel; "
                  "the load feature is the paper's proposed carrier-side "
                  "extension)")
    emit("ext_congestion_feature", table_txt, capsys)

    # The unobservable load injects error that the oracle feature removes.
    assert loaded < base * 0.95
