"""Feature-store throughput: offline materialization and online latency.

Runs the T+M+C view over the bench Airport campaign two ways -- the
in-memory batch path (:meth:`FeatureView.transform_table`) and the
per-request online path (dict -> vector, no table) -- and proves the
bit-parity guarantee on real campaign data while at it.

Wall clocks and latency quantiles land as obs gauges in
``benchmarks/results/obs_metrics.json``:

* ``fstore.bench.offline_rows_per_s`` -- batch ``transform_table``;
* ``fstore.bench.online_vectors_per_s`` -- single-row vectors through
  :class:`OnlineFeatureServer`;
* ``fstore.bench.online_p50_ms`` / ``online_p99_ms`` -- per-vector
  latency quantiles from the ``fstore.online.vector_s`` histogram.
"""

import time

import numpy as np

from repro import obs
from repro.fstore import (
    PAST_THROUGHPUT_FIELD,
    OnlineFeatureServer,
    combination_view,
)

from _bench_utils import emit, format_table

#: Rows replayed through the online path (enough for a stable p99).
N_ONLINE = 1500


def _online_rows(table, n):
    tput = np.asarray(table["throughput_mbps"], dtype=float)
    run_ids = np.asarray(table["run_id"])
    names = table.column_names
    rows = []
    for i in range(min(n, len(table))):
        row = {name: table[name][i] for name in names}
        history = tput[:i][run_ids[:i] == run_ids[i]][::-1]
        row[PAST_THROUGHPUT_FIELD] = [float(v) for v in history[:8]]
        rows.append(row)
    return rows


def test_fstore_paths(datasets, benchmark, capsys):
    table = datasets["Airport"]
    n = len(table)
    view = combination_view("T+M+C", past_throughput_lags=5)

    # Offline: the whole table through the batch kernels.
    t0 = time.perf_counter()
    offline = benchmark.pedantic(lambda: view.transform_table(table),
                                 rounds=1, iterations=1)
    offline_s = time.perf_counter() - t0

    # Online: per-request dict -> vector, measured end to end.
    server = OnlineFeatureServer(view)
    rows = _online_rows(table, N_ONLINE)
    t0 = time.perf_counter()
    vectors = [server.vector(row) for row in rows]
    online_s = time.perf_counter() - t0

    # The parity guarantee, demonstrated on real campaign data.  (The
    # replay truncates history to 8 samples >= the 5 lags, so values
    # still match the offline within-run lag columns exactly.)
    online_X = np.vstack(vectors)
    assert online_X.tobytes() == offline.X[:len(rows)].tobytes()

    hist = obs.get_registry().histogram("fstore.online.vector_s")
    p50_ms = hist.quantile(0.5) * 1e3
    p99_ms = hist.quantile(0.99) * 1e3

    offline_rps = n / offline_s
    online_vps = len(rows) / online_s

    obs.set_gauge("fstore.bench.n_rows", float(n))
    obs.set_gauge("fstore.bench.offline_rows_per_s",
                  round(offline_rps, 1))
    obs.set_gauge("fstore.bench.online_vectors_per_s",
                  round(online_vps, 1))
    obs.set_gauge("fstore.bench.online_p50_ms", round(p50_ms, 4))
    obs.set_gauge("fstore.bench.online_p99_ms", round(p99_ms, 4))

    rows_out = [
        ["offline batch", f"{offline_s:.3f}", f"{offline_rps:.0f}", "-"],
        ["online per-row", f"{online_s:.3f}", f"{online_vps:.0f}",
         f"p50={p50_ms:.3f} p99={p99_ms:.3f}"],
    ]
    table_txt = format_table(
        ["path", "wall clock s", "rows/s", "latency ms"], rows_out
    )
    note = (f"\nT+M+C view, {n} Airport rows offline, "
            f"{len(rows)} online vectors; offline==online bit-exact")
    emit("fstore_paths", table_txt + note, capsys)
