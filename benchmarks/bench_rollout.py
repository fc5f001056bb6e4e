"""Continuous-learning loop costs: warm-start refit and shadow mirroring.

Two claims from docs/continuous_learning.md, measured and asserted:

* **Warm-start refit is >= 3x faster than a cold retrain at equal
  final rounds.**  A 100k-row drifted stream arrives; the incumbent
  (68 rounds) appends 12 warm rounds vs a from-scratch 80-round fit of
  the same family on the same stream.  Both paths are timed end to end
  over what they would actually run in the pipeline: the warm path
  re-bins with the incumbent's frozen binner and pays the
  initial-residual pass over the existing trees; the cold path re-fits
  a binner and every round.
* **Shadow mirroring costs < 10% p99 latency at sub-saturation load.**
  Open-loop steady arrivals against a 4-shard gateway, with and
  without a mirror of the same model installed; the mirror batches big
  and slow (a fixed 25 ms straggler window) and settles comparisons at
  drain, so the candidate steals almost no scheduler time from the
  serving path.  Each arm's statistic is the best p99 across interleaved
  trials: co-tenant interference inflates tails on both arms at
  random, and the per-trial minimum is the estimator that cancels it.

Gauges land in ``benchmarks/results/obs_metrics.json``:
``rollout.bench.warm_refit_s`` / ``.cold_retrain_s`` /
``.refit_speedup`` / ``.warm_mae`` / ``.cold_mae`` /
``.shadow_p99_off_ms`` / ``.shadow_p99_on_ms`` / ``.shadow_p99_ratio``.
"""

import asyncio
import json
import time

import numpy as np

from repro import obs
from repro.gateway import (
    AsyncGateway,
    GatewayConfig,
    ScheduledRequests,
    steady,
)
from repro.ml.gbdt import GBDTRegressor
from repro.ml.serialize import model_from_dict, model_to_dict
from repro.ml.tree import FeatureBinner

from _bench_utils import emit, format_table

# -- warm vs cold refit ----------------------------------------------------- #

N_ROWS = 100_000
N_FEATURES = 8
CHUNK = 8_192
BASE_ROUNDS = 68
REFIT_ROUNDS = 12
FINAL_ROUNDS = BASE_ROUNDS + REFIT_ROUNDS
MIN_SPEEDUP = 3.0

# -- shadow mirroring ------------------------------------------------------- #

N_SHARDS = 4
RATE_HZ = 250.0
HORIZON_S = 3.0
TRIALS = 5
MAX_P99_RATIO = 1.10
SERVE_TREES = 15


def _throughput(X: np.ndarray, rng, *, drifted: bool) -> np.ndarray:
    """Synthetic mmWave-ish throughput; drift is a seasonal attenuation
    (level drop + a steeper obstruction penalty), the shift the loop's
    refit path exists to absorb."""
    base = 400.0 + 120.0 * np.sin(X[:, 0]) + 60.0 * X[:, 1] \
        - 45.0 * (X[:, 2] > 0.5)
    if drifted:
        base = base - 80.0 - 25.0 * (X[:, 3] > 0.0)
    return base + rng.normal(0.0, 30.0, len(X))


def _chunks(X, y, binner):
    return [(binner.transform(X[i:i + CHUNK]), y[i:i + CHUNK])
            for i in range(0, len(y), CHUNK)]


def _regressor(n_estimators: int) -> GBDTRegressor:
    return GBDTRegressor(n_estimators=n_estimators, max_depth=4,
                         learning_rate=0.1, random_state=0)


def test_warm_start_refit_speedup(capsys):
    rng = np.random.default_rng(2020)
    X_base = rng.normal(size=(N_ROWS, N_FEATURES))
    y_base = _throughput(X_base, rng, drifted=False)
    X_drift = rng.normal(size=(N_ROWS, N_FEATURES))
    y_drift = _throughput(X_drift, rng, drifted=True)
    X_hold = rng.normal(size=(20_000, N_FEATURES))
    y_hold = _throughput(X_hold, rng, drifted=True)

    # The incumbent: trained before the drift, binner frozen at fit.
    binner = FeatureBinner(256).fit(X_base[:20_000])
    incumbent = _regressor(BASE_ROUNDS)
    incumbent.fit_binned_stream(
        lambda: iter(_chunks(X_base, y_base, binner)), binner)

    # Warm path: what refit_from_store runs -- re-bin the drifted
    # stream with the *frozen* binner, append REFIT_ROUNDS rounds.
    warm = model_from_dict(model_to_dict(incumbent))
    t0 = time.perf_counter()
    warm_chunks = _chunks(X_drift, y_drift, binner)
    warm.fit_more_binned_stream(REFIT_ROUNDS, lambda: iter(warm_chunks))
    warm_s = time.perf_counter() - t0

    # Cold path: the escalation fallback -- new binner, full rounds.
    t0 = time.perf_counter()
    cold_binner = FeatureBinner(256).fit(X_drift[:20_000])
    cold_chunks = _chunks(X_drift, y_drift, cold_binner)
    cold = _regressor(FINAL_ROUNDS)
    cold.fit_binned_stream(lambda: iter(cold_chunks), cold_binner)
    cold_s = time.perf_counter() - t0

    assert len(warm._trees) == len(cold._trees) == FINAL_ROUNDS
    speedup = cold_s / warm_s
    warm_mae = float(np.mean(np.abs(warm.predict(X_hold) - y_hold)))
    cold_mae = float(np.mean(np.abs(cold.predict(X_hold) - y_hold)))

    obs.set_gauge("rollout.bench.warm_refit_s", round(warm_s, 3))
    obs.set_gauge("rollout.bench.cold_retrain_s", round(cold_s, 3))
    obs.set_gauge("rollout.bench.refit_speedup", round(speedup, 2))
    obs.set_gauge("rollout.bench.warm_mae", round(warm_mae, 2))
    obs.set_gauge("rollout.bench.cold_mae", round(cold_mae, 2))

    table = format_table(
        ["path", "rounds trained", "wall s", "drifted MAE"],
        [["warm (fit_more)", f"{REFIT_ROUNDS}", f"{warm_s:.2f}",
          f"{warm_mae:.1f}"],
         ["cold (refit all)", f"{FINAL_ROUNDS}", f"{cold_s:.2f}",
          f"{cold_mae:.1f}"]],
    )
    emit("rollout_refit",
         table + f"\n{N_ROWS} drifted rows streamed in {CHUNK}-row "
         f"chunks; speedup {speedup:.1f}x (gate: >= {MIN_SPEEDUP:.0f}x)",
         capsys)

    assert speedup >= MIN_SPEEDUP, (
        f"warm-start refit only {speedup:.2f}x faster than cold retrain"
    )
    # The cheap path must also actually absorb the drift.
    assert warm_mae <= 1.5 * cold_mae


def _serve_p99_ms(model, shadow_model, lines) -> float:
    config = GatewayConfig(shards=N_SHARDS, queue_depth=512,
                           max_batch_size=64, max_wait_ms=0.5,
                           telemetry=False)
    gateway = AsyncGateway(model, version=1, config=config)
    if shadow_model is not None:
        gateway.set_shadow(shadow_model, 2)
    schedule = steady(RATE_HZ, HORIZON_S, seed=2020)
    sent = lines[:len(schedule)]
    latencies: list[float] = []

    async def main():
        loop = asyncio.get_running_loop()
        arrivals: list[float] = []

        async def line_gen():
            async for _t_due, line in ScheduledRequests(schedule, sent):
                arrivals.append(loop.time())
                yield line

        responses: list[str] = []

        async def write(text):
            done = loop.time()
            latencies.append(done - arrivals[len(responses)])
            responses.append(text)

        await gateway.handle_connection(line_gen(), write)
        assert len(responses) == len(sent)

    try:
        asyncio.run(main())
        if shadow_model is not None:
            report = gateway.shadow_report()
            assert report["compared"] == len(sent)  # mirror kept up
    finally:
        gateway.close()
    return float(np.quantile(1e3 * np.asarray(latencies), 0.99))


def test_shadow_mirroring_p99_overhead(capsys):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(4_000, N_FEATURES))
    y = _throughput(X, rng, drifted=False)
    model = GBDTRegressor(n_estimators=SERVE_TREES, max_depth=4,
                          random_state=0).fit(X, y)
    shadow = model_from_dict(model_to_dict(model))
    lines = [json.dumps({"id": i, "key": f"ue-{i % 23}",
                         "features": list(map(float, X[i % len(X)]))})
             for i in range(int(RATE_HZ * HORIZON_S) + 64)]

    # Warm both paths, then interleave trials so machine noise lands on
    # both arms evenly.  The per-arm statistic is the *minimum* p99
    # across trials: a short window's p99 is one-sided noisy (container
    # jitter only ever inflates it), so min-of-trials estimates each
    # arm's inherent tail.
    _serve_p99_ms(model, None, lines)
    _serve_p99_ms(model, shadow, lines)
    off, on = [], []
    for _ in range(TRIALS):
        off.append(_serve_p99_ms(model, None, lines))
        on.append(_serve_p99_ms(model, shadow, lines))
    p99_off = float(min(off))
    p99_on = float(min(on))
    ratio = p99_on / p99_off if p99_off > 0 else float("inf")

    obs.set_gauge("rollout.bench.shadow_p99_off_ms", round(p99_off, 3))
    obs.set_gauge("rollout.bench.shadow_p99_on_ms", round(p99_on, 3))
    obs.set_gauge("rollout.bench.shadow_p99_ratio", round(ratio, 3))

    table = format_table(
        ["configuration", "p99 ms (best of trials)", "ratio"],
        [["shadow off", f"{p99_off:.2f}", "1.00"],
         ["shadow mirroring on", f"{p99_on:.2f}", f"{ratio:.2f}"]],
    )
    emit("rollout_shadow_overhead",
         table + f"\n{N_SHARDS} shards, steady open-loop "
         f"{RATE_HZ:.0f} Hz x {HORIZON_S:.0f}s, {TRIALS} interleaved "
         f"trials per arm (gate: ratio < {MAX_P99_RATIO:.2f})",
         capsys)

    assert ratio < MAX_P99_RATIO, (
        f"shadow mirroring p99 overhead {100 * (ratio - 1):.1f}% "
        f"exceeds the {100 * (MAX_P99_RATIO - 1):.0f}% budget"
    )
