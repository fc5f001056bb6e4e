"""5G-aware adaptive bitrate streaming -- the paper's motivating use case.

A user walks the Airport corridor watching an adaptive-bitrate video.
Three ABR policies pick the next segment's bitrate each second:

* **harmonic-mean ABR** (FESTIVE/MPC-style): bitrate from the harmonic
  mean of recently measured throughput -- the conventional in-situ
  approach;
* **Lumos5G ABR**: bitrate from a context-aware GDBT prediction using
  tower + mobility + connection features (T+M+C -- the app can always
  measure its own past throughput), trained on prior walks of the area;
* **Lumos5G q10 ABR**: same features, but a 10th-percentile quantile-GBDT
  prediction -- "throughput I can count on ~90% of the time" -- so the
  risk appetite lives in the predictor instead of a safety factor.

Each policy's safety factor (the fraction of its prediction it dares to
request) is calibrated on held-out walks, then both replay fresh walks.
We compare average bitrate, stall seconds (requested bitrate above the
delivered throughput) and a QoE score.  Sec. 2.2 of the paper: with
prediction error <= 20%, streaming QoE gets close to optimal.

    python examples/video_streaming_abr.py
"""

import numpy as np

from repro import fstore
from repro.core import Lumos5G, ModelConfig
from repro.datasets import generate_datasets
from repro.datasets.cleaning import clean
from repro.datasets.frame import Table
from repro.env import build_airport
from repro.ml import GBDTQuantileRegressor, HarmonicMeanPredictor
from repro.mobility import WalkingModel
from repro.sim import simulate_pass
from repro.ue.telemetry import TelemetryRecord

BITRATE_LADDER_MBPS = (5.0, 25.0, 60.0, 120.0, 250.0, 500.0, 1000.0)
SAFETY_GRID = (0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 0.9)
STALL_PENALTY = 4.0
STARTUP_BUFFER_S = 5.0
MAX_BUFFER_S = 30.0


def pick_bitrate(predicted_mbps: float, safety: float) -> float:
    usable = safety * max(predicted_mbps, 0.0)
    candidates = [b for b in BITRATE_LADDER_MBPS if b <= usable]
    return candidates[-1] if candidates else BITRATE_LADDER_MBPS[0]


def replay(actual: np.ndarray, predictions: np.ndarray, safety: float):
    """Buffered 1-second-segment player (MPC-style QoE accounting).

    Each second the policy requests one segment at its chosen bitrate;
    the segment takes ``bitrate / throughput`` seconds to arrive.  The
    playback buffer absorbs slow downloads until it runs dry -- then the
    video stalls.  QoE rewards bitrate and punishes stall time.
    """
    buffer_s, stall_s = STARTUP_BUFFER_S, 0.0
    bitrates = []
    for pred, tput in zip(predictions, actual):
        bitrate = pick_bitrate(pred, safety)
        bitrates.append(bitrate)
        download_s = bitrate / max(tput, 1.0)
        if download_s > buffer_s:
            stall_s += download_s - buffer_s
            buffer_s = 0.0
        else:
            buffer_s -= download_s
        buffer_s = min(buffer_s + 1.0, MAX_BUFFER_S)
    mean_bitrate = float(np.mean(bitrates))
    qoe = mean_bitrate * (1.0 - STALL_PENALTY * stall_s / len(bitrates))
    return mean_bitrate, float(stall_s), float(qoe)


def calibrate(actual: np.ndarray, predictions: np.ndarray) -> float:
    """Pick the safety factor maximizing QoE on calibration walks."""
    return max(SAFETY_GRID,
               key=lambda s: replay(actual, predictions, s)[2])


def fresh_walk(env, run, rng):
    recs = simulate_pass(env, env.trajectories["NB"], WalkingModel(),
                         run_id=run, rng=rng, mobility_mode="walking")
    raw = Table.from_records(recs, TelemetryRecord.field_names())
    walk, _ = clean(raw)
    return walk


def main() -> None:
    print("training Lumos5G on historical Airport walks ...")
    history = generate_datasets(areas=("Airport",), passes_per_trajectory=8,
                                seed=3, include_global=False)
    framework = Lumos5G(history, config=ModelConfig(), seed=0)
    model = framework.fit_regressor("Airport", "T+M+C", "gdbt")
    X, y, _, _ = framework.design("Airport", "T+M+C")
    # A conservative-quantile variant: predicts throughput the user can
    # count on ~90% of the time, so no external safety factor is needed.
    q_model = GBDTQuantileRegressor(quantile=0.1, n_estimators=150,
                                    max_depth=6, learning_rate=0.08,
                                    random_state=0).fit(X, y)
    hm = HarmonicMeanPredictor(window=5)

    env = build_airport()
    rng = np.random.default_rng(99)

    def predictions_for(walk):
        actual = np.asarray(walk["throughput_mbps"], dtype=float)
        features = fstore.extract(walk, "T+M+C").X
        lumos = model.predict(features)
        lumos_q = q_model.predict(features)
        harmonic = hm.predict_trace(actual)
        return actual, lumos, lumos_q, harmonic

    print("calibrating safety factors on held-out walks ...")
    cal_actual, cal_lumos, cal_q, cal_hm = [], [], [], []
    for run in range(3):
        a, l, q, h = predictions_for(fresh_walk(env, run, rng))
        cal_actual.append(a)
        cal_lumos.append(l)
        cal_q.append(q)
        cal_hm.append(h)
    cal_actual = np.concatenate(cal_actual)
    safety = {
        "lumos5g": calibrate(cal_actual, np.concatenate(cal_lumos)),
        "lumos5g-q10": calibrate(cal_actual, np.concatenate(cal_q)),
        "harmonic": calibrate(cal_actual, np.concatenate(cal_hm)),
    }
    print(f"  safety factors: {safety}")

    print("replaying fresh walks ...")
    results = {"lumos5g": [], "lumos5g-q10": [], "harmonic": []}
    for run in range(4):
        actual, lumos, lumos_q, harmonic = predictions_for(
            fresh_walk(env, 10 + run, rng)
        )
        results["lumos5g"].append(replay(actual, lumos, safety["lumos5g"]))
        results["lumos5g-q10"].append(
            replay(actual, lumos_q, safety["lumos5g-q10"])
        )
        results["harmonic"].append(replay(actual, harmonic,
                                          safety["harmonic"]))

    print(f"\n{'policy':12s} {'avg bitrate':>12s} {'stall seconds':>14s} "
          f"{'QoE':>8s}")
    summary = {}
    for name, runs in results.items():
        bitrate = float(np.mean([r[0] for r in runs]))
        stalls = float(np.mean([r[1] for r in runs]))
        qoe = float(np.mean([r[2] for r in runs]))
        summary[name] = qoe
        print(f"{name:12s} {bitrate:10.0f} M {stalls:14.1f} {qoe:8.0f}")
    winner = max(summary, key=summary.get)
    print(f"\nbest policy on fresh walks: {winner}")
    print("Lumos5G anticipates dead zones and handoff patches from "
          "context;\nthe harmonic mean only reacts after throughput has "
          "already collapsed.")


if __name__ == "__main__":
    main()
