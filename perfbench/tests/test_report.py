"""Every workload reports exactly the metrics ``BENCHMARK.json`` lists."""

import json
import os

import pytest

from conftest import ROOT


def _manifest(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def _reported(run):
    return {k: v["unit"] for k, v in run.metrics.values.items()}


def _run(tmp_path, trace):
    import workloads

    return workloads.Run(1, 1.0, trace, str(tmp_path))


def _passes():
    import workloads

    return [workloads.Pass(1.0, None, False, [0.5, 0.25]),
            workloads.Pass(1.2, None, True, [0.6, 0.3])]


def test_untraced_report_fills_every_end_to_end_metric(tmp_path):
    import workloads

    run = _run(tmp_path, False)
    run.metrics.add("setup_s", 1.0, "s")          # from setups()
    run.metrics.add("peak_rss_mb", 80.0, "MB")    # from run.py
    workloads.report(run, _passes(), 300, 120.0, 0.9)
    assert _reported(run) == _manifest("end_to_end")
    assert run.metrics.values["wall_s"]["value"] == 0.75
    assert run.metrics.values["rows_per_s"]["value"] == 400.0


def test_traced_report_fills_every_per_layer_metric_even_unused(tmp_path):
    # A workload whose traced pass reached no layer still reports every
    # per-layer metric: self times and counts of 0.
    import workloads

    run = _run(tmp_path, True)
    run.metrics.add("sim.campaign_s", 1.0, "s")   # from setups()
    with run.recorder.span("unrelated"):
        pass
    run.traced_windows.append((0.0, 1e12))
    workloads.report(run, _passes(), 300, 120.0, 0.9)
    assert _reported(run) == _manifest("per_layer")
    assert run.metrics.values["ml.fit_s"]["value"] == 0.0
    assert run.metrics.values["trace.overhead_ratio"]["value"] == 1.2


def test_accuracy_scores_classes_and_skips_failed_requests():
    import workloads
    from harness import CheckFailed

    truth = [100.0, 500.0, 900.0, 200.0]
    pred = [150.0, 450.0, float("nan"), 400.0]  # last: low read as medium
    mae, f1 = workloads.accuracy(pred, truth)
    assert mae == pytest.approx((50 + 50 + 200) / 3)
    assert 0.0 < f1 < 1.0
    assert workloads.accuracy(truth, truth) == (0.0, 1.0)
    with pytest.raises(CheckFailed):
        workloads.accuracy([float("nan")], [1.0])
