"""CLI tests for ``repro serve``: exit codes, strict mode, wiring."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.ml.gbdt import GBDTRegressor
from repro.ml.serialize import model_to_json
from repro.serve import ModelRegistry


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(250, 3))
    y = 200 + 40 * X[:, 0] + rng.normal(0, 4, 250)
    return GBDTRegressor(n_estimators=8, max_depth=3,
                         random_state=0).fit(X, y), X


@pytest.fixture
def model_file(model, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(model_to_json(model[0]))
    return path


def _write_requests(tmp_path, X, extra_lines=()):
    path = tmp_path / "requests.jsonl"
    lines = [json.dumps({"id": i, "features": list(map(float, row))})
             for i, row in enumerate(X)]
    lines.extend(extra_lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def _responses(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestArgumentErrors:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--help"])
        assert excinfo.value.code == 0
        assert "--batch-size" in capsys.readouterr().out

    def test_no_model_source_exits_2(self, capsys):
        assert main(["serve"]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_both_model_sources_exit_2(self, tmp_path, model_file):
        assert main(["serve", "--model", str(model_file),
                     "--registry", str(tmp_path)]) == 2

    def test_registry_without_name_exits_2(self, tmp_path, capsys):
        assert main(["serve", "--registry", str(tmp_path)]) == 2
        assert "--name" in capsys.readouterr().err

    def test_missing_model_file_exits_2(self, tmp_path, capsys):
        assert main(["serve", "--model", str(tmp_path / "no.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_registry_model_exits_2(self, tmp_path, capsys):
        assert main(["serve", "--registry", str(tmp_path),
                     "--name", "ghost"]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_garbage_model_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "mystery"}')
        assert main(["serve", "--model", str(bad)]) == 2
        assert "cannot load model" in capsys.readouterr().err


class TestServing:
    def test_file_to_file_round_trip(self, tmp_path, model, model_file,
                                     capsys):
        est, X = model
        requests = _write_requests(tmp_path, X[:25])
        out = tmp_path / "responses.jsonl"
        code = main(["serve", "--model", str(model_file),
                     "--input", str(requests), "--output", str(out)])
        assert code == 0
        responses = _responses(out)
        assert [r["id"] for r in responses] == list(range(25))
        np.testing.assert_array_equal(
            np.asarray([r["prediction"] for r in responses]),
            est.predict(X[:25]),
        )
        assert "served 25 requests (0 malformed)" in capsys.readouterr().err

    def test_serves_from_registry(self, tmp_path, model):
        est, X = model
        ModelRegistry(tmp_path / "reg").save("airport-gdbt", est)
        requests = _write_requests(tmp_path, X[:5])
        out = tmp_path / "responses.jsonl"
        code = main(["serve", "--registry", str(tmp_path / "reg"),
                     "--name", "airport-gdbt",
                     "--input", str(requests), "--output", str(out)])
        assert code == 0
        assert len(_responses(out)) == 5

    def test_registry_version_pin(self, tmp_path, model):
        est, X = model
        reg = ModelRegistry(tmp_path / "reg")
        reg.save("m", est)
        reg.save("m", est)
        requests = _write_requests(tmp_path, X[:2])
        out = tmp_path / "r.jsonl"
        assert main(["serve", "--registry", str(tmp_path / "reg"),
                     "--name", "m", "--model-version", "1",
                     "--input", str(requests), "--output", str(out)]) == 0


class TestMalformedLines:
    def test_default_mode_answers_errors_and_exits_zero(
        self, tmp_path, model, model_file, capsys
    ):
        _, X = model
        requests = _write_requests(tmp_path, X[:3],
                                   extra_lines=["{not json"])
        out = tmp_path / "responses.jsonl"
        code = main(["serve", "--model", str(model_file),
                     "--input", str(requests), "--output", str(out)])
        assert code == 0  # malformed input is answered, not fatal
        responses = _responses(out)
        assert len(responses) == 4
        assert "error" in responses[3]
        assert "(1 malformed)" in capsys.readouterr().err

    def test_strict_mode_exits_1_on_malformed(self, tmp_path, model,
                                              model_file):
        _, X = model
        requests = _write_requests(tmp_path, X[:3],
                                   extra_lines=["{not json"])
        out = tmp_path / "responses.jsonl"
        code = main(["serve", "--model", str(model_file), "--strict",
                     "--input", str(requests), "--output", str(out)])
        assert code == 1
        assert len(_responses(out)) == 4  # still answers everything

    def test_strict_mode_clean_input_exits_zero(self, tmp_path, model,
                                                model_file):
        _, X = model
        requests = _write_requests(tmp_path, X[:3])
        out = tmp_path / "responses.jsonl"
        assert main(["serve", "--model", str(model_file), "--strict",
                     "--input", str(requests),
                     "--output", str(out)]) == 0


class TestObservability:
    def test_metrics_out_records_request_counters(self, tmp_path, model,
                                                  model_file, capsys):
        _, X = model
        requests = _write_requests(tmp_path, X[:12])
        out = tmp_path / "responses.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(["serve", "--model", str(model_file),
                     "--input", str(requests), "--output", str(out),
                     "--metrics-out", str(metrics)])
        assert code == 0
        payload = json.loads(metrics.read_text())
        counters = payload["metrics"]["counters"]
        assert counters["serve.requests_total"] == 12
        assert counters["serve.batches_total"] >= 1
        assert "serve.rows_per_s" in payload["metrics"]["gauges"]
        (root,) = payload["trace"]
        assert root["name"] == "serve"
        assert "serve.run" in [c["name"] for c in root["children"]]


class TestTelemetry:
    def test_summary_line_carries_telemetry_tail(self, tmp_path, model,
                                                 model_file, capsys):
        _, X = model
        requests = _write_requests(tmp_path, X[:10])
        out = tmp_path / "responses.jsonl"
        code = main(["serve", "--model", str(model_file),
                     "--input", str(requests), "--output", str(out)])
        assert code == 0
        summary = capsys.readouterr().err
        assert "window p99=" in summary and "p999=" in summary
        assert "slo ok" in summary
        assert "budget ok" in summary

    def test_no_telemetry_drops_the_tail(self, tmp_path, model,
                                         model_file, capsys):
        _, X = model
        requests = _write_requests(tmp_path, X[:10])
        out = tmp_path / "responses.jsonl"
        code = main(["serve", "--model", str(model_file),
                     "--no-telemetry",
                     "--input", str(requests), "--output", str(out)])
        assert code == 0
        summary = capsys.readouterr().err
        assert "window p99=" not in summary
        assert "slo" not in summary

    def test_metrics_out_includes_telemetry_section(self, tmp_path, model,
                                                    model_file, capsys):
        _, X = model
        requests = _write_requests(tmp_path, X[:10])
        out = tmp_path / "responses.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(["serve", "--model", str(model_file),
                     "--input", str(requests), "--output", str(out),
                     "--metrics-out", str(metrics)])
        assert code == 0
        telemetry = json.loads(metrics.read_text())["telemetry"]
        assert telemetry["totals"]["serve.requests_total"] == 10
        assert telemetry["totals"]["serve.ok_total"] == 10
        hist = telemetry["window"]["histograms"][
            "serve.request_latency_s"]
        assert hist["count"] == 10
        assert hist["p99"] >= 0.0 and hist["p999"] >= hist["p99"]
        slos = {s["name"]: s for s in
                telemetry["last_evaluation"]["slos"]}
        assert set(slos) == {"serve.latency_p99", "serve.latency_p999",
                             "serve.availability"}
        assert slos["serve.availability"]["value"] == 1.0
        assert not telemetry["last_evaluation"]["budget_burned"]

    def test_strict_exits_1_on_burned_budget(self, tmp_path, model,
                                             model_file, monkeypatch,
                                             capsys):
        """Both front doors exit 1 and write the SLO alert event."""
        from repro.resil import faults

        _, X = model
        requests = _write_requests(tmp_path, X[:8])
        # Every predict attempt faults: all requests fail, the
        # availability budget burns, --strict must report it.
        monkeypatch.setenv(faults.FAULTS_ENV, "serve.predict:1.0")
        for door, flags in (("service", []),
                            ("gateway", ["--gateway", "--shards", "1"])):
            out = tmp_path / f"responses-{door}.jsonl"
            events = tmp_path / f"events-{door}.jsonl"
            code = main(["serve", "--model", str(model_file), "--strict",
                         "--input", str(requests), "--output", str(out),
                         "--events-out", str(events), *flags])
            assert code == 1, door
            summary = capsys.readouterr().err
            assert "budget BURNED" in summary, door
            # every request still answered
            assert len(_responses(out)) == 8, door
            kinds = [json.loads(l)["event"]
                     for l in events.read_text().splitlines()]
            assert "slo_alert" in kinds, door

    def test_obs_report_renders_snapshot(self, tmp_path, model,
                                         model_file, capsys):
        _, X = model
        requests = _write_requests(tmp_path, X[:10])
        out = tmp_path / "responses.jsonl"
        metrics = tmp_path / "metrics.json"
        events = tmp_path / "events.jsonl"
        assert main(["serve", "--model", str(model_file),
                     "--input", str(requests), "--output", str(out),
                     "--metrics-out", str(metrics),
                     "--events-out", str(events)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", "--metrics", str(metrics),
                     "--events", str(events)]) == 0
        report = capsys.readouterr().out
        assert "telemetry report (serve)" in report
        assert "serve.request_latency_s" in report
        assert "serve.latency_p99" in report
        assert "error budget: within budget" in report

    def test_obs_report_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["obs", "report",
                     "--metrics", str(tmp_path / "no.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_responses_carry_trace_ids(self, tmp_path, model, model_file):
        _, X = model
        requests = _write_requests(
            tmp_path, X[:3],
            extra_lines=[json.dumps({
                "id": 99, "trace": "client-abc",
                "features": list(map(float, X[0])),
            })],
        )
        out = tmp_path / "responses.jsonl"
        assert main(["serve", "--model", str(model_file),
                     "--input", str(requests),
                     "--output", str(out)]) == 0
        responses = _responses(out)
        assert all(r.get("trace") for r in responses)
        assert responses[3]["trace"] == "client-abc"


class TestExpectView:
    """--expect-view: refuse to serve a model published against a
    different feature view (exit 1, also under --strict)."""

    @pytest.fixture()
    def stamped_registry(self, model, tmp_path):
        from repro.fstore import attach_view, combination_view

        view = combination_view("L+M", 5)
        est, _ = model
        attach_view(est, view)
        try:
            registry_dir = tmp_path / "registry"
            ModelRegistry(registry_dir).save("m", est)
        finally:
            del est.feature_view_  # module-scoped model: leave no stamp
        return registry_dir, view

    def _serve_args(self, tmp_path, registry_dir, X, *extra):
        requests = _write_requests(tmp_path, X[:3])
        return ["serve", "--registry", str(registry_dir), "--name", "m",
                "--input", str(requests),
                "--output", str(tmp_path / "out.jsonl"), *extra]

    def test_matching_view_serves(self, tmp_path, model,
                                  stamped_registry, capsys):
        registry_dir, view = stamped_registry
        args = self._serve_args(tmp_path, registry_dir, model[1],
                                "--expect-view", view.fingerprint())
        assert main(args) == 0
        assert "served 3 requests" in capsys.readouterr().err

    def test_mismatch_exits_1(self, tmp_path, model, stamped_registry,
                              capsys):
        registry_dir, _ = stamped_registry
        args = self._serve_args(tmp_path, registry_dir, model[1],
                                "--expect-view", "0" * 64)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "published against" in err and "L+M" in err
        # Nothing was served.
        assert not (tmp_path / "out.jsonl").exists()

    def test_mismatch_exits_1_under_strict(self, tmp_path, model,
                                           stamped_registry):
        registry_dir, _ = stamped_registry
        args = self._serve_args(tmp_path, registry_dir, model[1],
                                "--expect-view", "0" * 64, "--strict")
        assert main(args) == 1

    def test_model_file_mismatch_exits_1(self, tmp_path, model, capsys):
        from repro.fstore import attach_view, combination_view

        est, X = model
        attach_view(est, combination_view("L+M", 5))
        try:
            path = tmp_path / "stamped.json"
            path.write_text(model_to_json(est))
        finally:
            del est.feature_view_
        requests = _write_requests(tmp_path, X[:2])
        assert main(["serve", "--model", str(path),
                     "--input", str(requests),
                     "--output", str(tmp_path / "out.jsonl"),
                     "--expect-view", "f" * 64]) == 1
        assert "published against" in capsys.readouterr().err
