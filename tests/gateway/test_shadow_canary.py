"""Gateway shadow mirroring and canary routing (docs/continuous_learning.md).

Contracts under test:

* **shadow**: every admitted request is mirrored to the shadow shard;
  the client response always carries the *primary* model's prediction
  and version -- shadow output is comparison-only; the report is
  deterministic (keyed by admission order) and its diffs are exact;
* **canary**: the deterministic rendezvous slice (`in_canary`) routes
  a key subset to the canary shard; those responses carry the canary
  version; widening the fraction only ever *adds* keys;
* teardown: clear_shadow/clear_canary return the gateway to the
  pre-rollout single-version world.
"""

import io
import json

import numpy as np
import pytest

from repro.gateway import AsyncGateway, GatewayConfig
from repro.gateway.routing import in_canary
from repro.ml.gbdt import GBDTRegressor

from _gateway_helpers import ScaledSumModel, SumModel, conn_lines


def _mk(shards=2, **kw) -> AsyncGateway:
    kwargs = dict(shards=shards, telemetry=False)
    kwargs.update(kw)
    return AsyncGateway(SumModel(), version=1,
                        config=GatewayConfig(**kwargs))


def _serve(gateway, lines):
    out = io.StringIO()
    gateway.run_jsonl(iter(lines), out)
    return {r["id"]: r for r in map(json.loads, out.getvalue().splitlines())
            if "id" in r}


class TestShadowMirroring:
    def test_clients_only_ever_see_primary(self):
        lines = conn_lines(0, 40)
        with _mk() as gw:
            gw.set_shadow(ScaledSumModel(10.0), 2)
            responses = _serve(gw, lines)
        assert len(responses) == 40
        for i in range(40):
            resp = responses[f"c0-{i}"]
            assert resp["model_version"] == 1
            assert resp["prediction"] == pytest.approx(1.0 + i)

    def test_report_compares_every_admitted_request(self):
        lines = conn_lines(0, 40)
        with _mk() as gw:
            gw.set_shadow(ScaledSumModel(10.0), 2)
            _serve(gw, lines)
            report = gw.shadow_report()
        assert report["version"] == 2
        assert report["mirrored"] == 40
        assert report["compared"] == 40
        assert report["failures"] == 0
        # SumModel says a+b; the shadow says 10(a+b): diff = 9(a+b).
        by_id = {r["id"]: r for r in report["records"]}
        for i in range(40):
            rec = by_id[f"c0-{i}"]
            assert rec["shadow"] == pytest.approx(10.0 * rec["primary"])
        assert report["max_abs_diff"] == pytest.approx(9.0 * (1.0 + 39))

    def test_shadow_failures_counted_not_propagated(self):
        class BrokenModel(SumModel):
            def predict(self, X):
                raise RuntimeError("poisoned")

        lines = conn_lines(0, 20)
        with _mk() as gw:
            gw.set_shadow(BrokenModel(), 2)
            responses = _serve(gw, lines)
            report = gw.shadow_report()
        # Clients saw nothing; the report saw everything.
        assert len(responses) == 20
        assert all(r["model_version"] == 1 for r in responses.values())
        assert report["failures"] == 20
        assert report["compared"] == 0

    def test_clear_shadow_returns_final_report_and_detaches(self):
        lines = conn_lines(0, 10)
        with _mk() as gw:
            gw.set_shadow(ScaledSumModel(), 2)
            _serve(gw, lines)
            final = gw.clear_shadow()
            assert final["mirrored"] == 10
            with pytest.raises(RuntimeError, match="no shadow"):
                gw.shadow_report()
            after = _serve(gw, conn_lines(1, 5))
        assert len(after) == 5

    def test_replacing_shadow_resets_records(self):
        with _mk() as gw:
            gw.set_shadow(ScaledSumModel(2.0), 2)
            _serve(gw, conn_lines(0, 8))
            gw.set_shadow(ScaledSumModel(3.0), 3)
            _serve(gw, conn_lines(1, 6))
            report = gw.shadow_report()
        assert report["version"] == 3
        assert report["mirrored"] == 6


class TestCanaryRouting:
    def test_slice_serves_canary_version(self):
        lines = conn_lines(0, 60, n_keys=12)
        with _mk() as gw:
            gw.set_canary(ScaledSumModel(10.0), 2, fraction=0.5)
            responses = _serve(gw, lines)
        canary_ids = {rid for rid, r in responses.items()
                      if r["model_version"] == 2}
        control_ids = set(responses) - canary_ids
        assert canary_ids and control_ids
        for rid in canary_ids:
            i = int(rid.split("-")[1])
            assert responses[rid]["prediction"] == \
                pytest.approx(10.0 * (1.0 + i))
        for rid in control_ids:
            i = int(rid.split("-")[1])
            assert responses[rid]["prediction"] == pytest.approx(1.0 + i)

    def test_slice_matches_in_canary_exactly(self):
        seed = 11
        lines = conn_lines(0, 60, n_keys=12)
        with _mk(routing_seed=seed) as gw:
            gw.set_canary(ScaledSumModel(), 2, fraction=0.4)
            responses = _serve(gw, lines)
        for line in lines:
            req = json.loads(line)
            expect = in_canary(req["key"], 0.4, seed=seed)
            got = responses[req["id"]]["model_version"] == 2
            assert got == expect, req["key"]

    def test_widening_fraction_only_adds_keys(self):
        keys = [f"ue-{i}" for i in range(200)]
        narrow = {k for k in keys if in_canary(k, 0.2, seed=3)}
        wide = {k for k in keys if in_canary(k, 0.6, seed=3)}
        assert narrow <= wide
        assert len(narrow) < len(wide)

    def test_fraction_bounds(self):
        assert not in_canary("k", 0.0)
        assert in_canary("k", 1.0)
        with pytest.raises(ValueError):
            in_canary("k", 1.5)

    def test_canary_follows_fleet_backend(self):
        """Under the process backend the canary, which answers clients,
        gets the same worker-process isolation as the fleet."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 2))
        serving, candidate = (
            GBDTRegressor(n_estimators=4, max_depth=2,
                          random_state=0).fit(X, scale * X.sum(axis=1))
            for scale in (1.0, 10.0))
        lines = conn_lines(0, 8, n_keys=4)
        config = GatewayConfig(shards=1, backend="process", telemetry=False)
        with AsyncGateway(serving, version=1, config=config) as gw:
            gw.set_canary(candidate, 2, fraction=1.0)
            assert gw._canary.shard.backend == "process"
            responses = _serve(gw, lines)
        requests = [json.loads(line) for line in lines]
        want = candidate.predict(np.array([r["features"] for r in requests]))
        for req, pred in zip(requests, want):
            assert responses[req["id"]]["model_version"] == 2
            assert responses[req["id"]]["prediction"] == pred

    def test_clear_canary_restores_primary_everywhere(self):
        lines = conn_lines(0, 30, n_keys=10)
        with _mk() as gw:
            gw.set_canary(ScaledSumModel(), 2, fraction=0.9)
            gw.clear_canary()
            responses = _serve(gw, lines)
        assert all(r["model_version"] == 1 for r in responses.values())


class TestShadowPlusCanary:
    def test_both_active_mirror_and_split(self):
        """A full rollout moment: canary serves its slice, the shadow
        mirrors everything, clients never see shadow output."""
        lines = conn_lines(0, 40, n_keys=8)
        with _mk() as gw:
            gw.set_shadow(ScaledSumModel(5.0), 3)
            gw.set_canary(ScaledSumModel(10.0), 2, fraction=0.5)
            responses = _serve(gw, lines)
            report = gw.shadow_report()
        assert len(responses) == 40
        assert report["mirrored"] == 40
        versions = {r["model_version"] for r in responses.values()}
        assert versions <= {1, 2}
        assert all(
            rec["shadow"] != pytest.approx(rec["primary"])
            for rec in report["records"]
        )
