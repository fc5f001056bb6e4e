"""The gateway under open-loop load: ordered, complete, admission-true.

The satellite contract: a deterministic seeded arrival schedule drives
concurrent connections and every connection observes **zero dropped,
zero duplicated, zero reordered** responses -- at 1, 2 and 8 shards.
Plus the admission-control behavior (429-style sheds when the per-shard
window fills) and the TCP front.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from _gateway_helpers import (
    ScaledSumModel,
    SumModel,
    assert_no_drop_dup_reorder,
    conn_lines,
    drive,
)
from repro.gateway import AsyncGateway, GatewayConfig, steady


class TestOrderedDelivery:
    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_no_drop_dup_reorder(self, shards):
        # Wide admission window: this test is about delivery, not
        # shedding (TestAdmissionControl covers the tight-window path).
        responses, lines, stats = drive(
            SumModel(), shards=shards, n_conns=4, seed=11,
            config_kwargs={"queue_depth": 4096},
        )
        assert stats.requests == sum(len(c) for c in lines)
        assert stats.requests >= 100  # the schedule actually drove load
        assert_no_drop_dup_reorder(responses, lines)
        assert stats.errors == 0 and stats.failures == 0
        assert stats.shed == 0

    def test_predictions_verifiable_per_request(self):
        # Wide window, as above: a 429-style shed carries no prediction,
        # and whether one happens depends on host speed, not the code.
        responses, lines, _ = drive(SumModel(), shards=2, n_conns=3,
                                    seed=3,
                                    config_kwargs={"queue_depth": 4096})
        for conn_resp, conn_sent in zip(responses, lines):
            for r, line in zip(conn_resp, conn_sent):
                req = json.loads(line)
                want = float(np.sum(req["features"]))
                assert r["prediction"] == want
                assert r["model_version"] == 1
                assert "trace" in r

    @pytest.mark.slow
    def test_heavy_fanout_stays_ordered(self):
        responses, lines, stats = drive(
            SumModel(), shards=8, n_conns=8, rate_hz=20000.0,
            horizon_s=0.1, seed=29,
            config_kwargs={"queue_depth": 8192},
        )
        assert stats.requests > 5000
        assert_no_drop_dup_reorder(responses, lines)


class TestRouting:
    def test_same_key_always_same_shard(self):
        responses, _, _ = drive(SumModel(), shards=4, n_conns=4, seed=5)
        shard_of: dict[str, int] = {}
        checked = 0
        for conn_resp in responses:
            for r in conn_resp:
                key = f"ue-{int(r['id'].split('-')[-1]) % 7}"
                assert shard_of.setdefault(key, r["shard"]) == r["shard"]
                checked += 1
        assert checked > 100 and len(shard_of) == 7

    def test_load_spreads_over_shards(self):
        _, _, stats = drive(SumModel(), shards=4, n_conns=4, seed=5)
        submitted = [s["submitted"] for s in stats.per_shard]
        assert sum(1 for s in submitted if s > 0) >= 3


class TestBadRequests:
    def test_malformed_lines_answered_in_place(self):
        model = SumModel()
        lines = conn_lines(0, 6)
        lines.insert(2, "{not json")
        lines.insert(5, json.dumps({"id": "bad-arity",
                                    "features": [1.0, 2.0, 3.0]}))
        out = []

        class _Out:
            def write(self, text):
                out.append(json.loads(text))

        with AsyncGateway(model, config=GatewayConfig(
                shards=2, telemetry=False)) as gw:
            stats = gw.run_jsonl(lines, _Out())
        assert stats.requests == 8 and stats.errors == 2
        assert "invalid JSON" in out[2]["error"]
        assert "expected 2 features" in out[5]["error"]
        # well-formed neighbors still answered, still in order
        assert [r.get("id") for r in out] == \
            ["c0-0", "c0-1", None, "c0-2", "c0-3", "bad-arity",
             "c0-4", "c0-5"]


class _GatedSum(SumModel):
    """Blocks every predict until released -- fills the shard window."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def predict(self, X):
        self.entered.set()
        self.release.wait(timeout=10)
        return super().predict(X)


class TestAdmissionControl:
    def test_full_window_sheds_429_style(self):
        """queue_depth=2 and a wedged model: requests 0-1 admit, the
        rest shed with 429-style responses -- deterministically."""
        model = _GatedSum()
        lines = [json.dumps({"id": i, "key": "ue-0",
                             "features": [1.0, float(i)]})
                 for i in range(20)]
        collected = []

        class _Out:
            def write(self, text):
                collected.append(json.loads(text))

        def release_later():
            model.entered.wait(timeout=10)
            import time
            time.sleep(0.2)  # let the admission loop finish shedding
            model.release.set()

        helper = threading.Thread(target=release_later)
        helper.start()
        with AsyncGateway(model, config=GatewayConfig(
                shards=1, queue_depth=2, max_batch_size=1,
                max_wait_ms=0.0, telemetry=False)) as gw:
            stats = gw.run_jsonl(lines, _Out())
        helper.join()

        assert stats.shed == 18
        assert stats.failures == 0
        assert stats.failed_total == 18
        shed = [r for r in collected if r.get("status") == 429]
        assert len(shed) == 18
        assert all("queue full" in r["error"] for r in shed)
        served = [r for r in collected if "prediction" in r]
        assert [r["id"] for r in served] == [0, 1]
        assert stats.per_shard[0]["shed_queue"] == 18

    def test_sheds_tallied_per_shard(self):
        model = _GatedSum()
        lines = [json.dumps({"id": i, "key": f"ue-{i}",
                             "features": [1.0, 1.0]}) for i in range(30)]
        collected = []

        class _Out:
            def write(self, text):
                collected.append(json.loads(text))

        def release_later():
            model.entered.wait(timeout=10)
            import time
            time.sleep(0.2)
            model.release.set()

        helper = threading.Thread(target=release_later)
        helper.start()
        with AsyncGateway(model, config=GatewayConfig(
                shards=2, queue_depth=3, max_batch_size=1,
                max_wait_ms=0.0, telemetry=False)) as gw:
            stats = gw.run_jsonl(lines, _Out())
        helper.join()
        per_shard_shed = [s["shed_queue"] for s in stats.per_shard]
        assert sum(per_shard_shed) == stats.shed
        assert stats.shed > 0
        # every response still present and in input order
        assert len(collected) == 30
        assert [r["id"] for r in collected] == list(range(30))


class TestHotSwapStamping:
    def test_every_response_carries_its_admit_version(self):
        """Swap mid-load: each prediction matches exactly the model of
        the version stamped on it -- old or new, never a mixture."""
        old, new = SumModel(), ScaledSumModel(10.0)
        half = sum(len(steady(3000.0, 0.15, seed=17 + c))
                   for c in range(3)) // 2

        async def swap_mid_load(gateway):
            # Swap once half the schedule's requests are admitted, not at
            # a wall-clock time: a loader running behind schedule admits
            # its backlog without yielding, so a timed swap can land
            # after the last admission.
            admit = gateway._admit

            def admit_then_swap(line):
                if gateway.collect_stats().requests == half:
                    gateway.swap(new, 2)
                return admit(line)

            gateway._admit = admit_then_swap

        responses, lines, stats = drive(
            old, shards=2, n_conns=3, rate_hz=3000.0, horizon_s=0.15,
            seed=17, side=swap_mid_load,
            config_kwargs={"queue_depth": 4096},  # stamping, not shedding
        )
        assert stats.swaps == 1
        assert_no_drop_dup_reorder(responses, lines)
        versions = set()
        for conn_resp, conn_sent in zip(responses, lines):
            for r, line in zip(conn_resp, conn_sent):
                req = json.loads(line)
                base = float(np.sum(req["features"]))
                versions.add(r["model_version"])
                want = base if r["model_version"] == 1 else 10.0 * base
                assert r["prediction"] == want, (
                    f"torn response: {r} for {req}"
                )
        assert versions == {1, 2}  # the swap landed mid-stream


class TestTcpFront:
    def test_round_trip_over_a_real_socket(self):
        model = SumModel()
        lines = conn_lines(0, 12)

        async def main():
            with AsyncGateway(model, config=GatewayConfig(
                    shards=2, telemetry=False)) as gw:
                server = await gw.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write("".join(l + "\n" for l in lines).encode())
                writer.write_eof()
                await writer.drain()
                got = []
                while len(got) < len(lines):
                    raw = await asyncio.wait_for(reader.readline(),
                                                 timeout=10)
                    assert raw, "connection closed early"
                    got.append(json.loads(raw))
                writer.close()
                server.close()
                await server.wait_closed()
                return got

        got = asyncio.run(main())
        assert [r["id"] for r in got] == [f"c0-{i}" for i in range(12)]
        assert all("prediction" in r and "shard" in r for r in got)
