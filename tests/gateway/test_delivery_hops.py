"""Result delivery costs the event loop one thread hop per batch.

The shard batcher resolves a whole micro-batch of futures at once.  The
per-connection writer reads a future that is already resolved in place
and bridges only a pending one into the loop with
``asyncio.wrap_future`` -- each bridge is a cross-thread wake-up of the
loop.  A closed loop of N requests through one shard must therefore
bridge about once per predicted batch, not once per request.
"""

import asyncio
import json

import pytest

from _gateway_helpers import SumModel, conn_lines
from repro.gateway import AsyncGateway, GatewayConfig
from repro.gateway.gateway import _outcome

N_REQUESTS = 600
IN_FLIGHT = 48


class CountingSumModel(SumModel):
    """SumModel that counts its predict calls (one per batch)."""

    def __init__(self):
        self.batches = 0

    def predict(self, X):
        self.batches += 1
        return super().predict(X)


async def closed_loop(gateway, lines):
    """One connection holding ``IN_FLIGHT`` requests outstanding."""
    window = asyncio.Semaphore(IN_FLIGHT)
    responses = []

    async def requests():
        for line in lines:
            await window.acquire()
            yield line

    async def write(text):
        responses.append(json.loads(text))
        window.release()

    await gateway.handle_connection(requests(), write)
    return responses


def test_closed_loop_bridges_once_per_batch(monkeypatch):
    bridged = []
    real = asyncio.wrap_future

    def counting(fut, **kwargs):
        bridged.append(fut)
        return real(fut, **kwargs)

    monkeypatch.setattr(asyncio, "wrap_future", counting)
    model = CountingSumModel()
    lines = conn_lines(0, N_REQUESTS)
    gateway = AsyncGateway(model, config=GatewayConfig(
        shards=1, telemetry=False))
    try:
        responses = asyncio.run(closed_loop(gateway, lines))
    finally:
        gateway.close()
    assert [r["id"] for r in responses] == \
        [json.loads(line)["id"] for line in lines]
    assert all(r["prediction"] == 1.0 + i for i, r in enumerate(responses))
    assert model.batches >= N_REQUESTS // 32
    # One bridge per batch at most, plus slack for a batch whose futures
    # were still being resolved when the writer reached them.
    assert len(bridged) <= model.batches + 4, (len(bridged), model.batches)


def test_outcome_refuses_a_pending_future():
    from concurrent.futures import Future

    fut = Future()
    with pytest.raises(RuntimeError):
        _outcome(fut)
    fut.set_result(3.0)
    assert _outcome(fut) == 3.0
    failed = Future()
    failed.set_exception(ValueError("boom"))
    with pytest.raises(ValueError):
        _outcome(failed)
