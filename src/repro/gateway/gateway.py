"""The asyncio front door: many connections, N shards, one event loop.

:class:`AsyncGateway` multiplexes concurrent JSONL client connections
over a fleet of :class:`~repro.gateway.shard.PredictorShard`\\ s:

* each request line is parsed once (the shared
  :class:`~repro.serve.protocol.RequestCodec`), routed by its UE/area
  key through rendezvous hashing (:func:`repro.gateway.routing.route`)
  so a given key always lands on the same shard,
* admission happens synchronously at submit time -- a full shard window
  or an open shard breaker sheds the request with a 429-style response
  *now* instead of queueing it into a latency grave,
* responses return **per connection in request order**: a writer task
  per connection settles each pending shard future in sequence and
  stamps ``shard``/``model_version``/``trace`` metadata onto the wire.
  A future the batcher already resolved is read directly
  (:func:`_outcome`); only an unresolved one is awaited through
  ``asyncio.wrap_future``, the bridge from the batcher's
  ``concurrent.futures`` world into the loop.  The batcher resolves a
  whole micro-batch at once, so a batch costs the loop about one
  cross-thread wake-up, not one per request,
* :meth:`AsyncGateway.swap` installs a new model version on every shard
  without dropping in-flight requests -- each response carries exactly
  the version it was admitted under (generation swap, never torn).

The event loop itself never blocks: parsing, routing and admission are
in-memory; prediction runs on shard batcher threads (or worker
processes); waiting is always an ``await``, and the one synchronous
future read refuses a future that is not resolved.  ``tools/lint.py``
enforces it (rule ``gateway.async-blocking``).

Entry points: :meth:`handle_connection` (one async line stream in,
ordered responses out -- the unit the tests drive),
:meth:`serve_tcp` (a real ``asyncio.start_server`` front), and
:meth:`run_jsonl` (sync wrapper matching
:meth:`~repro.serve.service.InferenceService.run_jsonl` for the CLI).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

from repro import obs
from repro.obs.telemetry import (
    AvailabilitySLO,
    LatencySLO,
    TelemetryPlane,
    baseline_of,
)
from repro.resil.retry import DeadlineExceeded
from repro.gateway.routing import in_canary, route
from repro.gateway.shard import PredictorShard, ShedError
from repro.serve.protocol import RequestCodec, routing_key

__all__ = ["AsyncGateway", "GatewayConfig", "GatewayStats", "run_open_loop"]

_LOG = obs.get_logger("gateway")

#: Straggler window for the shadow shard's micro-batcher.  Mirror
#: traffic has no latency SLO (comparisons settle at connection drain),
#: so a long window turns the mirror into large, infrequent batches --
#: the candidate steals far fewer scheduler slices from the serving
#: path, which is what holds mirroring's p99 overhead under 10% in
#: benchmarks/bench_rollout.py.
_SHADOW_MAX_WAIT_S = 0.025


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs of the sharded serving path (docs/serving.md)."""

    #: Shard fleet size and the per-shard in-flight admission window.
    shards: int = 4
    queue_depth: int = 64
    #: Micro-batching inside each shard (the straggler window is short:
    #: arrivals are already concurrent at the gateway).
    max_batch_size: int = 32
    max_wait_ms: float = 1.0
    #: Max milliseconds a request may spend queued in a shard before it
    #: fails with a deadline error (0 = unbounded).
    request_deadline_ms: float = 0.0
    predict_attempts: int = 2
    #: Per-shard breaker: consecutive backend failures that trip it, and
    #: how long it stays open before the half-open probe.
    breaker_threshold: int = 5
    breaker_reset_s: float = 5.0
    #: Rendezvous-hash seed (changing it reshuffles every key).
    routing_seed: int = 0
    #: ``"thread"`` (in-process models) or ``"process"`` (one worker
    #: process per shard; crash-isolated).
    backend: str = "thread"
    #: Windowed telemetry plane + the gateway SLOs it evaluates.
    telemetry: bool = True
    window_s: float = 60.0
    slow_window_s: float = 600.0
    latency_slo_p99_ms: float = 50.0
    latency_slo_p999_ms: float = 250.0
    availability_target: float = 0.999


@dataclass
class GatewayStats:
    """What the gateway did over one run / collection window."""

    requests: int = 0
    #: Malformed requests (bad JSON, wrong features) -- answered with
    #: error responses, never routed.
    errors: int = 0
    #: Requests refused at admission (full window or open breaker).
    shed: int = 0
    #: Requests that reached a shard backend and failed there.
    failures: int = 0
    #: Requests that expired queued inside a shard.
    deadline_exceeded: int = 0
    swaps: int = 0
    connections: int = 0
    wall_s: float = 0.0
    #: Per-shard counter dicts (``PredictorShard.stats()``).
    per_shard: list = field(default_factory=list)
    #: Final telemetry-plane snapshot; None when the plane is off.
    telemetry: dict | None = field(default=None, repr=False)

    @property
    def failed_total(self) -> int:
        return self.failures + self.shed + self.deadline_exceeded

    @property
    def rows_per_s(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def budget_burned(self) -> bool:
        """Whether the run's availability error budget was spent."""
        verdict = (self.telemetry or {}).get("last_evaluation") or {}
        return bool(verdict.get("budget_burned"))


def _outcome(fut):
    """The outcome of a resolved shard future: its result, or its raise.

    Synchronous on purpose -- the writer reads a future the batcher has
    already resolved without a trip through the event loop -- and safe
    for the loop only because it refuses a future that is still
    pending instead of blocking on it.
    """
    if not fut.done():
        raise RuntimeError("shard future is still pending")
    return fut.result()


async def _resolved(fut):
    """A shard future's outcome; only a pending one costs a loop hop."""
    if fut.done():
        return _outcome(fut)
    return await asyncio.wrap_future(fut)


class _ShadowState:
    """A shadow candidate: its shard, codec, and mirrored comparisons."""

    __slots__ = ("codec", "shard", "version", "seq", "records", "pending",
                 "failures", "shed")

    def __init__(self, codec: RequestCodec, shard: PredictorShard,
                 version: int):
        self.codec = codec
        self.shard = shard
        self.version = version
        #: Monotonic admit index; assigned on the event loop, so records
        #: keyed by it replay in one deterministic order.
        self.seq = 0
        self.records: dict[int, dict] = {}
        #: Mirrored (seq, req, ..., futures) awaiting settlement -- the
        #: admit path only appends here; comparisons run at drain time.
        self.pending: list = []
        self.failures = 0
        self.shed = 0


class _CanaryState:
    """A canary candidate serving a deterministic slice of keys."""

    __slots__ = ("codec", "shard", "version", "fraction")

    def __init__(self, codec: RequestCodec, shard: PredictorShard,
                 version: int, fraction: float):
        self.codec = codec
        self.shard = shard
        self.version = version
        self.fraction = fraction


class AsyncGateway:
    """Route, admit, shard, answer -- without blocking the event loop."""

    def __init__(self, model, version: int = 1,
                 config: GatewayConfig | None = None, *,
                 telemetry: TelemetryPlane | None = None,
                 breaker_clock=time.monotonic,
                 event_stream=None):
        self.config = config or GatewayConfig()
        if self.config.shards < 1:
            raise ValueError("shards must be >= 1")
        self.version = int(version)
        #: version -> codec; responses format through the codec of the
        #: version they were admitted under (a swap never tears them).
        self._codecs: dict[int, RequestCodec] = {
            self.version: RequestCodec(model)
        }
        #: The telemetry plane: the one passed in, else the config's
        #: default, whose SLO and drift events go to ``event_stream``.
        self.telemetry = telemetry
        if self.telemetry is None and self.config.telemetry:
            self.telemetry = TelemetryPlane(
                window_s=self.config.window_s,
                slow_window_s=self.config.slow_window_s,
                slos=self.default_slos(self.config),
                baseline=baseline_of(model),
                event_stream=event_stream,
            )
        self.shards = [
            PredictorShard(
                i, model, self.version,
                backend=self.config.backend,
                queue_depth=self.config.queue_depth,
                max_batch_size=self.config.max_batch_size,
                max_wait_s=self.config.max_wait_ms / 1000.0,
                deadline_s=self.config.request_deadline_ms / 1000.0,
                predict_attempts=self.config.predict_attempts,
                breaker_threshold=self.config.breaker_threshold,
                breaker_reset_s=self.config.breaker_reset_s,
                breaker_clock=breaker_clock,
                telemetry=self.telemetry,
            )
            for i in range(self.config.shards)
        ]
        self._requests = 0
        self._errors = 0
        self._shed = 0
        self._failures = 0
        self._deadline_exceeded = 0
        self._swaps = 0
        self._connections = 0
        self._closed = False
        self._shadow: _ShadowState | None = None
        self._canary: _CanaryState | None = None

    # -- lifecycle ----------------------------------------------------------- #

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            shard.close()
        if self._shadow is not None:
            self._shadow.shard.close()
            self._shadow = None
        if self._canary is not None:
            self._canary.shard.close()
            self._canary = None

    def __enter__(self) -> "AsyncGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def default_slos(config: "GatewayConfig") -> list:
        return [
            LatencySLO("gateway.latency_p99", "serve.request_latency_s",
                       0.99, config.latency_slo_p99_ms / 1000.0),
            LatencySLO("gateway.latency_p999", "serve.request_latency_s",
                       0.999, config.latency_slo_p999_ms / 1000.0),
            AvailabilitySLO("gateway.availability",
                            good="gateway.ok_total",
                            bad="gateway.failed_total",
                            target=config.availability_target),
        ]

    # -- hot swap ------------------------------------------------------------ #

    def swap(self, model, version: int) -> None:
        """Serve ``(model, version)`` for every *new* request.

        In-flight requests finish against the version they were admitted
        under; the codec table keeps every version's formatter alive, so
        a response is always rendered by the model that predicted it.
        """
        version = int(version)
        self._codecs[version] = RequestCodec(model)
        for shard in self.shards:
            shard.swap(model, version)
        old = self.version
        self.version = version
        self._swaps += 1
        obs.inc("gateway.model_swaps_total")
        if self.telemetry is not None:
            self.telemetry.inc("gateway.model_swaps_total")
        _LOG.info("gateway swapped model", trace_id="-", shard=-1,
                  old_version=old, new_version=version)

    def swap_latest(self, registry, name: str) -> int | None:
        """Hot-load the registry's serving version of ``name`` if changed.

        Honors the registry's serving pin when one is set (a rollback
        that re-pins an older version swaps the gateway *back*); without
        a pin the latest version wins as before.  Returns the new
        version number, or None when already current.
        """
        target = registry.resolve_serving(name)
        if target is None or int(target) == self.version:
            return None
        model = registry.load_resilient(name, int(target))
        self.swap(model, int(target))
        return int(target)

    # -- shadow / canary (the rollout controller drives these) ---------------- #

    def set_shadow(self, model, version: int) -> None:
        """Mirror admitted traffic to a candidate; never answer with it.

        The candidate gets its own single shard (the fleet's backend,
        its queue sized for the whole fleet's traffic) and every valid
        request is submitted there *in addition to* its primary shard.
        The admit path only enqueues the mirror and parks the future
        pair; comparisons settle in one batch at connection drain,
        keyed by a monotonic admit index -- so mirroring adds no
        client-visible await, no per-request task churn on the event
        loop, and the comparison set is deterministic
        (benchmarks/bench_rollout.py holds the p99 overhead under 10%).
        """
        if self._shadow is not None:
            self.clear_shadow()
        version = int(version)
        shard = PredictorShard(
            len(self.shards) + 1, model, version,
            backend=self.config.backend,
            queue_depth=self.config.queue_depth * len(self.shards),
            # The mirror batches big and slow: nobody waits on it.
            max_batch_size=self.config.max_batch_size * len(self.shards),
            max_wait_s=_SHADOW_MAX_WAIT_S,
            predict_attempts=self.config.predict_attempts,
            breaker_threshold=self.config.breaker_threshold,
            breaker_reset_s=self.config.breaker_reset_s,
        )
        self._shadow = _ShadowState(RequestCodec(model), shard, version)
        obs.inc("rollout.shadow_installs_total")
        if self.telemetry is not None:
            self.telemetry.inc("rollout.shadow_installs_total")
        _LOG.info("shadow candidate installed", trace_id="-",
                  shard=shard.index, version=version)

    def clear_shadow(self) -> dict | None:
        """Tear down the shadow shard; returns the final report."""
        state = self._shadow
        if state is None:
            return None
        report = self.shadow_report()
        self._shadow = None
        state.shard.close()
        _LOG.info("shadow candidate cleared", trace_id="-",
                  shard=state.shard.index, version=state.version)
        return report

    def shadow_report(self) -> dict:
        """Deterministic aggregate of the mirrored prediction pairs.

        Records iterate in admit order regardless of completion order,
        so reruns with the same request stream produce byte-identical
        reports (modulo none -- no wall-clock fields here).
        """
        state = self._shadow
        if state is None:
            raise RuntimeError("no shadow candidate installed")
        records = [state.records[k] for k in sorted(state.records)]
        pairs = [(r["primary"], r["shadow"]) for r in records
                 if r["primary"] is not None and r["shadow"] is not None]
        diffs = [abs(s - p) for p, s in pairs]
        return {
            "version": state.version,
            "mirrored": len(records),
            "compared": len(pairs),
            "failures": state.failures,
            "shed": state.shed,
            "mean_abs_diff": (sum(diffs) / len(diffs)) if diffs else None,
            "max_abs_diff": max(diffs) if diffs else None,
            "records": records,
        }

    def set_canary(self, model, version: int, fraction: float) -> None:
        """Serve a deterministic ``fraction`` of keys from the candidate.

        Membership is :func:`repro.gateway.routing.in_canary` on the
        request's routing key -- the same UEs are canaried on every
        replay.  Canary responses carry the candidate's
        ``model_version``, so clients (and the rollout guard) can tell
        which arm answered.
        """
        if self._canary is not None:
            self.clear_canary()
        version = int(version)
        fraction = float(fraction)
        if not 0.0 < fraction <= 1.0:
            raise ValueError("canary fraction must be in (0, 1]")
        codec = RequestCodec(model)
        shard = PredictorShard(
            len(self.shards), model, version,
            backend="thread",
            queue_depth=self.config.queue_depth * len(self.shards),
            max_batch_size=self.config.max_batch_size,
            max_wait_s=self.config.max_wait_ms / 1000.0,
            deadline_s=self.config.request_deadline_ms / 1000.0,
            predict_attempts=self.config.predict_attempts,
            breaker_threshold=self.config.breaker_threshold,
            breaker_reset_s=self.config.breaker_reset_s,
            telemetry=self.telemetry,
        )
        self._codecs[version] = codec
        self._canary = _CanaryState(codec, shard, version, fraction)
        obs.inc("rollout.canary_installs_total")
        if self.telemetry is not None:
            self.telemetry.inc("rollout.canary_installs_total")
        _LOG.info("canary candidate installed", trace_id="-",
                  shard=shard.index, version=version, fraction=fraction)

    def clear_canary(self) -> None:
        state = self._canary
        if state is None:
            return
        self._canary = None
        state.shard.close()
        _LOG.info("canary candidate cleared", trace_id="-",
                  shard=state.shard.index, version=state.version)

    # -- admission (synchronous; called from the event loop) ------------------ #

    def _admit(self, line: str):
        """Parse, route and submit one request line.

        Returns ``(req, pending, trace_id, shard_index, version)`` where
        ``pending`` is either a pre-formed response dict (bad request /
        shed) or the shard future the writer will await.
        """
        codec = self._codecs[self.version]
        req, features = codec.parse_request(line)
        tid = codec.trace_of(req)
        self._requests += 1
        if self.telemetry is not None:
            self.telemetry.inc("gateway.requests_total")
        if features is None:
            self._errors += 1
            obs.inc("gateway.bad_requests_total")
            response = codec.error_response(req)
            return req, response, tid, -1, self.version
        key = routing_key(req, tid)
        canary = self._canary
        if canary is not None and in_canary(key, canary.fraction,
                                            seed=self.config.routing_seed):
            shard, shard_index = canary.shard, canary.shard.index
            if self.telemetry is not None:
                self.telemetry.inc("rollout.canary_requests_total")
        else:
            shard_index = route(key, len(self.shards),
                                seed=self.config.routing_seed)
            shard = self.shards[shard_index]
        try:
            fut, version = shard.submit(features, trace_id=tid)
        except ShedError as exc:
            self._shed += 1
            if self.telemetry is not None:
                self.telemetry.inc("gateway.shed_total")
                self.telemetry.inc("gateway.failed_total")
            _LOG.warning("request shed at admission", trace_id=tid,
                         shard=shard_index, reason=exc.reason)
            response = codec.attach_id(
                {"error": f"service unavailable: {exc.reason}",
                 "status": 429},
                req,
            )
            return req, response, tid, shard_index, self.version
        self._mirror_shadow(req, key, tid, features, fut, version)
        return req, fut, tid, shard_index, version

    def _mirror_shadow(self, req, key, tid, features, primary_fut,
                       version) -> None:
        """Submit one admitted request to the shadow shard (if any).

        Called on the event loop; the hot path does nothing but enqueue
        the mirror and park the future pair -- no task creation, no
        await.  :meth:`_settle_shadow` folds the parked pairs into
        records once the connection drains.
        """
        shadow = self._shadow
        if shadow is None:
            return
        seq = shadow.seq
        shadow.seq += 1
        try:
            shadow_fut, _ = shadow.shard.submit(features, trace_id=tid)
        except ShedError:
            shadow.shed += 1
            if self.telemetry is not None:
                self.telemetry.inc("rollout.shadow_shed_total")
            return
        shadow.pending.append(
            (seq, req, key, tid, primary_fut, version, shadow_fut))

    async def _settle_shadow(self, shadow) -> None:
        """Record every parked (primary, shadow) pair, off the hot path."""
        pending, shadow.pending = shadow.pending, []
        for seq, req, key, tid, primary_fut, version, shadow_fut in pending:
            shadow_val = None
            failed = False
            try:
                result = await _resolved(shadow_fut)
            except Exception as exc:
                failed = True
                shadow.failures += 1
                obs.inc("rollout.shadow_failures_total")
                if self.telemetry is not None:
                    self.telemetry.inc("rollout.shadow_failures_total")
                _LOG.warning("shadow prediction failed", trace_id=tid,
                             shard=shadow.shard.index, error=str(exc))
            else:
                shadow_val = float(shadow.codec.drift_value(result))
            primary_val = None
            try:
                p_result = await _resolved(primary_fut)
            except Exception:
                # The serving-path settlement already failed this
                # request for the client; here it only means no pair.
                obs.inc("rollout.shadow_uncompared_total")
            else:
                primary_val = float(
                    self._codecs[version].drift_value(p_result))
            if primary_val is not None and shadow_val is not None:
                if self.telemetry is not None:
                    self.telemetry.inc("rollout.shadow_compared_total")
                    self.telemetry.observe("rollout.shadow_diff",
                                           abs(shadow_val - primary_val))
            shadow.records[seq] = {
                "id": req.get("id") if isinstance(req, dict) else None,
                "key": key,
                "primary": primary_val,
                "shadow": shadow_val,
                "failed": failed,
            }

    async def _settle(self, entry) -> dict:
        """One response dict for one admitted entry.

        A resolved future is read in place; a pending one is awaited.
        """
        req, pending, tid, shard_index, version = entry
        if isinstance(pending, dict):
            response = pending
        else:
            codec = self._codecs[version]
            try:
                result = await _resolved(pending)
            except DeadlineExceeded as exc:
                self._deadline_exceeded += 1
                if self.telemetry is not None:
                    self.telemetry.inc("gateway.deadline_exceeded_total")
                    self.telemetry.inc("gateway.failed_total")
                _LOG.warning("request deadline exceeded", trace_id=tid,
                             shard=shard_index, error=str(exc))
                response = codec.attach_id(
                    {"error": f"deadline exceeded: {exc}"}, req)
            except Exception as exc:
                self._failures += 1
                obs.inc("gateway.request_failures_total")
                if self.telemetry is not None:
                    self.telemetry.inc("gateway.failed_total")
                _LOG.warning("request failed", trace_id=tid,
                             shard=shard_index, error=str(exc))
                response = codec.attach_id(
                    {"error": f"prediction failed: {exc}"}, req)
            else:
                if self.telemetry is not None:
                    self.telemetry.inc("gateway.ok_total")
                    self.telemetry.observe_drift(codec.drift_value(result))
                response = codec.format_response(req, result)
                response["model_version"] = version
        if shard_index >= 0:
            response["shard"] = shard_index
        response["trace"] = tid
        if self.telemetry is not None:
            self.telemetry.maybe_evaluate()
        return response

    # -- connections --------------------------------------------------------- #

    async def handle_connection(self, lines, write) -> None:
        """Serve one connection: async line stream in, ordered lines out.

        ``lines`` is an async iterator of raw request lines; ``write``
        is an async callable receiving each response line (newline
        included).  Responses come back in request order -- a per-
        connection writer task settles pending futures in sequence, so
        slow rows on one connection never reorder (or block) another
        connection's stream.  The writer drains every already-resolved
        response without yielding to the loop -- at most one admission
        window per shard it uses -- and yields at the first pending
        future.
        """
        self._connections += 1
        if self.telemetry is not None:
            self.telemetry.inc("gateway.connections_total")
        pending: asyncio.Queue = asyncio.Queue()

        async def writer():
            while True:
                entry = await pending.get()
                if entry is None:
                    return
                response = await self._settle(entry)
                await write(json.dumps(response) + "\n")

        writer_task = asyncio.ensure_future(writer())
        touched: set[int] = set()
        canary_touched = False
        try:
            async for line in lines:
                if not line.strip():
                    continue
                entry = self._admit(line)
                if entry[3] >= 0 and not isinstance(entry[1], dict):
                    if entry[3] < len(self.shards):
                        touched.add(entry[3])
                    else:
                        canary_touched = True
                await pending.put(entry)
        finally:
            # End of input: wake every touched shard's collector so tail
            # batches predict now, then let the writer drain in order.
            for shard_index in touched:
                self.shards[shard_index].flush()
            canary = self._canary
            if canary_touched and canary is not None:
                canary.shard.flush()
            shadow = self._shadow
            if shadow is not None:
                shadow.shard.flush()
            await pending.put(None)
            await writer_task
            # Shadow comparisons are off the response path; settle them
            # before the connection reports done so shadow_report() is
            # complete and deterministic.
            if shadow is not None and shadow.pending:
                await self._settle_shadow(shadow)

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """One TCP client (the ``serve_tcp`` connection callback)."""

        async def lines():
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                yield raw.decode("utf-8", errors="replace")

        async def write(text: str):
            writer.write(text.encode())
            await writer.drain()

        try:
            await self.handle_connection(lines(), write)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """A listening ``asyncio`` server speaking the JSONL protocol."""
        server = await asyncio.start_server(self._handle_client, host, port)
        addr = server.sockets[0].getsockname()
        _LOG.info("gateway listening", trace_id="-", shard=-1,
                  host=addr[0], port=addr[1],
                  shards=len(self.shards))
        return server

    # -- sync entry point (CLI parity with InferenceService.run_jsonl) -------- #

    def run_jsonl(self, lines, out) -> GatewayStats:
        """Serve every line of ``lines`` as one connection; write to ``out``.

        The sync wrapper the CLI uses: same signature and summary shape
        as :meth:`InferenceService.run_jsonl`, but requests fan out over
        the shard fleet.
        """
        t0 = time.perf_counter()

        async def main():
            async def line_stream():
                for line in lines:
                    yield line

            async def write(text: str):
                out.write(text)

            await self.handle_connection(line_stream(), write)

        asyncio.run(main())
        return self.collect_stats(wall_s=time.perf_counter() - t0)

    def collect_stats(self, wall_s: float = 0.0) -> GatewayStats:
        stats = GatewayStats(
            requests=self._requests,
            errors=self._errors,
            shed=self._shed,
            failures=self._failures,
            deadline_exceeded=self._deadline_exceeded,
            swaps=self._swaps,
            connections=self._connections,
            wall_s=wall_s,
            per_shard=[shard.stats() for shard in self.shards],
        )
        if self.telemetry is not None:
            self.telemetry.evaluate()
            stats.telemetry = self.telemetry.snapshot()
        return stats


async def run_open_loop(gateway: AsyncGateway, streams) -> list[list[dict]]:
    """Drive concurrent open-loop connections; per-connection responses.

    ``streams`` is a list of :class:`~repro.gateway.loadgen.
    ScheduledRequests` (or any async iterable yielding ``(t_due,
    line)`` pairs -- each stream owns its replay ``time_scale``), one
    per simulated connection.  Every connection runs
    concurrently on the loop; responses come back parsed, in request
    order per connection.  The harness under ``tests/gateway/`` and
    ``benchmarks/bench_gateway.py`` both drive the gateway through here.
    """

    async def one(stream) -> list[dict]:
        responses: list[dict] = []

        async def lines():
            async for _, line in stream:
                yield line

        async def write(text: str):
            responses.append(json.loads(text))

        await gateway.handle_connection(lines(), write)
        return responses

    return list(await asyncio.gather(*(one(s) for s in streams)))
