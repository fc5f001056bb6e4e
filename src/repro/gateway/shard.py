"""One predictor shard: admission control, breaker, hot-swap generations.

A :class:`PredictorShard` owns everything between "the gateway routed a
request here" and "a prediction came back":

* **Admission control** -- a bounded in-flight window (``queue_depth``).
  A submit that would exceed it raises :class:`ShedError` immediately;
  the gateway turns that into a 429-style response instead of letting
  queues grow without bound and every request's latency with them.
* **A per-shard circuit breaker** (:class:`repro.resil.retry.
  CircuitBreaker`, injectable clock).  Genuine prediction failures --
  crash-seam fires, dead worker processes, a poisoned model -- trip it;
  while open, submits shed without touching the executor, and the
  half-open probe re-admits traffic once the backend recovers.  Deadline
  expiries do *not* feed the breaker (they are a load symptom, not a
  backend fault).
* **Hot swap without torn responses** -- each ``(model, version)`` pair
  gets its own *generation*: a :class:`~repro.serve.batcher.
  BatchPredictor` whose predict closure is pinned to that version.
  :meth:`swap` installs the new generation atomically and drain-closes
  the old one in the background, so every in-flight row completes
  against exactly the model version stamped at submit time -- never a
  mixture, never a drop.

The model itself runs in an *executor* (``repro.gateway.procworker``):
in-process for the thread backend, a dedicated worker process for the
process backend.  Both fire the ``gateway.shard_crash`` fault seam with
the same ``(shard_index, seq)`` key, so chaos schedules are
backend-invariant.
"""

from __future__ import annotations

import threading
import time

from repro import obs
from repro.gateway.procworker import ProcessShardExecutor, ThreadShardExecutor
from repro.resil.retry import CircuitBreaker, DeadlineExceeded
from repro.serve.batcher import BatchPredictor

__all__ = ["PredictorShard", "ShedError"]

_LOG = obs.get_logger("gateway.shard")


class ShedError(RuntimeError):
    """The shard refused the request (full window or open breaker)."""

    def __init__(self, reason: str, shard: int):
        self.reason = reason
        self.shard = shard
        super().__init__(f"shard {shard} shed request: {reason}")


class _Generation:
    """One (version, micro-batcher) pair; swapped atomically as a unit."""

    __slots__ = ("version", "batcher")

    def __init__(self, version: int, batcher: BatchPredictor):
        self.version = version
        self.batcher = batcher


class PredictorShard:
    """A routed slice of the serving fleet, fronted by a micro-batcher."""

    def __init__(
        self,
        index: int,
        model,
        version: int = 1,
        *,
        backend: str = "thread",
        queue_depth: int = 64,
        max_batch_size: int = 32,
        max_wait_s: float = 0.001,
        deadline_s: float = 0.0,
        predict_attempts: int = 2,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 5.0,
        breaker_clock=time.monotonic,
        telemetry=None,
    ):
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown shard backend {backend!r}")
        self.index = index
        self.backend = backend
        self.queue_depth = queue_depth
        self._batch_kwargs = dict(
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            deadline_s=deadline_s,
            predict_attempts=predict_attempts,
            telemetry=telemetry,
        )
        if backend == "process":
            self.executor = ProcessShardExecutor(index)
        else:
            self.executor = ThreadShardExecutor(index)
        self.breaker = CircuitBreaker(
            name=f"gateway.shard{index}",
            failure_threshold=breaker_threshold,
            reset_timeout_s=breaker_reset_s,
            clock=breaker_clock,
        )
        self._lock = threading.Lock()
        #: Predict-call sequence shared across generations: the fault
        #: seam key stays monotonic through hot swaps.
        self._seq = 0
        self._inflight = 0
        self._drains: list[threading.Thread] = []
        #: Cumulative shard counters (read by GatewayStats.per_shard).
        self.submitted = 0
        self.completed = 0
        self.failures = 0
        self.shed_queue = 0
        self.shed_breaker = 0
        self.deadline_exceeded = 0
        self.swaps = 0
        self.executor.load(int(version), model)
        self._generation = _Generation(
            int(version), self._make_batcher(int(version))
        )

    # -- generations --------------------------------------------------------- #

    def _make_batcher(self, version: int) -> BatchPredictor:
        def predict(X):
            with self._lock:
                seq = self._seq
                self._seq += 1
            return self.executor.predict(version, X, seq)

        return BatchPredictor(predict, **self._batch_kwargs).start()

    @property
    def version(self) -> int:
        """The model version new submits are stamped with."""
        return self._generation.version

    @property
    def inflight(self) -> int:
        return self._inflight

    def swap(self, model, version: int) -> None:
        """Install ``(model, version)`` for new requests; drain the old.

        The executor learns the new version first, then the generation
        slot is exchanged under the lock -- a submit sees either the old
        generation (and completes against the old model) or the new one,
        never a half-installed state.  The outgoing batcher drain-closes
        on a background thread so in-flight futures resolve normally.
        """
        version = int(version)
        self.executor.load(version, model)
        new_gen = _Generation(version, self._make_batcher(version))
        with self._lock:
            old_gen = self._generation
            self._generation = new_gen
            self.swaps += 1
        obs.inc("gateway.swaps_total")
        _LOG.info("shard hot-swapped model", trace_id="-", shard=self.index,
                  old_version=old_gen.version, new_version=version)

        def drain():
            old_gen.batcher.close()  # waits for its queue to empty
            self.executor.unload(old_gen.version)

        t = threading.Thread(
            target=drain, name=f"gateway-shard{self.index}-drain",
            daemon=True,
        )
        t.start()
        self._drains.append(t)

    # -- submission ---------------------------------------------------------- #

    def submit(self, features, trace_id: str | None = None):
        """Admit one row; returns ``(future, stamped_version)``.

        Raises :class:`ShedError` when the in-flight window is full or
        the breaker is open -- the caller never blocks here, which is
        what keeps the gateway's event loop honest.
        """
        with self._lock:
            generation = self._generation
            if self._inflight >= self.queue_depth:
                self.shed_queue += 1
                obs.inc("gateway.shed_total")
                raise ShedError("queue full", self.index)
            if not self.breaker.allow():
                self.shed_breaker += 1
                obs.inc("gateway.shed_total")
                raise ShedError("circuit breaker open", self.index)
            self._inflight += 1
            self.submitted += 1
        try:
            fut = generation.batcher.submit(features, trace_id=trace_id)
        except Exception:
            with self._lock:
                self._inflight -= 1
                self.submitted -= 1
            raise
        fut.add_done_callback(self._settle)
        return fut, generation.version

    def _settle(self, fut) -> None:
        exc = fut.exception()
        with self._lock:
            self._inflight -= 1
            if exc is None:
                self.completed += 1
            elif isinstance(exc, DeadlineExceeded):
                self.deadline_exceeded += 1
            else:
                self.failures += 1
        # Breaker bookkeeping outside the shard lock (it has its own):
        # deadline expiry is load, not backend health -- skip it.
        if exc is None:
            self.breaker.record_success()
        elif not isinstance(exc, DeadlineExceeded):
            self.breaker.record_failure()
            obs.inc("gateway.shard_failures_total")

    def flush(self) -> None:
        """Wake the current generation's collector (end of a burst)."""
        self._generation.batcher.flush()

    # -- lifecycle ----------------------------------------------------------- #

    def close(self) -> None:
        self._generation.batcher.close()
        for t in self._drains:
            t.join(timeout=5.0)
        self.executor.close()

    def __enter__(self) -> "PredictorShard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        with self._lock:
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "failures": self.failures,
                "shed_queue": self.shed_queue,
                "shed_breaker": self.shed_breaker,
                "deadline_exceeded": self.deadline_exceeded,
                "swaps": self.swaps,
                "inflight": self._inflight,
                "version": self._generation.version,
                "breaker_state": self.breaker.state,
            }
