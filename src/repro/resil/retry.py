"""Retry with capped exponential backoff, deadlines, circuit breakers.

Three primitives, all deterministic and all emitting ``repro.obs``
counters (docs/robustness.md has the full semantics):

* :func:`retry` + :class:`RetryPolicy` -- re-run a callable under a
  capped exponential backoff schedule whose jitter is *seeded*, not
  drawn from a global RNG: ``RetryPolicy(seed=s).schedule()`` is the
  same tuple in every process at any worker count, so retrying never
  perturbs the repo's determinism contract.  Exhaustion raises
  :class:`RetryExhausted` chained to the last error.
* :class:`Deadline` -- a monotonic-clock budget; ``check()`` raises
  :class:`DeadlineExceeded` once the budget is spent.  Serving uses it
  to bound per-request latency.
* :class:`CircuitBreaker` -- the classic closed -> open -> half-open
  state machine: ``failure_threshold`` consecutive failures open the
  circuit, ``allow()`` short-circuits callers while open, and after
  ``reset_timeout_s`` a limited number of half-open probes decide
  whether to close it again.

This module is the only place in ``src/repro/`` allowed to sleep in a
retry loop (lint rule ``resil.raw-sleep``); callers inject a
``sleep`` callable in tests so no test ever actually waits.
"""

from __future__ import annotations

import time
import threading
from collections.abc import Callable
from dataclasses import dataclass

from repro import obs
from repro.obs.telemetry.context import current_trace_id
from repro.resil.faults import unit_hash

_LOG = obs.get_logger("resil.retry")

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "RetryExhausted",
    "RetryPolicy",
    "retry",
]


# --------------------------------------------------------------------------- #
# Retry with deterministic backoff
# --------------------------------------------------------------------------- #


class RetryExhausted(RuntimeError):
    """Every attempt failed; ``last`` (== ``__cause__``) is the final error."""

    def __init__(self, label: str, attempts: int, last: BaseException):
        self.label = label
        self.attempts = attempts
        self.last = last
        super().__init__(
            f"{label or 'operation'} failed after {attempts} attempt(s): "
            f"{last!r}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded, deterministic jitter.

    Attempt ``k`` (1-based) failing sleeps ``delay_s(k)`` before attempt
    ``k + 1``: ``base_delay_s * multiplier**(k-1)`` capped at
    ``max_delay_s``, then scaled by a jitter factor in ``[1 - jitter,
    1 + jitter)`` derived by hashing ``(seed, k)`` -- the same schedule
    in every process, unlike ``random.random()`` jitter.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be within [0, 1)")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retrying after the ``attempt``-th failure."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.max_delay_s,
                  self.base_delay_s * self.multiplier ** (attempt - 1))
        if self.jitter > 0.0:
            u = unit_hash(self.seed, "retry.jitter", attempt)
            raw *= 1.0 + self.jitter * (2.0 * u - 1.0)
        return float(min(max(raw, 0.0), self.max_delay_s))

    def schedule(self) -> tuple[float, ...]:
        """Every backoff delay this policy can sleep, in order."""
        return tuple(self.delay_s(a) for a in range(1, self.max_attempts))


def retry(
    fn: Callable,
    *,
    policy: RetryPolicy | None = None,
    retry_on: tuple = (Exception,),
    label: str = "",
    sleep: Callable[[float], None] = time.sleep,
    deadline: "Deadline | None" = None,
) -> object:
    """Call ``fn()`` under ``policy``, retrying exceptions in ``retry_on``.

    Non-matching exceptions propagate immediately.  When the final
    attempt fails, :class:`RetryExhausted` is raised from the last
    error.  An optional :class:`Deadline` is checked before every
    attempt, converting a slow death into a prompt
    :class:`DeadlineExceeded`.
    """
    policy = policy or RetryPolicy()
    for attempt in range(1, policy.max_attempts + 1):
        if deadline is not None:
            deadline.check(label)
        try:
            result = fn()
        except retry_on as exc:
            obs.inc("resil.retry.failures_total")
            if attempt == policy.max_attempts:
                obs.inc("resil.retry.exhausted_total")
                _LOG.warning("retry exhausted",
                             trace_id=current_trace_id() or "-",
                             label=label or "-", attempts=attempt,
                             error=str(exc))
                raise RetryExhausted(label, attempt, exc) from exc
            obs.inc("resil.retry.retries_total")
            _LOG.debug("retrying after failure",
                       trace_id=current_trace_id() or "-",
                       label=label or "-", attempt=attempt,
                       error=str(exc))
            sleep(policy.delay_s(attempt))
            continue
        if attempt > 1:
            obs.inc("resil.retry.recoveries_total")
        return result
    raise AssertionError("unreachable")  # pragma: no cover


# --------------------------------------------------------------------------- #
# Deadlines
# --------------------------------------------------------------------------- #


class DeadlineExceeded(TimeoutError):
    """A time budget ran out (request deadline, retry deadline)."""


class Deadline:
    """A monotonic time budget: ``Deadline(0.5).check()`` for 500 ms."""

    __slots__ = ("seconds", "_clock", "_t0")

    def __init__(self, seconds: float,
                 clock: Callable[[], float] = time.monotonic):
        if seconds < 0:
            raise ValueError("deadline must be >= 0 seconds")
        self.seconds = float(seconds)
        self._clock = clock
        self._t0 = clock()

    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._t0

    @property
    def remaining_s(self) -> float:
        return self.seconds - self.elapsed_s

    @property
    def expired(self) -> bool:
        return self.remaining_s <= 0.0

    def check(self, label: str = "") -> None:
        """Raise :class:`DeadlineExceeded` once the budget is spent."""
        if self.expired:
            obs.inc("resil.deadline_exceeded_total")
            suffix = f" in {label}" if label else ""
            raise DeadlineExceeded(
                f"deadline of {self.seconds:.3f}s exceeded{suffix} "
                f"(elapsed {self.elapsed_s:.3f}s)"
            )


# --------------------------------------------------------------------------- #
# Circuit breaker
# --------------------------------------------------------------------------- #

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitOpenError(RuntimeError):
    """The breaker is open; the protected call was not attempted."""


class CircuitBreaker:
    """Closed -> open -> half-open failure isolation, thread-safe.

    ``failure_threshold`` *consecutive* failures trip the breaker open;
    while open, :meth:`allow` returns False (and counts a short
    circuit).  After ``reset_timeout_s`` the breaker turns half-open and
    admits up to ``half_open_max_calls`` probe calls: one success closes
    it (and resets the failure count), one failure re-opens it.  The
    clock is injectable so state transitions are unit-testable without
    sleeping.
    """

    def __init__(
        self,
        name: str = "",
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        half_open_max_calls: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be >= 0")
        if half_open_max_calls < 1:
            raise ValueError("half_open_max_calls must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.half_open_max_calls = half_open_max_calls
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._half_open_inflight = 0

    def _poll(self) -> None:
        """Open -> half-open once the reset timeout elapses (lock held)."""
        if self._state == OPEN and \
                self._clock() - self._opened_at >= self.reset_timeout_s:
            self._state = HALF_OPEN
            self._half_open_inflight = 0
            obs.inc("resil.breaker.half_opens_total")

    @property
    def state(self) -> str:
        with self._lock:
            self._poll()
            return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._failures

    def allow(self) -> bool:
        """Whether a protected call may proceed right now."""
        with self._lock:
            self._poll()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and \
                    self._half_open_inflight < self.half_open_max_calls:
                self._half_open_inflight += 1
                return True
        obs.inc("resil.breaker.short_circuits_total")
        return False

    def record_success(self) -> None:
        with self._lock:
            reopened = self._state != CLOSED
            self._state = CLOSED
            self._failures = 0
            self._half_open_inflight = 0
        if reopened:
            obs.inc("resil.breaker.closes_total")
            _LOG.info("circuit closed",
                      trace_id=current_trace_id() or "-",
                      breaker=self.name or "-")

    def record_failure(self) -> None:
        with self._lock:
            self._poll()
            self._failures += 1
            tripped = (
                self._state == HALF_OPEN
                or (self._state == CLOSED
                    and self._failures >= self.failure_threshold)
            )
            if tripped:
                self._state = OPEN
                self._opened_at = self._clock()
                self._half_open_inflight = 0
        if tripped:
            obs.inc("resil.breaker.opens_total")
            _LOG.warning("circuit opened",
                         trace_id=current_trace_id() or "-",
                         breaker=self.name or "-",
                         failures=self._failures)

    def call(self, fn: Callable) -> object:
        """Run ``fn()`` under the breaker; raise CircuitOpenError if open."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit {self.name or 'breaker'!s} is open"
            )
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result
