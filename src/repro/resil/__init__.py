"""``repro.resil`` -- resilience: faults, retries, breakers, checkpoints.

The layer that lets the campaign and the serving loop survive worker
crashes, corrupt artifacts and flaky model loads (docs/robustness.md has
the full guide):

* :mod:`repro.resil.faults` -- deterministic, seeded fault injection.
  ``REPRO_FAULTS="par.worker_crash:0.1,cache.corrupt:0.05"`` arms named
  seams across ``par``, ``serve``, ``sim`` and ``datasets``; the same
  seed always yields the same fault schedule, so chaos tests reproduce.
* :mod:`repro.resil.retry` -- :func:`retry` with capped exponential
  backoff and *seeded* jitter (identical schedule at any worker count),
  :class:`Deadline` budgets, and a :class:`CircuitBreaker` state
  machine.  All emit ``resil.*`` obs counters.
* :mod:`repro.resil.checkpoint` -- content-addressed per-pass
  checkpoint/resume for campaigns (``REPRO_CHECKPOINT_DIR``); resuming
  an interrupted run is bit-identical to an uninterrupted one.

Consumers: ``par.pmap`` (chunk retry + serial rescue), ``par.cache``
(corruption seam), ``serve`` (request deadlines, model-load retry with
quarantine + version fallback, service breaker) and ``sim.collection``
(per-pass checkpointing).  ``tools/lint.py`` (``resil.*``) keeps ad-hoc
``time.sleep`` retry loops and silent ``except Exception`` swallows out
of the rest of the library.
"""

from repro.resil.faults import (
    FAULTS_ENV,
    FAULTS_SEED_ENV,
    FaultError,
    FaultInjector,
    active_injector,
    configure,
    corrupt,
    inject,
    parse_spec,
    register_point,
    registered_points,
    unit_hash,
)
from repro.resil.retry import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    RetryExhausted,
    RetryPolicy,
    retry,
)
from repro.resil.checkpoint import CHECKPOINT_ENV, CheckpointStore, resolve_dir

__all__ = [
    "CHECKPOINT_ENV",
    "CheckpointStore",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "FAULTS_ENV",
    "FAULTS_SEED_ENV",
    "FaultError",
    "FaultInjector",
    "RetryExhausted",
    "RetryPolicy",
    "active_injector",
    "configure",
    "corrupt",
    "inject",
    "parse_spec",
    "register_point",
    "registered_points",
    "resolve_dir",
    "retry",
    "unit_hash",
]
