"""Process-pool ``pmap`` with ordered results and obs metric merge-back.

``pmap(fn, items)`` maps a picklable, *pure* function over a task list on
a ``multiprocessing`` pool and returns results in input order; it is the
list of :func:`pmap_stream`, the one pool driver, which yields the same
results one at a time with bounded in-flight work.  This module is the
only place in the repo allowed to own a process pool
(``tools/lint.py`` rule ``par.raw-pool``).

Execution mode is an implementation detail, never a semantic one: task
functions must derive their randomness from the task item itself (see
:mod:`repro.par.seeding`), so serial and parallel runs are bit-identical.

Serial fallback happens when the resolved worker count is <= 1 (including
``REPRO_WORKERS=0``), when there is at most one task, when already inside
a ``pmap`` worker (no nested pools), or when ``fn`` cannot be pickled
(e.g. a lambda factory) -- the fallback is counted in
``par.serial_fallback_total`` so it never hides silently.

Worker-side telemetry: each worker starts from an empty metrics registry
(and the parent's enabled flag); per-chunk registry deltas travel back
with the results and are merged into the parent registry in chunk order,
so counters and histograms survive the process boundary.  Span traces
stay parent-side only.

Fault tolerance: a chunk whose worker raises is retried on the pool up
to ``_MAX_CHUNK_ATTEMPTS`` times, then rescued by re-executing its tasks
serially in the parent (with per-task retries).  Because every task
derives its randomness from the task item itself, a re-run is
bit-identical to the first attempt, so retries are invisible in the
results -- only in the ``resil.par.*`` counters.  The
``par.worker_crash`` fault-injection seam (:mod:`repro.resil.faults`)
fires here, keyed by ``(task index, attempt)`` so the schedule is
worker-count invariant and a retry re-rolls the decision.

Env knobs: ``REPRO_WORKERS`` (default worker count when the caller
passes ``None``; 0/1 = serial) and ``REPRO_MP_CONTEXT``
(``fork``/``spawn``/``forkserver``; default prefers ``fork`` where the
platform offers it, for start-up speed).  All task/worker functions here
are module-level, so every context -- including ``spawn`` -- works.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
from collections.abc import Callable, Iterable, Sequence

from repro import obs
from repro.resil import faults

__all__ = [
    "CONTEXT_ENV",
    "WORKERS_ENV",
    "default_context",
    "in_worker",
    "pmap",
    "pmap_stream",
    "resolve_workers",
]

WORKERS_ENV = "REPRO_WORKERS"
CONTEXT_ENV = "REPRO_MP_CONTEXT"
_WORKER_FLAG_ENV = "REPRO_PAR_IN_WORKER"

#: Chunks per worker; >1 smooths load imbalance between uneven tasks.
_CHUNKS_PER_WORKER = 4

#: Pool-side attempts per chunk before the parent rescues it serially.
_MAX_CHUNK_ATTEMPTS = 3

#: Per-task attempts on the serial path (fallback and rescue).
_MAX_TASK_ATTEMPTS = 3

faults.register_point(
    "par.worker_crash",
    "raise inside a pmap task before it runs (keyed by task index, attempt)",
)


def in_worker() -> bool:
    """True inside a ``pmap`` worker process (nested pmap goes serial)."""
    return os.environ.get(_WORKER_FLAG_ENV) == "1"


def default_context() -> str:
    """Start method: ``REPRO_MP_CONTEXT``, else fork if available."""
    explicit = os.environ.get(CONTEXT_ENV, "").strip()
    if explicit:
        return explicit
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: explicit arg, else ``REPRO_WORKERS``, else 1.

    Anything <= 1 (including ``REPRO_WORKERS=0``) means serial; inside a
    worker process the answer is always 1 so pools never nest.
    """
    if in_worker():
        return 1
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    return workers if workers > 1 else 1


def _worker_init(obs_enabled: bool) -> None:
    """Runs once per worker: mark the process and zero its registry.

    Under ``fork`` the child inherits a *copy* of the parent registry;
    resetting makes every returned delta count each event exactly once.
    """
    os.environ[_WORKER_FLAG_ENV] = "1"
    obs.set_enabled(obs_enabled)
    obs.get_registry().reset()


def _run_one(fn: Callable, item, index: int, attempt: int):
    """One task through the ``par.worker_crash`` fault seam."""
    faults.inject("par.worker_crash", key=(index, attempt))
    return fn(item)


def _run_task_with_retry(fn: Callable, item, index: int,
                         base_attempt: int = 0):
    """Run one task serially, retrying up to ``_MAX_TASK_ATTEMPTS`` times.

    Per-task seeding makes every re-run bit-identical, so retrying a
    transient failure (an injected fault, a flaky resource) cannot
    change results; a genuinely deterministic error still propagates
    after the last attempt.
    """
    for attempt in range(_MAX_TASK_ATTEMPTS):
        try:
            return _run_one(fn, item, index, base_attempt + attempt)
        except Exception:
            obs.inc("resil.par.task_failures_total")
            if attempt == _MAX_TASK_ATTEMPTS - 1:
                raise
            obs.inc("resil.par.task_retries_total")
    raise AssertionError("unreachable")  # pragma: no cover


class _ChunkRunner:
    """Picklable wrapper running one chunk and capturing the obs delta."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, chunk: tuple[int, int, Sequence]) -> tuple[list, dict]:
        start, attempt, items = chunk
        results = [
            _run_one(self.fn, item, start + i, attempt)
            for i, item in enumerate(items)
        ]
        registry = obs.get_registry()
        delta = registry.dump()
        registry.reset()
        return results, delta


def _chunked(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _picklable(fn: Callable) -> bool:
    try:
        pickle.dumps(fn)
        return True
    except Exception:
        obs.inc("par.unpicklable_probe_total")
        return False


def _rescue_chunk(fn: Callable, items: Sequence, start: int) -> tuple[list, dict]:
    """Re-execute an irrecoverable chunk serially in the parent.

    Runs after the pool already failed ``_MAX_CHUNK_ATTEMPTS`` times, so
    fault keys continue from that attempt number; the empty obs delta
    mirrors the worker protocol (parent-side metrics are already live).
    """
    obs.inc("resil.par.serial_rescues_total")
    results = [
        _run_task_with_retry(fn, item, start + i,
                             base_attempt=_MAX_CHUNK_ATTEMPTS)
        for i, item in enumerate(items)
    ]
    return results, {}


def pmap(
    fn: Callable,
    items: Iterable,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    context: str | None = None,
    label: str | None = None,
) -> list:
    """Map ``fn`` over ``items`` on a process pool; ordered results.

    ``fn`` must be pure and picklable (module-level function or
    ``functools.partial`` over one); its randomness must come from the
    task item (a seed or :class:`~numpy.random.SeedSequence`), never
    from shared state -- that is what makes results identical at any
    ``workers`` value.

    Parameters mirror the env knobs: ``workers=None`` defers to
    ``REPRO_WORKERS`` (serial when unset), ``context=None`` defers to
    ``REPRO_MP_CONTEXT``.  ``chunk_size`` only affects scheduling
    granularity, never results.  The pool, retries and rescue are
    :func:`pmap_stream`'s; this collects its whole stream.
    """
    return list(pmap_stream(fn, items, workers=workers,
                            chunk_size=chunk_size, context=context,
                            label=label))


#: Chunks kept in flight per worker by :func:`pmap_stream`.  Two keeps
#: every worker busy while the consumer drains the head of the line
#: without letting completed-but-unconsumed results pile up unbounded.
_STREAM_INFLIGHT_PER_WORKER = 2


def _stream_serial(fn: Callable, items: list):
    obs.inc("par.serial_fallback_total")
    for i, item in enumerate(items):
        obs.inc("par.tasks_total")
        yield _run_task_with_retry(fn, item, i)


def pmap_stream(
    fn: Callable,
    items: Iterable,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    context: str | None = None,
    label: str | None = None,
):
    """:func:`pmap` as a *generator* with bounded in-flight work.

    Results arrive in input order, yet at most
    ``workers * _STREAM_INFLIGHT_PER_WORKER`` chunks exist at once --
    submitted, running, or finished-but-unconsumed.  That is the
    property out-of-core consumers (``run_campaign(store_dir=...)``)
    need: the producer fans simulation out over the pool while the
    consumer appends each result to disk and drops it, so peak memory
    is set by the window, not the campaign.

    Per-task seeding keeps results bit-identical at any worker count,
    worker obs deltas merge back in chunk order (as each chunk is
    consumed), and a chunk that keeps failing on the pool is retried
    ``_MAX_CHUNK_ATTEMPTS`` times then rescued serially in the parent.
    The pool lives until the generator is exhausted or closed.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        return
    w = min(resolve_workers(workers), n)
    if w <= 1 or not _picklable(fn):
        if w > 1:
            obs.inc("par.pickle_fallback_total")
        yield from _stream_serial(fn, items)
        return

    if chunk_size is None:
        chunk_size = max(1, math.ceil(n / (w * _CHUNKS_PER_WORKER)))
    chunks = _chunked(items, chunk_size)
    starts = [i * chunk_size for i in range(len(chunks))]
    runner = _ChunkRunner(fn)
    window = w * _STREAM_INFLIGHT_PER_WORKER
    registry = obs.get_registry()
    merge = obs.enabled()
    name = label or getattr(fn, "__name__", type(fn).__name__)
    ctx = multiprocessing.get_context(context or default_context())
    with obs.span("par.pmap_stream", label=name, workers=w, tasks=n,
                  chunks=len(chunks)):
        with ctx.Pool(
            processes=w,
            initializer=_worker_init,
            initargs=(obs.enabled(),),
        ) as pool:
            pending: dict[int, object] = {}
            next_submit = 0
            for ci in range(len(chunks)):
                while next_submit < len(chunks) and \
                        next_submit < ci + window:
                    pending[next_submit] = pool.apply_async(
                        runner, ((starts[next_submit], 0,
                                  chunks[next_submit]),)
                    )
                    next_submit += 1
                result = None
                for attempt in range(1, _MAX_CHUNK_ATTEMPTS + 1):
                    try:
                        result = pending.pop(ci).get()
                        break
                    except Exception:
                        obs.inc("resil.par.chunk_failures_total")
                        if attempt == _MAX_CHUNK_ATTEMPTS:
                            break
                        obs.inc("resil.par.chunk_retries_total")
                        pending[ci] = pool.apply_async(
                            runner, ((starts[ci], attempt, chunks[ci]),)
                        )
                if result is None:
                    result = _rescue_chunk(fn, chunks[ci], starts[ci])
                chunk_results, delta = result
                if merge:
                    registry.merge(delta)
                obs.inc("par.tasks_total", len(chunk_results))
                yield from chunk_results
    obs.inc("par.parallel_runs_total")
    obs.set_gauge("par.last_workers", w)
