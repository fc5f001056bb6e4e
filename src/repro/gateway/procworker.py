"""Process-backed shard executors: one predictor process per shard.

The gateway's thread backend runs every shard's model inside the
gateway process -- fine for numpy models (predict releases the GIL) and
for tests, but a real deployment wants fault and memory isolation per
shard.  :class:`ProcessShardExecutor` gives each shard its own worker
process, talking over a ``multiprocessing`` pipe:

parent -> child   ``("load", version, payload)`` (a
                  ``repro.ml.serialize`` dict -- no pickle of model
                  objects crosses the boundary),
                  ``("predict", version, seq, rows)``, ``("stop",)``
child -> parent   ``("ok", version)``, ``("preds", rows)``,
                  ``("error", repr)``

The start method comes from :func:`repro.par.executor.default_context`
(``REPRO_MP_CONTEXT``), and the worker function is module-level so
``spawn`` works.  Models are cached in the child by version, so a hot
swap ships the new payload once and in-flight batches against the old
version keep predicting it -- the stamped version can never tear.

Crash semantics: the ``gateway.shard_crash`` fault seam fires *inside
the child* (``os._exit``), exactly like a segfaulting model server.
The parent sees a dead pipe, raises :class:`ShardCrashed` into the
shard's micro-batcher (failing that batch's requests and feeding the
shard breaker), and **respawns lazily**: the next predict restarts the
process and re-ships every model payload the executor knows, so a
half-open breaker probe finds a fresh worker to recover on.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import numpy as np

from repro import obs
from repro.ml.serialize import model_from_dict, model_to_dict
from repro.par.executor import default_context
from repro.resil import faults

__all__ = ["ProcessShardExecutor", "ShardCrashed", "ThreadShardExecutor"]

_LOG = obs.get_logger("gateway.procworker")

faults.register_point(
    "gateway.shard_crash",
    "kill/abort a predictor shard mid-batch (keyed by shard index, seq)",
)


class ShardCrashed(RuntimeError):
    """The shard's worker process died mid-request (pipe went dead)."""


class ThreadShardExecutor:
    """In-process executor: models by version, predicts on the caller.

    The default backend.  ``predict`` runs on the shard's micro-batcher
    thread; numpy-heavy models release the GIL there, so N shards really
    do overlap.  The ``gateway.shard_crash`` seam fires here as a raised
    :class:`~repro.resil.faults.FaultError` (a crash the breaker sees,
    without killing the host process).
    """

    def __init__(self, shard_index: int):
        self.shard_index = shard_index
        self._models: dict[int, object] = {}
        self._lock = threading.Lock()

    def load(self, version: int, model) -> None:
        with self._lock:
            self._models[int(version)] = model

    def unload(self, version: int) -> None:
        with self._lock:
            self._models.pop(int(version), None)

    def predict(self, version: int, X, seq: int):
        faults.inject("gateway.shard_crash", key=(self.shard_index, seq))
        with self._lock:
            model = self._models[int(version)]
        fn = getattr(model, "predict_proba", None) or model.predict
        return fn(np.asarray(X, dtype=float))

    def close(self) -> None:
        with self._lock:
            self._models.clear()


def _shard_worker_main(conn, shard_index: int, obs_enabled: bool) -> None:
    """The child process loop (module-level so ``spawn`` can import it)."""
    obs.set_enabled(obs_enabled)
    models: dict[int, object] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        kind = msg[0]
        if kind == "stop":
            conn.close()
            return
        if kind == "load":
            _, version, payload = msg
            try:
                models[int(version)] = model_from_dict(payload)
                conn.send(("ok", int(version)))
            except Exception as exc:
                obs.inc("gateway.worker_errors_total")
                conn.send(("error", repr(exc)))
            continue
        if kind == "predict":
            _, version, seq, rows = msg
            # The crash seam: decided by the child's own env-derived
            # injector with the same (shard, seq) key the thread backend
            # uses, so chaos schedules are backend-invariant.
            if faults.active_injector().should_fire(
                "gateway.shard_crash", key=(shard_index, int(seq))
            ):
                os._exit(17)
            try:
                model = models[int(version)]
                fn = getattr(model, "predict_proba", None) or model.predict
                preds = fn(np.asarray(rows, dtype=float))
                conn.send(("preds", np.asarray(preds).tolist()))
            except Exception as exc:
                obs.inc("gateway.worker_errors_total")
                conn.send(("error", repr(exc)))
            continue
        conn.send(("error", f"unknown message kind {kind!r}"))


class ProcessShardExecutor:
    """One worker process per shard, restarted lazily after a crash."""

    def __init__(self, shard_index: int):
        self.shard_index = shard_index
        self._ctx = multiprocessing.get_context(default_context())
        #: version -> serialized payload, re-shipped after a respawn.
        self._payloads: dict[int, dict] = {}
        self._lock = threading.Lock()
        self._proc: multiprocessing.process.BaseProcess | None = None
        self._conn = None
        self._shipped: set[int] = set()
        self._spawns = 0
        self.restarts = 0

    # -- process lifecycle (lock held by callers) ---------------------------- #

    def _alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def _spawn(self) -> None:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(child, self.shard_index, obs.enabled()),
            name=f"gateway-shard-{self.shard_index}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._proc, self._conn = proc, parent
        self._shipped = set()
        if self._spawns > 0:
            self.restarts += 1
            obs.inc("gateway.shard_restarts_total")
            _LOG.warning("shard worker respawned", trace_id="-",
                         shard=self.shard_index, restarts=self.restarts)
        self._spawns += 1

    def _reap(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        if self._proc is not None:
            self._proc.join(timeout=1.0)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=1.0)
        self._proc, self._conn = None, None

    def _ensure(self, version: int) -> None:
        """A live worker with ``version``'s model shipped (lock held)."""
        if not self._alive():
            self._reap()
            self._spawn()
        if version not in self._shipped:
            payload = self._payloads[version]
            self._conn.send(("load", version, payload))
            kind, detail = self._conn.recv()
            if kind != "ok":
                raise RuntimeError(
                    f"shard {self.shard_index} worker failed to load "
                    f"model v{version}: {detail}"
                )
            self._shipped.add(version)

    # -- executor API -------------------------------------------------------- #

    def load(self, version: int, model) -> None:
        """Register (and ship) a model version; called before it serves."""
        payload = model_to_dict(model)
        with self._lock:
            self._payloads[int(version)] = payload
            try:
                self._ensure(int(version))
            except (EOFError, OSError, BrokenPipeError):
                # The worker died during shipping; the next predict's
                # ensure() respawns and re-ships.
                self._reap()

    def unload(self, version: int) -> None:
        with self._lock:
            self._payloads.pop(int(version), None)
            self._shipped.discard(int(version))

    def predict(self, version: int, X, seq: int):
        rows = np.asarray(X, dtype=float).tolist()
        with self._lock:
            try:
                self._ensure(int(version))
                self._conn.send(("predict", int(version), int(seq), rows))
                msg = self._conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                self._reap()
                obs.inc("gateway.shard_crashes_total")
                raise ShardCrashed(
                    f"shard {self.shard_index} worker died mid-predict "
                    f"(seq={seq})"
                ) from exc
        kind, payload = msg
        if kind == "error":
            raise RuntimeError(
                f"shard {self.shard_index} worker predict failed: {payload}"
            )
        return np.asarray(payload, dtype=float)

    def close(self) -> None:
        with self._lock:
            if self._alive():
                try:
                    self._conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
            self._reap()
            self._payloads.clear()
