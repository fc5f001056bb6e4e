"""On-disk model registry: named, versioned, JSON-serialized models.

Layout (one directory per model name, one file per version)::

    <root>/
      airport-tm-gdbt/
        v00001.json
        v00002.json
      global-lm-rf/
        v00001.json

Payloads are ``repro.ml.serialize.model_to_dict`` dicts, so anything the
serializer speaks -- GBDT, random forests, scalers, prediction pipelines
-- can be published and loaded without pickle.  Writes go through a temp
file + ``os.replace`` so a crash never leaves a half-written version,
and a bounded LRU keeps recently used models deserialized in memory.

Resilience (docs/robustness.md): a truncated or garbled version file
raises a typed :class:`RegistryError` naming the path instead of a raw
``json.JSONDecodeError``; :meth:`ModelRegistry.load_resilient` retries
transient load failures under a seeded backoff policy, **quarantines**
corrupt version files (renamed to ``*.corrupt``, which the version
catalog skips) and falls back to the newest remaining good version,
all guarded by a per-model-name :class:`~repro.resil.retry.CircuitBreaker`
that short-circuits to the last good in-memory model once loads keep
failing.  The ``serve.model_load`` fault seam lives on the load path.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import threading
import time
from collections import OrderedDict

from repro import obs
from repro.ml.serialize import model_from_dict, model_to_dict
from repro.obs.telemetry import current_trace_id
from repro.resil import faults
from repro.resil.faults import FaultError
from repro.resil.retry import (
    CircuitBreaker,
    CircuitOpenError,
    RetryExhausted,
    RetryPolicy,
    retry,
)

_LOG = obs.get_logger("serve.registry")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._+-]*$")
_VERSION_RE = re.compile(r"^v(\d{5})\.json$")

#: Suffix a quarantined (corrupt) version file is renamed with.
CORRUPT_SUFFIX = ".corrupt"

#: Suffix a rejected rollout candidate is renamed with.  Like
#: ``*.corrupt`` it drops out of the version catalog immediately but
#: stays on disk for a post-mortem.
REJECTED_SUFFIX = ".rejected"

#: Per-name rollout state file: the serving pin plus shadow/canary
#: markers.  Written only via ``ModelRegistry._write_rollout_state``
#: (temp file + ``os.replace``; lint rule rollout.state-writer
#: enforces it), so every registry transition is atomic.
ROLLOUT_STATE_FILE = "serving.json"

#: Default backoff for load_resilient: fast, bounded, deterministic.
DEFAULT_LOAD_POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.02,
                                  max_delay_s=0.25, seed=0)

faults.register_point(
    "serve.model_load",
    "raise while deserializing a registry model (keyed by name, version)",
)


class ModelNotFound(KeyError):
    """Unknown model name or version."""


class RegistryError(RuntimeError):
    """A version file exists but cannot be parsed; ``path`` names it."""

    def __init__(self, message: str, path: str | os.PathLike | None = None):
        super().__init__(message)
        self.path = pathlib.Path(path) if path is not None else None


class ServingPinError(RegistryError):
    """The pinned serving version is missing from the catalog.

    Raised when a ``serving`` pointer names a version that has been
    deleted, quarantined, or rejected: serving "whatever is newest"
    instead would silently undo a rollback, so resolution fails loudly.
    """


class FeatureViewMismatch(RegistryError):
    """The loaded model's feature-view stamp is not the expected one.

    Raised by :meth:`ModelRegistry.load` / ``load_resilient`` when
    ``expect_view`` is given and the model was published against a
    different (or no) feature view: serving it would feed features the
    model never saw.  Unlike payload corruption this is a deployment
    error -- the file is *not* quarantined and no older version is
    tried, because every version under the name is suspect.
    """

    def __init__(self, message: str, *, expected: str | None = None,
                 actual: str | None = None,
                 path: str | os.PathLike | None = None):
        super().__init__(message, path=path)
        self.expected = expected
        self.actual = actual


def _expected_fingerprint(expect_view) -> str:
    """Normalize ``expect_view`` to a fingerprint hex string.

    Accepts a raw fingerprint string, a ``repro.fstore.FeatureView``,
    or an ``attach_view``-style stamp dict with a ``"fingerprint"`` key.
    """
    if isinstance(expect_view, str):
        return expect_view
    fp = getattr(expect_view, "fingerprint", None)
    if callable(fp):
        return fp()
    if isinstance(expect_view, dict) and "fingerprint" in expect_view:
        return str(expect_view["fingerprint"])
    raise TypeError(
        "expect_view must be a fingerprint string, a FeatureView or a "
        f"feature_view_ stamp dict; got {type(expect_view).__name__}"
    )


class ModelRegistry:
    """Load/save versioned models under one root directory."""

    def __init__(self, root: str | os.PathLike, max_loaded: int = 8):
        if max_loaded < 1:
            raise ValueError("max_loaded must be >= 1")
        self.root = pathlib.Path(root)
        self.max_loaded = max_loaded
        self._lock = threading.Lock()
        self._loaded: OrderedDict[tuple[str, int], object] = OrderedDict()
        #: Newest successfully loaded (version, model) per name -- what a
        #: tripped breaker falls back to without touching the disk.
        self._last_good: dict[str, tuple[int, object]] = {}
        self._breakers: dict[str, CircuitBreaker] = {}

    # -- paths -------------------------------------------------------------- #

    def _model_dir(self, name: str) -> pathlib.Path:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid model name {name!r}; use letters, digits, "
                "'.', '_', '+', '-'"
            )
        return self.root / name

    def path(self, name: str, version: int) -> pathlib.Path:
        return self._model_dir(name) / f"v{int(version):05d}.json"

    # -- catalog ------------------------------------------------------------ #

    def names(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and _NAME_RE.match(p.name)
        )

    def versions(self, name: str) -> list[int]:
        """Catalogued version numbers, ascending.

        Anything that is not exactly a ``vNNNNN.json`` regular file --
        temp files, quarantined ``*.json.corrupt`` entries, non-numeric
        names, stray directories -- is skipped, never an error.
        """
        d = self._model_dir(name)
        if not d.is_dir():
            return []
        out = []
        for p in d.iterdir():
            m = _VERSION_RE.match(p.name)
            if m and p.is_file():
                out.append(int(m.group(1)))
        return sorted(out)

    def latest_version(self, name: str) -> int | None:
        versions = self.versions(name)
        return versions[-1] if versions else None

    def latest(self, name: str) -> int | None:
        """Alias of :meth:`latest_version` (same skip-junk guarantees)."""
        return self.latest_version(name)

    # -- rollout state: serving pin, shadow, canary -------------------------- #

    def _write_rollout_state(self, name: str, state: dict) -> None:
        """The single (atomic) writer of the serving-pointer file."""
        d = self._model_dir(name)
        d.mkdir(parents=True, exist_ok=True)
        target = d / ROLLOUT_STATE_FILE
        tmp = target.with_name(target.name + ".tmp")
        try:
            tmp.write_text(json.dumps(state, sort_keys=True) + "\n")
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
        obs.inc("serve.registry.rollout_state_writes_total")

    def rollout_state(self, name: str) -> dict:
        """The name's rollout state dict (``{}`` when never written)."""
        target = self._model_dir(name) / ROLLOUT_STATE_FILE
        try:
            return json.loads(target.read_text())
        except FileNotFoundError:
            return {}
        except json.JSONDecodeError as exc:
            raise RegistryError(
                f"corrupt rollout state at {target}: {exc}", path=target
            ) from exc

    def _update_rollout_state(self, name: str, **changes) -> dict:
        """Read-modify-write one atomic state transition (None deletes)."""
        with self._lock:
            state = self.rollout_state(name)
            for key, value in changes.items():
                if value is None:
                    state.pop(key, None)
                else:
                    state[key] = value
            self._write_rollout_state(name, state)
        return state

    def pin_serving(self, name: str, version: int) -> None:
        """Pin the version :meth:`load` / ``load_resilient`` default to."""
        version = int(version)
        if version not in self.versions(name):
            raise ModelNotFound(
                f"cannot pin model {name!r} to missing version {version}"
            )
        self._update_rollout_state(name, serving=version)
        obs.inc("serve.registry.pins_total")
        _LOG.info("serving version pinned",
                  trace_id=current_trace_id() or "-",
                  model=name, version=version)

    def unpin_serving(self, name: str) -> None:
        """Drop the pin; the latest version wins again."""
        self._update_rollout_state(name, serving=None)

    def serving_version(self, name: str) -> int | None:
        """The pinned serving version, validated against the catalog.

        Returns None when nothing is pinned; raises
        :class:`ServingPinError` when the pin names a missing version.
        """
        pinned = self.rollout_state(name).get("serving")
        if pinned is None:
            return None
        pinned = int(pinned)
        if pinned not in self.versions(name):
            raise ServingPinError(
                f"model {name!r} is pinned to version {pinned}, which is "
                f"missing from {self._model_dir(name)}",
                path=self._model_dir(name) / ROLLOUT_STATE_FILE,
            )
        return pinned

    def resolve_serving(self, name: str) -> int | None:
        """Version to serve by default: the pin when set, else latest."""
        pinned = self.serving_version(name)
        return pinned if pinned is not None else self.latest_version(name)

    def set_shadow(self, name: str, version: int) -> None:
        """Mark a version as the shadow candidate (mirrored, not served)."""
        version = int(version)
        if version not in self.versions(name):
            raise ModelNotFound(
                f"cannot shadow model {name!r} missing version {version}"
            )
        self._update_rollout_state(name, shadow=version)

    def clear_shadow(self, name: str) -> None:
        self._update_rollout_state(name, shadow=None)

    def shadow_version(self, name: str) -> int | None:
        shadow = self.rollout_state(name).get("shadow")
        return None if shadow is None else int(shadow)

    def set_canary(self, name: str, version: int, fraction: float) -> None:
        """Mark a version as canary for a deterministic key slice."""
        version = int(version)
        fraction = float(fraction)
        if version not in self.versions(name):
            raise ModelNotFound(
                f"cannot canary model {name!r} missing version {version}"
            )
        if not 0.0 < fraction <= 1.0:
            raise ValueError("canary fraction must be in (0, 1]")
        self._update_rollout_state(
            name, canary={"version": version, "fraction": fraction}
        )

    def clear_canary(self, name: str) -> None:
        self._update_rollout_state(name, canary=None)

    def canary_stage(self, name: str) -> dict | None:
        """``{"version": int, "fraction": float}`` or None."""
        canary = self.rollout_state(name).get("canary")
        if canary is None:
            return None
        return {"version": int(canary["version"]),
                "fraction": float(canary["fraction"])}

    def promote_serving(self, name: str, version: int) -> None:
        """Pin ``version`` and clear shadow/canary in one atomic write."""
        version = int(version)
        if version not in self.versions(name):
            raise ModelNotFound(
                f"cannot promote model {name!r} to missing version {version}"
            )
        self._update_rollout_state(name, serving=version, shadow=None,
                                   canary=None)
        obs.inc("serve.registry.promotions_total")
        _LOG.info("serving version promoted",
                  trace_id=current_trace_id() or "-",
                  model=name, version=version)

    def reject_candidate(self, name: str, version: int
                         ) -> pathlib.Path | None:
        """Quarantine a rollout candidate: rename to ``*.rejected``.

        Clears the candidate's shadow/canary markers (one atomic state
        write), evicts any cached deserialization, and drops it from the
        last-good fallback so a tripped breaker can never resurrect it.
        The serving pin is untouched -- rollback is "the pin stays where
        it was".
        """
        version = int(version)
        state = self.rollout_state(name)
        changes = {}
        if state.get("shadow") == version:
            changes["shadow"] = None
        canary = state.get("canary")
        if isinstance(canary, dict) and int(canary.get("version", -1)
                                            ) == version:
            changes["canary"] = None
        if changes:
            self._update_rollout_state(name, **changes)
        with self._lock:
            self._loaded.pop((name, version), None)
            good = self._last_good.get(name)
            if good is not None and good[0] == version:
                self._last_good.pop(name)
        target = self.path(name, version)
        dest = target.with_name(target.name + REJECTED_SUFFIX)
        try:
            os.replace(target, dest)
        except FileNotFoundError:
            dest = None
        obs.inc("serve.registry.rejected_total")
        _LOG.warning("rollout candidate rejected",
                     trace_id=current_trace_id() or "-",
                     model=name, version=version,
                     path=str(dest) if dest else "-")
        return dest

    # -- save / load -------------------------------------------------------- #

    def save(self, name: str, model, version: int | None = None) -> int:
        """Serialize ``model`` as a new (or given) version; returns it."""
        d = self._model_dir(name)
        if version is None:
            latest = self.latest_version(name)
            version = 1 if latest is None else latest + 1
        elif version < 1:
            raise ValueError("version must be >= 1")
        d.mkdir(parents=True, exist_ok=True)
        target = self.path(name, version)
        payload = json.dumps(model_to_dict(model), sort_keys=True)
        tmp = target.with_name(target.name + ".tmp")
        try:
            tmp.write_text(payload + "\n")
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
        with self._lock:
            self._loaded[(name, int(version))] = model
            self._loaded.move_to_end((name, int(version)))
            while len(self._loaded) > self.max_loaded:
                self._loaded.popitem(last=False)
        obs.inc("serve.registry.saves_total")
        return int(version)

    def _check_view(self, model, expect_view, name: str, version: int):
        """Raise :class:`FeatureViewMismatch` unless the stamp matches."""
        if expect_view is None:
            return
        expected = _expected_fingerprint(expect_view)
        stamp = getattr(model, "feature_view_", None)
        actual = stamp.get("fingerprint") if isinstance(stamp, dict) else None
        if actual == expected:
            return
        obs.inc("serve.registry.view_mismatches_total")
        described = (f"feature view {stamp.get('name')!r} "
                     f"(version {stamp.get('version')!r}, "
                     f"fingerprint {actual})"
                     if isinstance(stamp, dict) else "no feature-view stamp")
        raise FeatureViewMismatch(
            f"model {name!r} version {version} was published against "
            f"{described}, but serving expects fingerprint {expected}",
            expected=expected, actual=actual,
            path=self.path(name, int(version)),
        )

    def load(self, name: str, version: int | None = None, *,
             expect_view=None):
        """Deserialize a model (latest version when unspecified).

        ``expect_view`` (a fingerprint string, ``FeatureView`` or stamp
        dict) enforces the model/feature-version handshake: the loaded
        model -- memoized or fresh from disk -- must carry a matching
        ``feature_view_`` stamp or :class:`FeatureViewMismatch` is
        raised.

        With no explicit ``version`` the serving pin wins when set
        (:meth:`pin_serving`; :class:`ServingPinError` if it dangles),
        else the latest version.
        """
        if version is None:
            version = self.resolve_serving(name)
            if version is None:
                raise ModelNotFound(
                    f"no versions of model {name!r} in {self.root}"
                )
        key = (name, int(version))
        with self._lock:
            model = self._loaded.get(key)
            if model is not None:
                self._loaded.move_to_end(key)
        if model is not None:
            obs.inc("serve.registry.memo_hits_total")
            self._check_view(model, expect_view, name, int(version))
            return model
        target = self.path(name, int(version))
        if not target.is_file():
            raise ModelNotFound(
                f"model {name!r} version {version} not found at {target}"
            )
        faults.inject("serve.model_load", key=(name, int(version)))
        try:
            payload = json.loads(target.read_text())
        except json.JSONDecodeError as exc:
            raise RegistryError(
                f"corrupt model payload at {target}: {exc}", path=target
            ) from exc
        model = model_from_dict(payload)
        with self._lock:
            self._loaded[key] = model
            self._loaded.move_to_end(key)
            while len(self._loaded) > self.max_loaded:
                self._loaded.popitem(last=False)
            good = self._last_good.get(name)
            if good is None or good[0] <= int(version):
                self._last_good[name] = (int(version), model)
        obs.inc("serve.registry.loads_total")
        self._check_view(model, expect_view, name, int(version))
        return model

    # -- resilience --------------------------------------------------------- #

    def breaker(self, name: str) -> CircuitBreaker:
        """The per-model-name circuit breaker guarding resilient loads."""
        with self._lock:
            b = self._breakers.get(name)
            if b is None:
                b = CircuitBreaker(name=f"registry:{name}",
                                   failure_threshold=3, reset_timeout_s=5.0)
                self._breakers[name] = b
            return b

    def quarantine(self, name: str, version: int) -> pathlib.Path | None:
        """Rename a corrupt version file to ``*.corrupt``; returns the
        new path (None when the file is already gone).

        The quarantined file drops out of :meth:`versions` /
        :meth:`latest_version` immediately but stays on disk for a
        post-mortem, and the slot's cached deserialization (if any) is
        evicted so it cannot shadow the corruption.
        """
        target = self.path(name, int(version))
        dest = target.with_name(target.name + CORRUPT_SUFFIX)
        try:
            os.replace(target, dest)
        except FileNotFoundError:
            return None
        with self._lock:
            self._loaded.pop((name, int(version)), None)
        obs.inc("resil.registry.quarantined_total")
        _LOG.warning("model version quarantined",
                     trace_id=current_trace_id() or "-",
                     model=name, version=int(version), path=str(dest))
        return dest

    def load_resilient(
        self,
        name: str,
        version: int | None = None,
        *,
        policy: RetryPolicy | None = None,
        sleep=time.sleep,
        expect_view=None,
    ):
        """A model for ``name``, surviving flaky loads and corrupt files.

        ``expect_view`` enforces the feature-version handshake exactly as
        in :meth:`load`; a :class:`FeatureViewMismatch` raises
        immediately -- no quarantine, no retry, no fallback to an older
        version -- because a wrongly-deployed model is not corruption
        that ageing out can fix.

        Per candidate version (the requested one, else the latest, then
        falling back through older versions): transient failures --
        injected ``serve.model_load`` faults, OS errors -- are retried
        under ``policy``; a :class:`RegistryError` (corrupt payload)
        quarantines the file and falls straight through to the previous
        version.  Fallbacks count ``resil.registry.fallbacks_total``.

        The per-name breaker trips after repeated failures; while open,
        the newest previously loaded model is returned directly
        (``resil.registry.breaker_fallbacks_total``) and the disk is
        left alone.  Raises :class:`ModelNotFound` when no version
        exists, :class:`RetryExhausted` when every candidate kept
        failing transiently, :class:`CircuitOpenError` when the breaker
        is open and nothing good was ever loaded.
        """
        policy = policy or DEFAULT_LOAD_POLICY
        breaker = self.breaker(name)
        if not breaker.allow():
            with self._lock:
                good = self._last_good.get(name)
            if good is not None:
                self._check_view(good[1], expect_view, name, good[0])
                obs.inc("resil.registry.breaker_fallbacks_total")
                _LOG.warning("load breaker open; serving last good model",
                             trace_id=current_trace_id() or "-",
                             model=name, version=good[0])
                return good[1]
            raise CircuitOpenError(
                f"model {name!r}: load circuit open and no good version "
                "in memory"
            )
        known = self.versions(name)
        if version is None:
            # The serving pin (when set) caps the candidate list exactly
            # like an explicit version would; a dangling pin raises
            # ServingPinError rather than silently serving the latest.
            version = self.serving_version(name)
        if version is None:
            candidates = list(reversed(known))
        else:
            candidates = [v for v in reversed(known) if v <= int(version)]
            if int(version) not in known:
                raise ModelNotFound(
                    f"model {name!r} version {version} not found in "
                    f"{self.root}"
                )
        if not candidates:
            raise ModelNotFound(
                f"no versions of model {name!r} in {self.root}"
            )
        last_exc: Exception | None = None
        for i, v in enumerate(candidates):
            fallback_left = i + 1 < len(candidates)
            try:
                model = retry(
                    lambda v=v: self.load(name, v, expect_view=expect_view),
                    policy=policy,
                    retry_on=(FaultError, OSError),
                    label=f"registry.load:{name}:v{v}",
                    sleep=sleep,
                )
            except FeatureViewMismatch:
                raise
            except RegistryError as exc:
                last_exc = exc
                breaker.record_failure()
                self.quarantine(name, v)
                if fallback_left:
                    obs.inc("resil.registry.fallbacks_total")
                    _LOG.warning("falling back to older model version",
                                 trace_id=current_trace_id() or "-",
                                 model=name, from_version=v,
                                 reason="corrupt")
                continue
            except RetryExhausted as exc:
                last_exc = exc
                breaker.record_failure()
                if fallback_left:
                    obs.inc("resil.registry.fallbacks_total")
                    _LOG.warning("falling back to older model version",
                                 trace_id=current_trace_id() or "-",
                                 model=name, from_version=v,
                                 reason="retry_exhausted")
                    continue
                raise
            breaker.record_success()
            return model
        assert last_exc is not None
        raise last_exc
