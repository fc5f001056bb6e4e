"""The low-latency online path: one request row -> one feature vector.

``OnlineFeatureServer`` wraps a compiled :class:`FeatureView` for the
serving stack (``repro.serve``) and :class:`PredictionPipeline`:

* ``vector(row)`` maps a plain dict -- raw telemetry fields, plus the
  ``past_throughput`` history list for the C group -- to a float64
  feature vector **without allocating a table** (this module must never
  import ``repro.datasets``; lint rule ``fstore.online-tables``).
  Values are bit-identical to offline materialization for the same
  logical row: both paths execute the same op kernels.
* An optional **vector cache** (the same :class:`repro.par.NpzCache`
  machinery the offline shards use) memoizes computed vectors by
  content address.  Cache *reads* are guarded by ``repro.resil``: a
  flaky read (the ``fstore.online_read`` fault seam, transient OS
  errors) is retried under a seeded backoff policy and, when retries
  exhaust, the server **falls back to recomputing** the vector -- the
  cache can only ever make serving faster, never wrong or unavailable.

Telemetry: ``fstore.online.*`` counters (requests, cache hits,
fallbacks) and the ``fstore.online.vector_s`` latency histogram.
"""

from __future__ import annotations

import time
from collections.abc import Mapping

import numpy as np

from repro import obs
from repro.fstore.views import FeatureView
from repro.par import NpzCache, fingerprint
from repro.resil import RetryExhausted, RetryPolicy, faults, retry
from repro.resil.faults import FaultError

__all__ = ["DEFAULT_READ_POLICY", "OnlineFeatureServer"]

#: Cache-read retries: fast, bounded, deterministic (seeded jitter).
DEFAULT_READ_POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.005,
                                  max_delay_s=0.05, seed=0)

faults.register_point(
    "fstore.online_read",
    "raise while reading a cached online feature vector "
    "(repro.fstore.online.OnlineFeatureServer)",
)


class OnlineFeatureServer:
    """Serve feature vectors for single rows, with resilient caching."""

    def __init__(
        self,
        view: FeatureView,
        cache: NpzCache | str | None = None,
        *,
        policy: RetryPolicy | None = None,
        sleep=time.sleep,
    ):
        self.view = view
        self.cache = NpzCache(cache) if isinstance(cache, str) else cache
        self.policy = policy or DEFAULT_READ_POLICY
        self._sleep = sleep
        self._view_fp = view.fingerprint()

    @property
    def names(self) -> tuple[str, ...]:
        return self.view.names

    @property
    def n_features(self) -> int:
        return self.view.n_features

    @property
    def fingerprint(self) -> str:
        """The served view's content-addressed identity."""
        return self._view_fp

    # -- caching ------------------------------------------------------------- #

    def row_key(self, row: Mapping) -> str:
        """Content address of (view, row): equal rows share a vector."""
        return fingerprint({
            "fstore_online": 1,
            "view": self._view_fp,
            "row": {str(k): row[k] for k in row},
        })

    def _cached_vector(self, key: str) -> np.ndarray | None:
        """A cached vector, retried + verified; None means recompute.

        The fault seam fires *before* the read so chaos tests can make
        the cache path flaky; ``NpzCache.load`` itself already treats
        corrupt entries as misses.
        """
        def read():
            faults.inject("fstore.online_read", key=key)
            return self.cache.load(key)

        try:
            entry = retry(read, policy=self.policy,
                          retry_on=(FaultError, OSError),
                          label="fstore.online_read", sleep=self._sleep)
        except RetryExhausted:
            obs.inc("fstore.online.cache_fallbacks_total")
            return None
        if entry is None:
            return None
        vec = entry.get("vector", {}).get("x")
        if vec is None or len(vec) != self.view.n_features:
            obs.inc("fstore.online.cache_layout_mismatches_total")
            return None
        return np.asarray(vec, dtype=np.float64)

    # -- the request path ----------------------------------------------------- #

    def vector(self, row: Mapping) -> np.ndarray:
        """The feature vector for one request row.

        Raises ``KeyError`` / ``TypeError`` / ``ValueError`` on missing
        or malformed fields; the serving layer maps those to bad-request
        responses rather than failures.
        """
        t0 = time.perf_counter()
        obs.inc("fstore.online.requests_total")
        key = None
        if self.cache is not None:
            key = self.row_key(row)
            cached = self._cached_vector(key)
            if cached is not None:
                obs.inc("fstore.online.cache_hits_total")
                obs.observe("fstore.online.vector_s",
                            time.perf_counter() - t0)
                return cached
        vec = self.view.transform_row(row)
        if key is not None:
            self.cache.save(key, {"vector": {"x": vec}})
        obs.observe("fstore.online.vector_s", time.perf_counter() - t0)
        return vec
