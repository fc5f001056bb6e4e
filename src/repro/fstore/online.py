"""The low-latency online path: one request row -> one feature vector.

``OnlineFeatureServer`` wraps a compiled :class:`FeatureView` for the
serving stack (``repro.serve``) and :class:`PredictionPipeline`:

``vector(row)`` maps a plain dict -- raw telemetry fields, plus the
``past_throughput`` history list for the C group -- to a float64
feature vector **without allocating a table** (this module must never
import ``repro.datasets``; lint rule ``fstore.online-tables``).  Values
are bit-identical to offline materialization for the same logical row:
both paths execute the same op kernels.  Every call recomputes: the
compiled row plan takes tens of microseconds, less than reading a
stored vector back from disk, so the server keeps no vector cache.

Telemetry: the ``fstore.online.requests_total`` counter and the
``fstore.online.vector_s`` latency histogram.
"""

from __future__ import annotations

import time
from collections.abc import Mapping

import numpy as np

from repro import obs
from repro.fstore.views import FeatureView

__all__ = ["OnlineFeatureServer"]


class OnlineFeatureServer:
    """Serve feature vectors for single rows."""

    def __init__(self, view: FeatureView):
        self.view = view
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

    def vector(self, row: Mapping) -> np.ndarray:
        """The feature vector for one request row.

        Raises ``KeyError`` / ``TypeError`` / ``ValueError`` on missing
        or malformed fields; the serving layer maps those to bad-request
        responses rather than failures.
        """
        t0 = time.perf_counter()
        obs.inc("fstore.online.requests_total")
        vec = self.view.transform_row(row)
        obs.observe("fstore.online.vector_s", time.perf_counter() - t0)
        return vec
