"""The pure transform ops feature views are built from.

Every op is **stateless and deterministic**: its output is a pure
function of its input column(s) and parameters.  That is the property
the feature store's parity guarantee rests on -- the offline batch
materializer and the online single-row path both execute *the same op
kernels*, offline on full columns and online on the one row's values
(one kernel call per group of like features, see
:meth:`repro.fstore.views.FeatureView.transform_row`), and the kernels
are elementwise, so the float64 outputs are bit-identical by
construction (and proven so by ``tests/fstore/``).

Two op kinds exist:

* **rowwise** -- each output row depends only on its own input row
  (cast, cyclic sin/cos, sentinel-NaN, equality flag).  These are
  chunk-safe: applying them to any row slice yields the same values as
  applying them to the whole column.
* **windowed** -- the output row looks back along its *run* (the
  past-throughput lag).  Offline these consume the full column plus run
  ids; online the request row supplies its own history (the
  ``past_throughput`` list, most recent first).

Adding an op: implement it here, register it in :data:`OPS`, and bump
the version of every view that starts using it -- the view fingerprint
(:meth:`repro.fstore.views.FeatureView.fingerprint`) covers op names
and parameters, so the golden-fingerprint tests fail loudly if a
definition changes silently.

This module is part of the **online path**: it must never import
``repro.datasets`` (lint rule ``fstore.online-tables``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.ml.preprocessing import cyclic_encode
from repro.radio.signal import UNAVAILABLE

__all__ = [
    "LagStream",
    "OPS",
    "Op",
    "PAST_THROUGHPUT_FIELD",
    "lag_within_runs",
    "sentinel_threshold",
]

#: Online request-row field carrying the previous within-run throughput
#: samples, **most recent first** (``[t-1, t-2, ...]``).  The offline lag
#: op repeats a run's first sample for rows near the run head; an online
#: row with a short (or empty) history falls back the same way -- to the
#: oldest supplied sample, then to the row's own current throughput.
PAST_THROUGHPUT_FIELD = "past_throughput"


def sentinel_threshold() -> float:
    """Raw signal readings at/below this are Android's "unavailable"."""
    return UNAVAILABLE + 1.0


# --------------------------------------------------------------------------- #
# Batch kernels (shared by both execution modes)
# --------------------------------------------------------------------------- #


def _as_float(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _cast(values: np.ndarray) -> np.ndarray:
    """Plain float64 cast -- the identity feature."""
    return _as_float(values)


def _cyclic(values: np.ndarray) -> np.ndarray:
    """(sin, cos) columns of angles in degrees (shared by both ops)."""
    return cyclic_encode(values)


def _cyclic_sin(values: np.ndarray) -> np.ndarray:
    return _cyclic(values)[:, 0]


def _cyclic_cos(values: np.ndarray) -> np.ndarray:
    return _cyclic(values)[:, 1]


def _sentinel_nan(values: np.ndarray, *, threshold: float) -> np.ndarray:
    """Map "unavailable"-sentinel readings to NaN (a missing value)."""
    raw = _as_float(values)
    return np.where(raw <= threshold, np.nan, raw)


def _flag_equals(values: np.ndarray, *, value: str) -> np.ndarray:
    """1.0 where the (string) column equals ``value``, else 0.0."""
    return (np.asarray(values) == value).astype(np.float64)


def lag_within_runs(
    values: np.ndarray, run_ids: np.ndarray, *, lag: int
) -> np.ndarray:
    """Shift ``values`` by ``lag`` rows without crossing run boundaries.

    Rows whose lag would cross into the previous run repeat the first
    value of their own run (no future leakage, no NaN) -- the paper's
    past-throughput semantics, shared verbatim with the old
    ``core.features`` implementation.
    """
    values = _as_float(values)
    run_ids = np.asarray(run_ids)
    out = np.empty_like(values)
    for run in np.unique(run_ids):
        mask = run_ids == run
        v = values[mask]
        shifted = np.concatenate([np.repeat(v[0], min(lag, len(v))),
                                  v[:-lag] if lag < len(v) else v[:0]])
        out[mask] = shifted[:len(v)]
    return out


class LagStream:
    """Chunked :func:`lag_within_runs` with bit-exact carry across seams.

    Feed chunks in row order via :meth:`apply`; rows of one run must be
    contiguous in the stream (true of every campaign log -- runs never
    interleave), which means only the *last* run of each chunk can spill
    into the next, so the carry is one small tuple: the open run's id,
    its first value, how many of its rows have been seen, and its last
    ``lag`` values.  Every output is a copy of an input value (or the
    run's first value), so the concatenated chunk outputs are
    bit-identical to the one-shot batch op -- the streaming
    materializer's parity tests assert exactly that.  A run id that
    reappears after its run closed raises ``ValueError``.
    """

    def __init__(self, *, lag: int):
        if lag < 1:
            raise ValueError("lag must be >= 1")
        self.lag = lag
        self._run = None  # open run's id
        self._first = 0.0  # its first value
        self._count = 0  # rows of it seen so far
        self._tail = np.empty(0)  # its last min(lag, count) values
        self._closed: set = set()

    def _segment(self, v: np.ndarray) -> np.ndarray:
        """Lag values for the open run's next ``len(v)`` rows."""
        m = len(v)
        if self._count == 0:
            self._first = v[0]
        ext = np.concatenate([self._tail, v])
        # Global (within-run) index of ext[0]:
        base = self._count - len(self._tail)
        q = self._count + np.arange(m)
        # Lagged rows (q >= lag) always land inside ext; the clip only
        # keeps the discarded head-branch lookups in bounds.
        idx = np.clip(q - self.lag - base, 0, len(ext) - 1)
        out = np.where(q < self.lag, self._first, ext[idx])
        self._count += m
        self._tail = ext[-min(self.lag, self._count):]
        return out

    def apply(self, values: np.ndarray, run_ids: np.ndarray) -> np.ndarray:
        values = _as_float(values)
        run_ids = np.asarray(run_ids)
        if len(values) == 0:
            return values
        out = np.empty_like(values)
        # Run-boundary positions inside this chunk, in row order.
        change = np.flatnonzero(run_ids[1:] != run_ids[:-1]) + 1
        starts = np.concatenate([[0], change, [len(values)]])
        for s, e in zip(starts[:-1], starts[1:]):
            run = run_ids[s]
            if run != self._run:
                if self._run is not None:
                    self._closed.add(self._run)
                if run in self._closed:
                    raise ValueError(
                        f"run {run!r} reappeared after closing; LagStream "
                        "needs run-contiguous chunks in row order"
                    )
                self._run = run
                self._count = 0
                self._tail = np.empty(0)
            out[s:e] = self._segment(values[s:e])
        return out


def _lag_online(row: Mapping, source: str,
                params: Sequence[Mapping]) -> list[float]:
    """Online equivalent of :func:`lag_within_runs`: one row, many lags.

    With the row's full within-run history supplied (``past_throughput``
    = every previous sample, most recent first) each value is exactly
    the offline one: ``history[lag-1]`` when the run is old enough, else
    the run's first sample (the oldest history entry, or the current
    value for a run's very first row).  ``params`` holds one lag
    feature's parameters each; the history is validated once for all.
    """
    history = row.get(PAST_THROUGHPUT_FIELD) or ()
    if not isinstance(history, (Sequence, np.ndarray)) or isinstance(
        history, (str, bytes)
    ):
        raise TypeError(
            f"{PAST_THROUGHPUT_FIELD!r} must be a sequence of floats "
            "(most recent first)"
        )
    depth = len(history)
    return [float(history[lag - 1]) if depth >= lag
            else float(history[-1]) if depth
            else float(row[source])
            for lag in (p["lag"] for p in params)]


# --------------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Op:
    """One registered transform.

    ``batch`` maps input column(s) to one float64 output column;
    ``windowed`` marks ops whose batch form needs the run-id column and
    whose online form reads history fields off the request row.  A
    rowwise op's online form is its ``batch`` kernel run once over the
    row's values of every feature sharing the op and parameters, or --
    where ops share a multi-column ``kernel`` (cyclic sin and cos) --
    that kernel run once per source, of which this op is ``column``.
    """

    name: str
    batch: callable
    windowed: bool = False
    #: Windowed ops: ``online(row, source, params)`` -> the row's value
    #: for each feature's parameter dict in ``params``.
    online: callable | None = None
    #: Factory (``stream(**params)``) for a stateful chunked executor
    #: with ``apply(values, run_ids)``; only windowed ops need one --
    #: rowwise ops are chunk-safe and stream through ``apply_batch``.
    stream: callable | None = None
    #: A multi-column kernel several ops share, and this op's column.
    kernel: callable | None = None
    column: int | None = None

    def apply_batch(self, columns: Sequence[np.ndarray],
                    params: Mapping) -> np.ndarray:
        if self.windowed:
            values, run_ids = columns
            return self.batch(values, run_ids, **params)
        (values,) = columns
        return self.batch(values, **params)

    def make_stream(self, params: Mapping):
        """A fresh chunked executor for this op (windowed ops only)."""
        if self.stream is None:
            raise ValueError(f"op {self.name!r} has no streaming form")
        return self.stream(**params)


#: Every op a view definition may reference.
OPS: dict[str, Op] = {
    op.name: op
    for op in (
        Op("cast", _cast),
        Op("cyclic_sin", _cyclic_sin, kernel=_cyclic, column=0),
        Op("cyclic_cos", _cyclic_cos, kernel=_cyclic, column=1),
        Op("sentinel_nan", _sentinel_nan),
        Op("flag_equals", _flag_equals),
        Op("lag", lag_within_runs, windowed=True, online=_lag_online,
           stream=LagStream),
    )
}
