"""The per-feature online oracle for ``FeatureView.transform_row``.

Before views compiled a row plan, the online path ran every feature on
its own: the op's batch kernel on a one-value array built from the
row's field, and the lag op validating the row's history once per lag.
That form is kept here, verbatim, as the parity oracle the compiled
plan must match bit for bit (``test_row_plan.py``).
"""

from collections.abc import Mapping, Sequence

import numpy as np

from repro.fstore import PAST_THROUGHPUT_FIELD
from repro.fstore.ops import OPS


def lag_online(row: Mapping, source: str, *, lag: int) -> float:
    """One lag of one row, validating the row's history on every call."""
    history = row.get(PAST_THROUGHPUT_FIELD) or ()
    if not isinstance(history, (Sequence, np.ndarray)) or isinstance(
        history, (str, bytes)
    ):
        raise TypeError(
            f"{PAST_THROUGHPUT_FIELD!r} must be a sequence of floats "
            "(most recent first)"
        )
    if len(history) >= lag:
        return float(history[lag - 1])
    if len(history):
        return float(history[-1])
    return float(row[source])


def apply_row(op_name: str, row: Mapping, source: Sequence[str],
              params: Mapping) -> float:
    """One feature of one row through its op's kernel, on its own."""
    op = OPS[op_name]
    if op.windowed:
        return lag_online(row, source[0], **params)
    value = row[source[0]]
    cell = np.asarray([value]) if not isinstance(value, str) \
        else np.asarray([value], dtype=object)
    return float(op.batch(cell, **params)[0])


def transform_row(view, row: Mapping) -> np.ndarray:
    """The view's feature vector, one oracle call per feature."""
    out = np.empty(len(view.features), dtype=np.float64)
    for i, f in enumerate(view.features):
        out[i] = apply_row(f.op, row, f.source, f.param_dict)
    return out
