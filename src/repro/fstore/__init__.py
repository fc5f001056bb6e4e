"""``repro.fstore`` -- the feature store: one definition, two backends.

Lumos5G's central design idea is *composable feature groups* (paper
Table 6).  This package lifts them from ad-hoc recomputation into
declarative, versioned **feature views** (docs/feature_store.md has the
full guide):

* :mod:`repro.fstore.views` -- :class:`FeatureView` definitions (name,
  version, transform DAG of pure ops) with content-addressed
  fingerprints; the predefined L/M/T/C groups and the evaluated
  combinations; ``attach_view`` stamps published models so serving can
  verify the model/feature-version handshake.
* :mod:`repro.fstore.ops` -- the pure op registry both execution modes
  share (cast, cyclic sin/cos, sentinel-NaN, equality flag,
  within-run lag).
* :mod:`repro.fstore.offline` -- chunk-by-chunk, content-addressed
  materialization of a columnar campaign store (in memory,
  :meth:`FeatureView.transform_table` is the batch path).
* :mod:`repro.fstore.online` -- the single-row, no-table request path
  for serving, with ``repro.resil``-guarded cache reads.

The **parity guarantee**: offline-materialized and online-computed
features are bit-identical float64 for the same logical row, invariant
to chunking and cache state -- proven by
``tests/fstore/`` against property-generated rows, with golden view
fingerprints that fail loudly when a definition changes without a
version bump.

Consumers: ``core.features``/``core.pipeline`` (training),
``core.transfer``, ``core.mapstore``, ``analysis``,
``ml.preprocessing.PredictionPipeline.predict_row`` and the ``serve``
stack ("row" requests).  ``tools/lint.py`` (rule
``fstore.online-tables``) keeps the online path table-free.
"""

from repro.fstore.ops import OPS, PAST_THROUGHPUT_FIELD, Op
from repro.fstore.views import (
    COMBINATIONS,
    FSTORE_SCHEMA_VERSION,
    FeatureMatrix,
    FeatureSpec,
    FeatureView,
    GROUP_MEMBERS,
    GROUP_VERSIONS,
    PRIMARY_GROUPS,
    attach_view,
    combination_view,
    group_view,
    parse_combination,
    target,
    view_from_dict,
    view_of,
)
from repro.fstore.offline import OfflineMaterializer
from repro.fstore.online import OnlineFeatureServer

__all__ = [
    "COMBINATIONS",
    "FSTORE_SCHEMA_VERSION",
    "FeatureMatrix",
    "FeatureSpec",
    "FeatureView",
    "GROUP_MEMBERS",
    "GROUP_VERSIONS",
    "OPS",
    "OfflineMaterializer",
    "OnlineFeatureServer",
    "Op",
    "PAST_THROUGHPUT_FIELD",
    "PRIMARY_GROUPS",
    "attach_view",
    "combination_view",
    "extract",
    "group_view",
    "parse_combination",
    "target",
    "view_from_dict",
    "view_of",
]


def extract(table, spec: str, past_throughput_lags: int = 5) -> FeatureMatrix:
    """One-shot: the feature matrix of a Table-6 combination.

    The in-memory training-path convenience; out-of-core callers use
    :meth:`OfflineMaterializer.materialize_store`.
    """
    from repro import obs

    view = combination_view(spec, past_throughput_lags)
    with obs.span("features.extract", spec=spec, rows=len(table)):
        fm = view.transform_table(table)
    obs.inc("features.extractions_total")
    obs.inc("features.rows_total", len(table))
    return fm
