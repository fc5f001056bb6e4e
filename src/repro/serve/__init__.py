"""``repro.serve`` -- batched online inference over trained models.

The deployment half of the paper's story: Lumos5G ends with throughput
maps "augmented with the ML models" that UEs and apps query in real time
(Sec. 7).  This package turns a fitted model into a service:

* :class:`~repro.serve.registry.ModelRegistry` -- a directory of
  versioned, JSON-serialized models (``repro.ml.serialize`` payloads);
* :class:`~repro.serve.batcher.BatchPredictor` -- micro-batches incoming
  feature rows (max batch size / max wait) onto the vectorized batched
  tree traversal, so per-request Python overhead amortizes away;
* :class:`~repro.serve.cache.PredictionCache` -- an LRU keyed by
  quantized feature vectors, sized for the map-query workload where
  nearby positions repeat;
* :class:`~repro.serve.service.InferenceService` -- ties the three
  together behind a JSONL request loop (the ``repro serve`` CLI).

Everything on the request path is instrumented with ``repro.obs``
(``serve.requests_total``, ``serve.batch_size``, ``serve.request_latency_s``,
cache hit counters); lint rule ``serve.no-fit`` checks that this package
never fits a model -- serving is read-only by construction.
"""

from repro.serve.batcher import BatchPredictor
from repro.serve.cache import PredictionCache
from repro.serve.registry import (
    CORRUPT_SUFFIX,
    REJECTED_SUFFIX,
    ROLLOUT_STATE_FILE,
    FeatureViewMismatch,
    ModelNotFound,
    ModelRegistry,
    RegistryError,
    ServingPinError,
)
from repro.serve.service import InferenceService, ServeConfig, ServeStats

__all__ = [
    "BatchPredictor",
    "CORRUPT_SUFFIX",
    "REJECTED_SUFFIX",
    "ROLLOUT_STATE_FILE",
    "FeatureViewMismatch",
    "InferenceService",
    "ModelNotFound",
    "ModelRegistry",
    "PredictionCache",
    "RegistryError",
    "ServeConfig",
    "ServeStats",
    "ServingPinError",
]
