"""``repro.par`` -- deterministic parallel execution for the hot paths.

Three pieces (docs/parallelism.md has the full guide):

* :func:`pmap` -- a chunked, spawn-safe process-pool map with ordered
  results, serial fallback (``workers<=1`` / ``REPRO_WORKERS=0`` /
  nested calls / unpicklable functions) and worker-side obs metrics
  merged back into the parent registry;
* :mod:`repro.par.seeding` -- ``SeedSequence.spawn``-style per-task
  seed derivation keyed by task index, the contract that makes results
  bit-identical at any worker count;
* :mod:`repro.par.cache` -- config-fingerprinted ``.npz`` disk caching
  used by :func:`repro.datasets.generate.generate_datasets`.

Consumers: ``sim.collection`` (per-pass campaign fan-out, through
:func:`pmap_stream`, the generator :func:`pmap` collects),
``ml.model_selection`` (folds x grid points) and ``datasets.generate``
(per-area generation).  ``tools/lint.py``
(``par.raw-pool``) keeps raw ``multiprocessing.Pool`` use out of the rest of the library.
"""

from repro.par.cache import NpzCache, fingerprint
from repro.par.executor import (
    CONTEXT_ENV,
    WORKERS_ENV,
    default_context,
    in_worker,
    pmap,
    pmap_stream,
    resolve_workers,
)
from repro.par.seeding import rng_from, root_sequence, spawn_seeds

__all__ = [
    "CONTEXT_ENV",
    "NpzCache",
    "WORKERS_ENV",
    "default_context",
    "fingerprint",
    "in_worker",
    "pmap",
    "pmap_stream",
    "resolve_workers",
    "rng_from",
    "root_sequence",
    "spawn_seeds",
]
