"""Out-of-core batch materialization of feature views.

``OfflineMaterializer`` runs one view over a columnar campaign store
(:class:`repro.colstore.ChunkReader`) one chunk at a time and writes a
feature store beside it:

* **content-addressed** -- the output manifest's ``cache_key``
  fingerprints the view's canonical definition *and* the input
  manifest's digest, so any change to either regenerates rather than
  silently reusing stale features;
* **chunk-safe** -- rowwise ops run through their batch kernels, the
  windowed past-throughput lags through their stateful stream carry,
  so results are bit-identical to :meth:`FeatureView.transform_table`
  on the gathered table whatever the chunk size;
* **observable** -- spans + ``fstore.*`` counters/gauges via
  ``repro.obs`` record rows, cache hits/misses and rows/sec.

In memory, :meth:`FeatureView.transform_table` is the batch path.  The
parity harness (``tests/fstore/``) proves both are bit-identical to the
online per-row path.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.fstore.ops import OPS
from repro.fstore.views import FeatureView
from repro.par import fingerprint

__all__ = ["OfflineMaterializer"]


class OfflineMaterializer:
    """Chunked, content-addressed store execution of one feature view."""

    def __init__(self, view: FeatureView):
        self.view = view

    def materialize_store(self, reader, out_dir):
        """Shard-by-shard materialization of a columnar campaign store.

        ``reader`` is a :class:`repro.colstore.ChunkReader` over raw
        telemetry; the view is executed one chunk at a time -- rowwise
        ops straight through their batch kernels (chunk-safe by
        construction), windowed lags through their stateful
        :meth:`repro.fstore.ops.Op.make_stream` carry, which is
        bit-exact across chunk seams -- and written to a feature store
        at ``out_dir`` whose columns are the view's feature names and
        whose chunk boundaries mirror the input.  Peak memory is one
        chunk's columns, never the campaign.

        The output is content-addressed: its manifest carries a
        ``cache_key`` fingerprinting (view canonical x input manifest
        digest), and a finalized store at ``out_dir`` with a matching
        key is reused without recomputation.  Parity with the in-memory
        paths is bitwise: concatenating the output chunks equals
        :meth:`FeatureView.transform_table` on the gathered table
        (``tests/fstore/test_materialize_store.py``).
        """
        from repro.colstore import ChunkReader, Manifest, ShardWriter

        view = self.view
        key = fingerprint({
            "fstore_materialize_store": 1,
            "view": view.canonical(),
            "manifest": reader.manifest.digest(),
        })
        if Manifest.exists(out_dir):
            try:
                existing = ChunkReader(out_dir)
            except ValueError:
                existing = None  # corrupt/mismatched: rewrite below
            if (existing is not None
                    and existing.manifest.meta.get("cache_key") == key):
                obs.inc("fstore.cache_hits_total")
                return existing
        obs.inc("fstore.cache_misses_total")
        with obs.span("fstore.materialize_store", view=view.name,
                      rows=len(reader)):
            t0 = time.perf_counter()
            writer = ShardWriter(
                out_dir,
                chunk_rows=reader.manifest.chunk_rows,
                meta={
                    "kind": "fstore_features",
                    "view": view.name,
                    "view_fingerprint": view.fingerprint(),
                    "cache_key": key,
                },
            )
            streams: dict[str, object] = {}
            with writer:
                for tbl in reader.iter_chunks(view.source_columns()):
                    cols = {}
                    for f in view.features:
                        op = OPS[f.op]
                        srcs = [np.asarray(tbl[s]) for s in f.source]
                        if op.windowed:
                            carry = streams.setdefault(
                                f.name, op.make_stream(f.param_dict))
                            cols[f.name] = carry.apply(*srcs)
                        else:
                            cols[f.name] = op.apply_batch(srcs, f.param_dict)
                    writer.append(cols)
            elapsed = time.perf_counter() - t0
            obs.inc("fstore.shards_written_total")
        obs.inc("fstore.materializations_total")
        obs.inc("fstore.materialized_rows_total", len(reader))
        if elapsed > 0:
            obs.set_gauge("fstore.materialize_rows_per_s",
                          round(len(reader) / elapsed, 1))
        return ChunkReader(out_dir)
