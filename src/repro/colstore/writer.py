"""``ShardWriter`` -- append column batches, get an atomic chunked store.

The writer owns three invariants:

* **Deterministic chunking** -- chunk boundaries fall every
  ``chunk_rows`` rows of the logical stream, regardless of how callers
  batch their :meth:`ShardWriter.append` calls.  Appending the same
  rows in different batch sizes yields byte-identical shards and the
  same manifest digest.
* **Atomic shards** -- every ``.npy`` goes through temp + flush +
  fsync + ``os.replace`` (the :class:`repro.par.NpzCache` discipline),
  and the manifest -- the commit record -- is written only by
  :meth:`finalize`.  A writer killed mid-stream leaves either the
  previous store or orphan chunk files a future writer overwrites;
  never a readable-but-torn dataset.
* **Schema stability** -- the first append fixes column names, order
  and dtype kinds; later batches must match (string widths may vary,
  value kinds may not).

Object-dtype columns (Python strings) are converted to fixed-width
``<U`` arrays on write so every shard is a plain, memory-mappable
buffer.  A column may be N-D with rows along its first axis (the
pipeline's ``(rows, d)`` uint8 codes store); :class:`ChunkReader`
Tables only hold 1-D columns, so such shards are mapped by path.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil
import time
from collections.abc import Mapping

import numpy as np

from repro import obs
from repro.colstore.manifest import (
    COLSTORE_VERSION,
    MANIFEST_NAME,
    ChunkMeta,
    Manifest,
    chunk_dirname,
)

__all__ = ["DEFAULT_CHUNK_ROWS", "ShardWriter"]

#: Rows per chunk.  262144 raw telemetry rows are ~50 MiB across the
#: full 29-column schema -- big enough to amortize per-chunk overhead,
#: small enough that a handful of chunk working sets fit in laptop RAM.
DEFAULT_CHUNK_ROWS = 262_144


def _normalize_column(name: str, arr) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim < 1:
        raise ValueError(f"column {name!r} must be >= 1-D, got shape "
                         f"{arr.shape}")
    if arr.dtype == object:
        # Fixed-width unicode is mmappable; object buffers are pointers.
        arr = arr.astype(str)
    return arr


def _dtype_kind(arr: np.ndarray) -> str:
    return arr.dtype.kind


class ShardWriter:
    """Stream column batches into a fresh chunked store directory."""

    def __init__(
        self,
        root: str | os.PathLike,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        meta: dict | None = None,
    ):
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.root = pathlib.Path(root)
        self.chunk_rows = int(chunk_rows)
        self.meta = dict(meta or {})
        self._schema: list[tuple[str, str]] | None = None
        #: Per-column list of pending (not yet flushed) batch arrays.
        self._buffers: dict[str, list[np.ndarray]] = {}
        self._buffered_rows = 0
        self._chunks: list[ChunkMeta] = []
        self._finalized = False
        self._t0 = time.perf_counter()
        self._reset_dir()

    # -- lifecycle ----------------------------------------------------------- #

    def _reset_dir(self) -> None:
        """Make the directory ours: drop any previous manifest + chunks.

        Removing the manifest *first* un-commits the old store before
        any shard is disturbed, so a crash mid-reset cannot leave a
        manifest pointing at deleted shards.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / MANIFEST_NAME).unlink(missing_ok=True)
        for p in self.root.glob("chunk-*"):
            if p.is_dir():
                shutil.rmtree(p)

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()

    # -- appending ----------------------------------------------------------- #

    def _fix_schema(self, columns: dict[str, np.ndarray]) -> None:
        self._schema = [(n, _dtype_kind(a)) for n, a in columns.items()]
        self._buffers = {n: [] for n in columns}

    def _check_schema(self, columns: dict[str, np.ndarray]) -> None:
        expected = self._schema
        got = [(n, _dtype_kind(a)) for n, a in columns.items()]
        if got != expected:
            raise ValueError(
                f"append schema mismatch: store has {expected}, "
                f"batch has {got}"
            )

    def append(self, columns: Mapping[str, np.ndarray] | "object") -> None:
        """Append one batch of rows (a ``{name: array}`` mapping or Table)."""
        if self._finalized:
            raise RuntimeError("writer is finalized")
        if not isinstance(columns, Mapping):
            # Duck-typed Table: iterate its columns in declared order.
            columns = {n: columns[n] for n in columns.column_names}
        batch = {n: _normalize_column(n, a) for n, a in columns.items()}
        lengths = {len(a) for a in batch.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged batch: column lengths {sorted(lengths)}")
        if self._schema is None:
            self._fix_schema(batch)
        else:
            self._check_schema(batch)
        rows = lengths.pop() if lengths else 0
        if rows == 0:
            return
        for n, a in batch.items():
            self._buffers[n].append(a)
        self._buffered_rows += rows
        while self._buffered_rows >= self.chunk_rows:
            self._flush_chunk(self.chunk_rows)

    # -- flushing ------------------------------------------------------------ #

    def _take_rows(self, name: str, rows: int) -> np.ndarray:
        """Pop exactly ``rows`` leading rows from one column's buffer."""
        parts: list[np.ndarray] = []
        need = rows
        buf = self._buffers[name]
        while need > 0:
            head = buf[0]
            if len(head) <= need:
                parts.append(buf.pop(0))
                need -= len(head)
            else:
                parts.append(head[:need])
                buf[0] = head[need:]
                need = 0
        if len(parts) == 1:
            return np.ascontiguousarray(parts[0])
        # Bounded concat: at most one chunk's rows, never the dataset.
        return np.concatenate(parts)

    def _write_shard(self, path: pathlib.Path, arr: np.ndarray
                     ) -> tuple[str, int]:
        """Atomically persist one column shard; returns (sha256, nbytes)."""
        arr = np.ascontiguousarray(arr)
        digest = hashlib.sha256(arr.tobytes()).hexdigest()
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as f:
                np.save(f, arr)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return digest, int(arr.nbytes)

    def _flush_chunk(self, rows: int) -> None:
        t0 = time.perf_counter()
        index = len(self._chunks)
        cdir = self.root / chunk_dirname(index)
        cdir.mkdir(parents=True, exist_ok=True)
        files: dict[str, str] = {}
        dtypes: dict[str, str] = {}
        shas: dict[str, str] = {}
        nbytes: dict[str, int] = {}
        total_bytes = 0
        for name, _kind in self._schema:
            arr = self._take_rows(name, rows)
            rel = f"{chunk_dirname(index)}/{name}.npy"
            sha, nb = self._write_shard(self.root / rel, arr)
            files[name] = rel
            dtypes[name] = str(arr.dtype)
            shas[name] = sha
            nbytes[name] = nb
            total_bytes += nb
        self._chunks.append(ChunkMeta(
            index=index, rows=rows, files=files, dtypes=dtypes,
            sha256=shas, nbytes=nbytes,
        ))
        self._buffered_rows -= rows
        obs.inc("colstore.chunks_written_total")
        obs.inc("colstore.rows_written_total", rows)
        obs.inc("colstore.bytes_written_total", total_bytes)
        obs.observe("colstore.chunk_write_s", time.perf_counter() - t0)

    # -- commit -------------------------------------------------------------- #

    @property
    def rows_written(self) -> int:
        return sum(c.rows for c in self._chunks) + self._buffered_rows

    def finalize(self) -> Manifest:
        """Flush the tail chunk and commit the manifest; returns it."""
        if self._finalized:
            raise RuntimeError("writer is already finalized")
        if self._schema is None:
            self._fix_schema({})
        if self._buffered_rows > 0:
            self._flush_chunk(self._buffered_rows)
        manifest = Manifest(
            schema=list(self._schema),
            chunks=list(self._chunks),
            chunk_rows=self.chunk_rows,
            writer_version=COLSTORE_VERSION,
            meta=self.meta,
        )
        manifest.save(self.root)
        self._finalized = True
        elapsed = time.perf_counter() - self._t0
        if elapsed > 0:
            obs.set_gauge("colstore.write_rows_per_s",
                          round(manifest.total_rows / elapsed, 1))
        obs.get_logger("colstore").info(
            "store finalized", root=str(self.root),
            rows=manifest.total_rows, chunks=len(manifest.chunks),
        )
        return manifest
