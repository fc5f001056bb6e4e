"""``ChunkReader`` -- stream a chunked store back as per-chunk Tables.

Opening a reader parses every shard's ``.npy`` header once -- dtype,
shape, data offset -- and checks it against the manifest's ``dtypes``,
``rows`` and ``nbytes`` and against the file's size, so a shard that
disagrees with its manifest, or is truncated, raises ``ValueError``
before anything is mapped.  Every later read is one plain
``np.memmap`` of the data behind that header: a chunk Table is a set
of file-backed views, touching a column faults in pages, dropping the
Table releases them.  No mapping or file handle outlives the arrays a
read returns, so a store pass re-maps one chunk at a time and pays for
its data, not for re-parsing headers.  Iterating a 10M-row store
therefore holds one chunk's working set in RAM at a time -- the
property the out-of-core pipeline (and ``benchmarks/bench_colstore.py``)
is built on.

:meth:`ChunkReader.read_column` maps one shard of any rank (the
pipeline's ``(rows, d)`` uint8 codes; a Table holds only 1-D columns).
``read_table`` is the explicit, opt-in gather-everything escape hatch
for small stores and tests; library streaming paths must not call it
(lint rule ``colstore.full-gather``: no full-manifest concat
hides in this module outside ``read_table`` itself).
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import time
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np
from numpy.lib import format as npy_format

from repro import obs
from repro.colstore.manifest import ChunkMeta, Manifest
from repro.datasets.frame import Table

__all__ = ["ChunkReader"]


class _Shard(NamedTuple):
    """Where one shard's data lies, from its header parsed once."""

    path: str
    dtype: np.dtype
    shape: tuple[int, ...]
    order: str
    offset: int


_HEADER_READERS = {(1, 0): npy_format.read_array_header_1_0,
                   (2, 0): npy_format.read_array_header_2_0}


def _parse_shard(root: pathlib.Path, chunk: ChunkMeta, name: str) -> _Shard:
    """Parse one shard's header and check it against the manifest.

    Raises ``ValueError`` when the header's dtype, row count or byte
    count disagrees with ``chunk``, or when the file does not end
    exactly where that data does (a truncated or overwritten shard).
    The path is a ``str``: for a Path, ``np.memmap`` resolves it (one
    lstat per path component) on every map.
    """
    path = str(root / chunk.files[name])
    with open(path, "rb") as f:
        version = npy_format.read_magic(f)
        if version not in _HEADER_READERS:
            raise ValueError(f"shard {path}: unsupported .npy format "
                             f"version {version}")
        shape, fortran_order, dtype = _HEADER_READERS[version](f)
        offset = f.tell()
        size = os.fstat(f.fileno()).st_size
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if (str(dtype) != chunk.dtypes[name] or not shape
            or shape[0] != chunk.rows or nbytes != chunk.nbytes[name]):
        raise ValueError(
            f"shard {path} holds {dtype}{list(shape)} ({nbytes} B); the "
            f"manifest records {chunk.dtypes[name]} x {chunk.rows} rows "
            f"({chunk.nbytes[name]} B)")
    if size != offset + nbytes:
        raise ValueError(
            f"shard {path} is {size} B; its header promises "
            f"{offset + nbytes} B (truncated or overwritten)")
    return _Shard(path, dtype, tuple(shape), "F" if fortran_order else "C",
                  offset)


def _map(shard: _Shard) -> np.ndarray:
    # mmap keeps RSS bounded by the pages actually touched; the mapping
    # dies with the returned array's last reference.
    return np.memmap(shard.path, shard.dtype, "r", shard.offset,
                     shard.shape, shard.order)


class ChunkReader:
    """Streaming, memory-mapped access to one finalized store."""

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        self.manifest = Manifest.load(self.root)
        #: Per chunk, column -> its parsed shard header; the only state
        #: a reader keeps besides the manifest.
        self._shards = [
            {name: _parse_shard(self.root, chunk, name)
             for name in chunk.files}
            for chunk in self.manifest.chunks
        ]

    # -- shape --------------------------------------------------------------- #

    def __len__(self) -> int:
        return self.manifest.total_rows

    @property
    def n_chunks(self) -> int:
        return len(self.manifest.chunks)

    @property
    def column_names(self) -> list[str]:
        return self.manifest.column_names

    def __repr__(self) -> str:
        return (f"ChunkReader({self.root}, {len(self)} rows x "
                f"{len(self.manifest.schema)} cols, {self.n_chunks} chunks)")

    # -- streaming ----------------------------------------------------------- #

    def _check_columns(self, columns: Sequence[str] | None) -> list[str]:
        names = self.manifest.column_names
        if columns is None:
            return names
        missing = [c for c in columns if c not in names]
        if missing:
            raise KeyError(
                f"store has no column(s) {missing}; available: {names}"
            )
        return list(columns)

    def read_column(self, index: int, name: str) -> np.ndarray:
        """One chunk's shard of one column, memory-mapped, of any rank."""
        self._check_columns([name])
        obs.inc("colstore.bytes_read_total",
                self.manifest.chunks[index].nbytes[name])
        return _map(self._shards[index][name])

    def read_chunk(self, index: int,
                   columns: Sequence[str] | None = None) -> Table:
        """One chunk as a Table of memory-mapped column views."""
        names = self._check_columns(columns)
        chunk = self.manifest.chunks[index]
        shards = self._shards[index]
        t0 = time.perf_counter()
        cols = {n: _map(shards[n]) for n in names}
        obs.inc("colstore.chunks_read_total")
        obs.inc("colstore.rows_read_total", chunk.rows)
        obs.inc("colstore.bytes_read_total",
                sum(chunk.nbytes[n] for n in names))
        obs.observe("colstore.chunk_read_s", time.perf_counter() - t0)
        return Table(cols)

    def iter_chunks(self, columns: Sequence[str] | None = None
                    ) -> Iterator[Table]:
        """Yield every chunk in order as a memory-mapped Table view."""
        names = self._check_columns(columns)
        t0 = time.perf_counter()
        rows = 0
        for i in range(self.n_chunks):
            table = self.read_chunk(i, names)
            rows += len(table)
            yield table
        elapsed = time.perf_counter() - t0
        if elapsed > 0 and rows:
            obs.set_gauge("colstore.read_rows_per_s",
                          round(rows / elapsed, 1))

    # -- whole-store convenience (small data / tests only) ------------------- #

    def read_table(self, columns: Sequence[str] | None = None) -> Table:
        """Materialize the whole store as one in-memory Table.

        The explicit escape hatch for paper-scale data and tests; on a
        10M-row store this is exactly the allocation the streaming
        pipeline exists to avoid, so library code must stream instead
        (the colstore lint keeps concat out of every other path here).
        """
        names = self._check_columns(columns)
        chunks = [self.read_chunk(i, names) for i in range(self.n_chunks)]
        if not chunks:
            return Table({})
        return Table.concat(chunks)

    # -- integrity ------------------------------------------------------------ #

    def validate(self) -> None:
        """Re-parse and re-hash every shard against the manifest.

        Raises on a missing shard, a header or size that disagrees with
        the manifest, or a content hash mismatch.
        """
        for chunk in self.manifest.chunks:
            for name, rel in chunk.files.items():
                path = self.root / rel
                if not path.is_file():
                    raise FileNotFoundError(
                        f"manifest lists {rel} but the shard is missing"
                    )
                arr = _map(_parse_shard(self.root, chunk, name))
                digest = hashlib.sha256(arr.tobytes()).hexdigest()
                if digest != chunk.sha256[name]:
                    raise ValueError(
                        f"shard {rel} content hash mismatch: store is "
                        "corrupt (expected "
                        f"{chunk.sha256[name][:12]}..., got {digest[:12]}...)"
                    )
        obs.inc("colstore.validations_total")
