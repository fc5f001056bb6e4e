"""``ChunkReader`` -- stream a chunked store back as per-chunk Tables.

Every shard is opened with ``np.load(..., mmap_mode="r")``, so a chunk
Table is a set of file-backed views: touching a column faults in pages,
dropping the Table releases them.  Iterating a 10M-row store therefore
holds one chunk's working set in RAM at a time -- the property the
out-of-core pipeline (and ``benchmarks/bench_colstore.py``) is built on.

``read_table`` is the explicit, opt-in gather-everything escape hatch
for small stores and tests; library streaming paths must not call it
(``tools/check_colstore.py`` enforces that no full-manifest concat
hides in this module outside ``read_table`` itself).
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import time
from collections.abc import Iterator, Sequence

import numpy as np

from repro import obs
from repro.colstore.manifest import ChunkMeta, Manifest
from repro.datasets.frame import Table

__all__ = ["ChunkReader"]


class ChunkReader:
    """Streaming, memory-mapped access to one finalized store."""

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        self.manifest = Manifest.load(self.root)

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

    def _load_shard(self, chunk: ChunkMeta, name: str) -> np.ndarray:
        path = self.root / chunk.files[name]
        # mmap keeps RSS bounded by the pages actually touched; the
        # mapping dies with the returned array's last reference.  A str
        # path: for a Path, np.memmap resolves it (one lstat per path
        # component) on every load.
        return np.load(str(path), mmap_mode="r")

    def read_chunk(self, index: int,
                   columns: Sequence[str] | None = None) -> Table:
        """One chunk as a Table of memory-mapped column views."""
        names = self._check_columns(columns)
        chunk = self.manifest.chunks[index]
        t0 = time.perf_counter()
        cols = {n: self._load_shard(chunk, n) for n in names}
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
        """Re-hash every shard against the manifest; raises on mismatch."""
        for chunk in self.manifest.chunks:
            for name, rel in chunk.files.items():
                path = self.root / rel
                if not path.is_file():
                    raise FileNotFoundError(
                        f"manifest lists {rel} but the shard is missing"
                    )
                arr = np.ascontiguousarray(np.load(path, mmap_mode="r"))
                digest = hashlib.sha256(arr.tobytes()).hexdigest()
                if digest != chunk.sha256[name]:
                    raise ValueError(
                        f"shard {rel} content hash mismatch: store is "
                        "corrupt (expected "
                        f"{chunk.sha256[name][:12]}..., got {digest[:12]}...)"
                    )
        obs.inc("colstore.validations_total")
