"""The read path: headers parsed once per reader, every read a memmap.

``ChunkReader`` parses each shard's ``.npy`` header when it is opened
and checks it against the manifest; a read is then one ``np.memmap`` of
the data behind that header.  Three claims:

* **Same array as ``np.load``** -- for every column kind ``ShardWriter``
  writes, a read equals ``np.load(path, mmap_mode="r")`` in dtype,
  shape and bytes, and is still memory-mapped.
* **Refuse, never map past the end** -- a shard whose header disagrees
  with the manifest, or whose file is truncated, raises.
* **Header parsed once** (``test_bin_once.py``, ``TestHeaderParsedOnce``)
  -- a store fit parses no header during its passes.
"""

import numpy as np
import pytest

from repro.colstore import ChunkReader, Manifest, ShardWriter

ROWS, CHUNK_ROWS = 23, 8


def _kinds() -> dict[str, np.ndarray]:
    """One column of every kind the writer stores."""
    rng = np.random.default_rng(3)
    return {
        "f64": rng.normal(size=ROWS),
        "i64": np.arange(ROWS, dtype=np.int64) * -7,
        "flag": rng.random(ROWS) < 0.4,
        "label": np.asarray([f"run{k % 5}" * (1 + k % 3)
                             for k in range(ROWS)]),
        "obj": np.asarray([f"cell-{k}" for k in range(ROWS)], dtype=object),
    }


def _codes() -> np.ndarray:
    return np.arange(ROWS * 4, dtype=np.uint8).reshape(ROWS, 4)


@pytest.fixture
def store(tmp_path):
    root = tmp_path / "s"
    with ShardWriter(root, chunk_rows=CHUNK_ROWS) as w:
        w.append(_kinds())
    return root


@pytest.fixture
def codes_store(tmp_path):
    root = tmp_path / "codes"
    with ShardWriter(root, chunk_rows=CHUNK_ROWS) as w:
        w.append({"codes": _codes()})
    return root


def _shard(root, name, index=0):
    return root / Manifest.load(root).chunks[index].files[name]


def _assert_same_as_np_load(got: np.ndarray, path) -> None:
    want = np.load(str(path), mmap_mode="r")
    assert isinstance(got, np.memmap)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSameAsNpLoad:
    @pytest.mark.parametrize("name", list(_kinds()))
    def test_every_column_kind(self, store, name):
        reader = ChunkReader(store)
        assert reader.n_chunks == 3
        for i, chunk in enumerate(reader.manifest.chunks):
            path = store / chunk.files[name]
            _assert_same_as_np_load(reader.read_column(i, name), path)
            column = reader.read_chunk(i, [name])[name]
            assert column.tobytes() == np.load(path).tobytes()
            assert isinstance(column.base, np.memmap)

    def test_matrix_codes_column(self, codes_store):
        reader = ChunkReader(codes_store)
        codes = _codes()
        for i, chunk in enumerate(reader.manifest.chunks):
            got = reader.read_column(i, "codes")
            _assert_same_as_np_load(got, codes_store / chunk.files["codes"])
            start = i * CHUNK_ROWS
            assert got.tobytes() == codes[start:start + chunk.rows].tobytes()

    def test_fortran_order_shard(self, codes_store):
        """A column-major shard reads as ``np.load`` reads it."""
        path = _shard(codes_store, "codes")
        np.save(path, np.asfortranarray(np.load(path)))
        got = ChunkReader(codes_store).read_column(0, "codes")
        _assert_same_as_np_load(got, path)
        assert got.flags.f_contiguous

    def test_zero_row_appends_write_no_chunk(self, tmp_path):
        """The writer never writes a 0-row shard, so none is read."""
        with ShardWriter(tmp_path / "s", chunk_rows=CHUNK_ROWS) as w:
            w.append({n: a[:0] for n, a in _kinds().items()})
        reader = ChunkReader(tmp_path / "s")
        assert reader.n_chunks == 0
        assert list(reader.iter_chunks()) == []

    def test_unknown_column_raises(self, store):
        with pytest.raises(KeyError, match="no column"):
            ChunkReader(store).read_column(0, "missing")


class TestRefusesBadShards:
    def test_dtype_disagrees_with_manifest(self, store):
        path = _shard(store, "f64")
        np.save(path, np.load(path).astype(np.float32))
        with pytest.raises(ValueError, match="manifest records float64"):
            ChunkReader(store)

    def test_rows_disagree_with_manifest(self, store):
        path = _shard(store, "i64")
        np.save(path, np.load(path)[:-1])
        with pytest.raises(ValueError, match="manifest records"):
            ChunkReader(store)

    def test_shape_disagrees_with_manifest(self, codes_store):
        path = _shard(codes_store, "codes")
        np.save(path, np.load(path)[:, :3])
        with pytest.raises(ValueError, match="manifest records"):
            ChunkReader(codes_store)

    def test_truncated_shard(self, store):
        path = _shard(store, "f64", index=1)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            ChunkReader(store)

    def test_trailing_bytes(self, store):
        path = _shard(store, "label", index=2)
        path.write_bytes(path.read_bytes() + b"\0" * 16)
        with pytest.raises(ValueError, match="truncated or overwritten"):
            ChunkReader(store)

    def test_truncated_after_open_never_maps_past_the_end(self, store):
        reader = ChunkReader(store)
        path = _shard(store, "f64", index=1)
        path.write_bytes(path.read_bytes()[:-64])
        with pytest.raises(ValueError):
            reader.read_column(1, "f64")
        with pytest.raises(ValueError):
            reader.validate()

    def test_missing_shard(self, store):
        _shard(store, "flag").unlink()
        with pytest.raises(FileNotFoundError):
            ChunkReader(store)
