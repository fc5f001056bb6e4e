"""ShardWriter/ChunkReader: determinism, atomicity, streaming reads."""

import numpy as np
import pytest

from repro.colstore import ChunkReader, Manifest, ShardWriter


def _columns(rows, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "f": rng.normal(size=rows),
        "i": np.arange(rows, dtype=np.int64),
        "s": np.asarray([f"run{k % 3}" for k in range(rows)]),
    }


class TestRoundTrip:
    def test_values_and_dtypes_survive(self, tmp_path):
        cols = _columns(23)
        with ShardWriter(tmp_path / "s", chunk_rows=7) as w:
            w.append(cols)
        t = ChunkReader(tmp_path / "s").read_table()
        assert np.array_equal(t["f"], cols["f"])
        assert np.array_equal(t["i"], cols["i"])
        assert t["i"].dtype == np.int64
        assert np.array_equal(t["s"].astype(str), cols["s"])

    def test_iter_chunks_streams_in_order(self, tmp_path):
        cols = _columns(23)
        with ShardWriter(tmp_path / "s", chunk_rows=7) as w:
            w.append(cols)
        reader = ChunkReader(tmp_path / "s")
        sizes = [len(c) for c in reader.iter_chunks()]
        assert sizes == [7, 7, 7, 2]
        got = np.concatenate(
            [np.asarray(c["f"]) for c in reader.iter_chunks()]
        )
        assert np.array_equal(got, cols["f"])

    def test_column_projection(self, tmp_path):
        with ShardWriter(tmp_path / "s", chunk_rows=8) as w:
            w.append(_columns(10))
        chunk = ChunkReader(tmp_path / "s").read_chunk(0, ["i"])
        assert chunk.column_names == ["i"]
        with pytest.raises(KeyError, match="no column"):
            ChunkReader(tmp_path / "s").read_chunk(0, ["missing"])

    def test_reads_are_memory_mapped(self, tmp_path):
        with ShardWriter(tmp_path / "s", chunk_rows=8) as w:
            w.append(_columns(10))
        chunk = ChunkReader(tmp_path / "s").read_chunk(0)
        assert isinstance(np.asarray(chunk["f"]).base, np.memmap) or \
            isinstance(chunk["f"], np.memmap)


class TestDeterministicChunking:
    def test_batch_split_invariance(self, tmp_path):
        """Appending in any batch sizes yields byte-identical stores."""
        cols = _columns(50)
        digests = []
        for i, cuts in enumerate([[50], [13, 17, 20], [1] * 50]):
            root = tmp_path / f"s{i}"
            with ShardWriter(root, chunk_rows=16) as w:
                start = 0
                for size in cuts:
                    w.append({n: a[start:start + size]
                              for n, a in cols.items()})
                    start += size
            digests.append(Manifest.load(root).digest())
        assert len(set(digests)) == 1

    def test_chunk_boundaries_fall_every_chunk_rows(self, tmp_path):
        with ShardWriter(tmp_path / "s", chunk_rows=16) as w:
            for k in range(5):
                w.append({n: a for n, a in _columns(10, seed=k).items()})
        m = Manifest.load(tmp_path / "s")
        assert [c.rows for c in m.chunks] == [16, 16, 16, 2]

    def test_matrix_column_chunks_along_rows(self, tmp_path):
        """A 2-D column is cut into row blocks, whatever the batches."""
        codes = np.arange(50 * 3, dtype=np.uint8).reshape(50, 3)
        with ShardWriter(tmp_path / "s", chunk_rows=16) as w:
            for start, stop in [(0, 13), (13, 30), (30, 50)]:
                w.append({"codes": codes[start:stop]})
        m = Manifest.load(tmp_path / "s")
        assert [c.rows for c in m.chunks] == [16, 16, 16, 2]
        for c, start in zip(m.chunks, range(0, 50, 16)):
            shard = np.load(str(tmp_path / "s" / c.files["codes"]),
                            mmap_mode="r")
            assert shard.dtype == np.uint8
            assert shard.tobytes() == codes[start:start + c.rows].tobytes()

    def test_scalar_column_raises(self, tmp_path):
        w = ShardWriter(tmp_path / "s", chunk_rows=8)
        with pytest.raises(ValueError, match=">= 1-D"):
            w.append({"v": np.float64(1.0)})


class TestSchemaStability:
    def test_kind_mismatch_raises(self, tmp_path):
        w = ShardWriter(tmp_path / "s", chunk_rows=8)
        w.append({"v": np.asarray([1.0, 2.0])})
        with pytest.raises(ValueError, match="schema mismatch"):
            w.append({"v": np.asarray([1, 2], dtype=np.int64)})

    def test_column_set_mismatch_raises(self, tmp_path):
        w = ShardWriter(tmp_path / "s", chunk_rows=8)
        w.append({"v": np.asarray([1.0])})
        with pytest.raises(ValueError, match="schema mismatch"):
            w.append({"w": np.asarray([1.0])})

    def test_ragged_batch_raises(self, tmp_path):
        w = ShardWriter(tmp_path / "s", chunk_rows=8)
        with pytest.raises(ValueError, match="ragged"):
            w.append({"a": np.asarray([1.0, 2.0]), "b": np.asarray([1.0])})

    def test_varying_string_width_is_fine(self, tmp_path):
        with ShardWriter(tmp_path / "s", chunk_rows=8) as w:
            w.append({"s": np.asarray(["ab"])})
            w.append({"s": np.asarray(["abcdefgh"])})
        t = ChunkReader(tmp_path / "s").read_table()
        assert t["s"].astype(str).tolist() == ["ab", "abcdefgh"]


class TestAtomicity:
    def test_unfinalized_store_is_unreadable(self, tmp_path):
        w = ShardWriter(tmp_path / "s", chunk_rows=4)
        w.append(_columns(9))  # flushes chunks, but no manifest yet
        assert not Manifest.exists(tmp_path / "s")
        with pytest.raises(FileNotFoundError):
            ChunkReader(tmp_path / "s")

    def test_rewrite_drops_stale_chunks(self, tmp_path):
        with ShardWriter(tmp_path / "s", chunk_rows=4) as w:
            w.append(_columns(12))  # 3 chunks
        with ShardWriter(tmp_path / "s", chunk_rows=4) as w:
            w.append(_columns(4))  # 1 chunk
        reader = ChunkReader(tmp_path / "s")
        assert reader.n_chunks == 1
        reader.validate()
        assert len(list((tmp_path / "s").glob("chunk-*"))) == 1

    def test_append_after_finalize_raises(self, tmp_path):
        w = ShardWriter(tmp_path / "s", chunk_rows=4)
        w.append(_columns(4))
        w.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            w.append(_columns(4))
        with pytest.raises(RuntimeError, match="finalized"):
            w.finalize()

    def test_exception_skips_commit(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with ShardWriter(tmp_path / "s", chunk_rows=4) as w:
                w.append(_columns(9))
                raise RuntimeError("boom")
        assert not Manifest.exists(tmp_path / "s")


class TestEdges:
    def test_empty_store(self, tmp_path):
        with ShardWriter(tmp_path / "s") as w:
            pass
        reader = ChunkReader(tmp_path / "s")
        assert len(reader) == 0
        assert reader.n_chunks == 0
        assert len(reader.read_table()) == 0

    def test_zero_row_appends_are_noops(self, tmp_path):
        cols = _columns(5)
        with ShardWriter(tmp_path / "s", chunk_rows=4) as w:
            w.append({n: a[:0] for n, a in cols.items()})
            w.append(cols)
            w.append({n: a[:0] for n, a in cols.items()})
        reader = ChunkReader(tmp_path / "s")
        assert len(reader) == 5
        assert np.array_equal(reader.read_table()["f"], cols["f"])

    def test_rows_written_property(self, tmp_path):
        w = ShardWriter(tmp_path / "s", chunk_rows=4)
        w.append(_columns(9))
        assert w.rows_written == 9
