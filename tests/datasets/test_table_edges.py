"""Table edge cases the columnar store path exposes.

The shard writer/reader feeds Tables of unusual shapes back through the
frame: empty stores, zero-row chunks after filtering, mixed-dtype chunk
concatenation, and CSV round-trips of NaN / UNAVAILABLE sentinel values.
These tests pin the behaviors the store relies on.
"""

import io

import numpy as np
import pytest

from repro.datasets.frame import Table
from repro.radio.signal import UNAVAILABLE


class TestEmptyTable:
    def test_empty_construction(self):
        t = Table({})
        assert len(t) == 0
        assert t.column_names == []

    def test_empty_columns_roundtrip_csv(self):
        t = Table({"a": np.asarray([], dtype=float),
                   "b": np.asarray([], dtype=float)})
        back = Table.from_csv(io.StringIO(t.to_csv_string()))
        assert back.column_names == ["a", "b"]
        assert len(back) == 0

    def test_from_records_no_rows_keeps_fields(self):
        t = Table.from_records([], ["x", "y"])
        assert t.column_names == ["x", "y"]
        assert len(t) == 0

    def test_concat_of_nothing_is_empty(self):
        assert len(Table.concat([])) == 0

    def test_concat_of_empty_tables_keeps_first_schema(self):
        a = Table({"x": np.asarray([], dtype=np.int64),
                   "s": np.asarray([], dtype="U3")})
        b = Table({"x": np.asarray([], dtype=float),
                   "s": np.asarray([], dtype="U9")})
        out = Table.concat([a, b])
        assert out.column_names == ["x", "s"]
        assert len(out) == 0
        assert (out["x"].dtype, out["s"].dtype) == (np.int64, np.dtype("U3"))

    def test_concat_skips_empty_tables(self):
        t = Table({"a": [1.0, 2.0]})
        out = Table.concat([Table({"a": np.asarray([], dtype=float)}), t])
        assert np.array_equal(out["a"], [1.0, 2.0])


class TestConcatDtypes:
    def test_int_float_promotes_to_float(self):
        a = Table({"v": np.asarray([1, 2], dtype=np.int64)})
        b = Table({"v": np.asarray([0.5], dtype=np.float64)})
        out = Table.concat([a, b])
        assert out["v"].dtype == np.float64
        assert np.array_equal(out["v"], [1.0, 2.0, 0.5])

    def test_same_dtype_is_preserved(self):
        a = Table({"v": np.asarray([1, 2], dtype=np.int64)})
        b = Table({"v": np.asarray([3], dtype=np.int64)})
        assert Table.concat([a, b])["v"].dtype == np.int64

    def test_unicode_widths_promote(self):
        a = Table({"s": np.asarray(["ab"])})
        b = Table({"s": np.asarray(["abcdef"])})
        out = Table.concat([a, b])
        assert out["s"].tolist() == ["ab", "abcdef"]

    def test_column_set_mismatch_raises(self):
        a = Table({"v": [1.0]})
        b = Table({"w": [1.0]})
        with pytest.raises(ValueError, match="different columns"):
            Table.concat([a, b])

    def test_concat_copies_single_input(self):
        """Even a one-table concat must return fresh storage -- the
        store mutates concat outputs while inputs stay mmap-backed."""
        a = Table({"v": np.asarray([1.0, 2.0])})
        out = Table.concat([a])
        out["v"][0] = 99.0
        assert a["v"][0] == 1.0


class TestZeroRowSelection:
    def test_all_false_filter(self):
        t = Table({"v": [1.0, 2.0], "s": np.asarray(["a", "b"])})
        out = t.filter(np.zeros(2, dtype=bool))
        assert len(out) == 0
        assert out.column_names == ["v", "s"]
        assert out["v"].dtype == np.float64

    def test_empty_take(self):
        t = Table({"v": [1.0, 2.0]})
        out = t.take(np.asarray([], dtype=int))
        assert len(out) == 0

    def test_zero_row_filter_concats_cleanly(self):
        t = Table({"v": [1.0, 2.0]})
        empty = t.filter(np.zeros(2, dtype=bool))
        out = Table.concat([empty, t])
        assert np.array_equal(out["v"], [1.0, 2.0])

    def test_mask_length_mismatch_raises(self):
        t = Table({"v": [1.0, 2.0]})
        with pytest.raises(ValueError, match="mask length"):
            t.filter(np.zeros(3, dtype=bool))


class TestCsvSentinels:
    def test_nan_roundtrip(self):
        t = Table({"v": [1.0, np.nan, 3.0]})
        back = Table.from_csv(io.StringIO(t.to_csv_string()))
        v = np.asarray(back["v"], dtype=float)
        assert np.array_equal(v, t["v"], equal_nan=True)

    def test_unavailable_sentinel_roundtrip_exact(self):
        t = Table({"rsrp": [UNAVAILABLE, -85.5, UNAVAILABLE]})
        back = Table.from_csv(io.StringIO(t.to_csv_string()))
        assert np.array_equal(back["rsrp"], t["rsrp"])

    def test_mixed_string_and_sentinel_columns(self):
        t = Table({
            "radio": np.asarray(["5G", "LTE"], dtype=object),
            "nr_rsrp": [-80.0, UNAVAILABLE],
        })
        back = Table.from_csv(io.StringIO(t.to_csv_string()))
        assert back["radio"].tolist() == ["5G", "LTE"]
        assert np.array_equal(back["nr_rsrp"], t["nr_rsrp"])
