"""A small column-oriented table, the repo's DataFrame stand-in.

pandas is not available in this environment, so datasets flow through
:class:`Table` -- a dict of named numpy columns with the handful of
operations the pipeline needs: row filtering by boolean mask, column
selection, group-by, sorting, concatenation and CSV round-tripping.
String columns are stored as object arrays; numeric columns as float64 or
int64.
"""

from __future__ import annotations

import csv
import io
import operator
from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np


class Table:
    """Immutable-ish column table: ``{name: np.ndarray}`` of equal length."""

    def __init__(self, columns: Mapping[str, Sequence | np.ndarray]):
        self._columns: dict[str, np.ndarray] = {}
        length = None
        for name, values in columns.items():
            arr = np.asarray(values)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D")
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise ValueError(
                    f"column {name!r} has length {len(arr)}, expected {length}"
                )
            self._columns[name] = arr
        self._length = length or 0

    # -- basic protocol ---------------------------------------------------- #

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {sorted(self._columns)}"
            ) from None

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def __repr__(self) -> str:
        return f"Table({len(self)} rows x {len(self._columns)} cols)"

    # -- construction ------------------------------------------------------ #

    @classmethod
    def from_records(cls, records: Iterable, fields: Sequence[str]) -> "Table":
        """Build from an iterable of objects with the named attributes.

        Columnar build: one C-level ``attrgetter`` pass over the records
        transposes them into per-field value tuples, instead of a Python
        ``getattr`` loop per field x row.  Values and dtypes are
        identical to the per-row construction.
        """
        fields = list(fields)
        rows = list(records)
        if not rows or not fields:
            return cls({f: np.asarray([]) for f in fields})
        getter = operator.attrgetter(*fields)
        if len(fields) == 1:
            columns = ([getter(r) for r in rows],)
        else:
            columns = zip(*map(getter, rows))
        return cls({
            f: np.asarray(col) for f, col in zip(fields, columns)
        })

    @classmethod
    def concat(cls, tables: Sequence["Table"]) -> "Table":
        """Stack tables with identical column sets.

        Each output column is preallocated once at its promoted dtype
        (``np.result_type`` over the non-empty inputs -- the same
        promotion ``np.concatenate`` applies) and filled slice by slice,
        so no intermediate per-part list of casted copies is built.
        When every input is empty the result is the first input's
        columns with zero rows.
        """
        tables = list(tables)
        tables = [t for t in tables if len(t)] or tables[:1]
        if not tables:
            return cls({})
        names = tables[0].column_names
        for t in tables[1:]:
            if t.column_names != names:
                raise ValueError("cannot concat tables with different columns")
        total = sum(len(t) for t in tables)
        columns: dict[str, np.ndarray] = {}
        for n in names:
            dtype = np.result_type(*(t[n].dtype for t in tables))
            out = np.empty(total, dtype=dtype)
            pos = 0
            for t in tables:
                part = t[n]
                out[pos:pos + len(part)] = part
                pos += len(part)
            columns[n] = out
        return cls(columns)

    # -- transformation ---------------------------------------------------- #

    def filter(self, mask: np.ndarray) -> "Table":
        """Select rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(self):
            raise ValueError("mask length mismatch")
        return Table({n: c[mask] for n, c in self._columns.items()})

    def take(self, indices: np.ndarray) -> "Table":
        """Select rows by integer index array (allows reordering)."""
        indices = np.asarray(indices, dtype=int)
        return Table({n: c[indices] for n, c in self._columns.items()})

    def select(self, names: Sequence[str]) -> "Table":
        """Keep only the named columns, in order."""
        return Table({n: self[n] for n in names})

    def with_column(self, name: str, values: Sequence | np.ndarray) -> "Table":
        """Return a copy with one column added or replaced."""
        cols = dict(self._columns)
        arr = np.asarray(values)
        if len(arr) != len(self):
            raise ValueError("new column length mismatch")
        cols[name] = arr
        return Table(cols)

    def sort_by(self, *names: str) -> "Table":
        """Stable sort by one or more columns (last name varies slowest)."""
        order = np.lexsort(tuple(self[n] for n in names))
        return self.take(order)

    def groupby(self, *names: str) -> dict[tuple, "Table"]:
        """Split into sub-tables keyed by unique combinations of columns."""
        if not names:
            raise ValueError("groupby needs at least one column")
        keys = list(zip(*(self[n].tolist() for n in names)))
        index: dict[tuple, list[int]] = {}
        for i, key in enumerate(keys):
            index.setdefault(key, []).append(i)
        return {k: self.take(np.asarray(idx)) for k, idx in index.items()}

    def unique(self, name: str) -> np.ndarray:
        return np.unique(self[name])

    def to_matrix(self, names: Sequence[str]) -> np.ndarray:
        """Float matrix of the named columns (the X of an ML problem)."""
        return np.column_stack(
            [np.asarray(self[n], dtype=float) for n in names]
        )

    # -- CSV I/O ------------------------------------------------------------ #

    def to_csv(self, path_or_buf) -> None:
        """Write as CSV (header + rows).

        Batched formatting: columns are converted to native Python
        scalars once (``tolist``) and streamed through ``writerows``'s C
        loop.  ``str()`` of a native scalar matches ``str()`` of the
        numpy scalar it came from (shortest-repr floats), so the bytes
        are identical to the old per-row loop.
        """
        own = isinstance(path_or_buf, (str, bytes))
        f = open(path_or_buf, "w", newline="") if own else path_or_buf
        try:
            writer = csv.writer(f)
            names = self.column_names
            writer.writerow(names)
            writer.writerows(
                zip(*(self._columns[n].tolist() for n in names))
            )
        finally:
            if own:
                f.close()

    @classmethod
    def from_csv(cls, path_or_buf,
                 parsers: Mapping[str, Callable] | None = None) -> "Table":
        """Read a CSV; numeric-looking columns are parsed as float."""
        own = isinstance(path_or_buf, (str, bytes))
        f = open(path_or_buf, newline="") if own else path_or_buf
        try:
            reader = csv.reader(f)
            header = next(reader)
            raw: list[list[str]] = [[] for _ in header]
            for row in reader:
                for j, cell in enumerate(row):
                    raw[j].append(cell)
        finally:
            if own:
                f.close()
        columns: dict[str, np.ndarray] = {}
        for name, cells in zip(header, raw):
            if parsers and name in parsers:
                columns[name] = np.asarray([parsers[name](c) for c in cells])
                continue
            try:
                columns[name] = np.asarray([float(c) for c in cells])
            except ValueError:
                columns[name] = np.asarray(cells, dtype=object)
        return cls(columns)

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()
