"""Plain-text result tables on a columnar payload.

Every experiment returns a :class:`Table`; ``render()`` prints the
same rows/columns the paper's artefact reports.

Storage is **column-major**: one Python list per column.  The parallel
runner and the result cache pickle whole tables with the default
``__slots__`` pickling, so columns travel as plain lists and loading a
cached table imports nothing beyond this module.  The row-oriented API
(:meth:`add_row`, :attr:`rows`, :meth:`cell`) is preserved via
lightweight row views, and ``render()`` output is byte-for-byte what
the row-major table printed.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Sequence

__all__ = ["Table"]


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:.0f}"
        if abs(v) >= 10:
            return f"{v:.1f}"
        return f"{v:.3g}"
    return str(v)


class _RowsView(Sequence):
    """Read-only row-major view over the columnar payload."""

    __slots__ = ("_table",)

    def __init__(self, table: "Table") -> None:
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("row index out of range")
        return [col[i] for col in self._table._data]

    def __iter__(self) -> Iterator[List[Any]]:
        data = self._table._data
        return (list(row) for row in zip(*data)) if data else iter(())

    def __eq__(self, other) -> bool:
        if isinstance(other, _RowsView):
            other = list(other)
        return list(self) == other

    def __repr__(self) -> str:
        return repr(list(self))


class Table:
    """A titled grid of results (columnar storage, row-style API)."""

    __slots__ = ("title", "columns", "_data")

    def __init__(self, title: str, columns: Sequence[str],
                 rows: Sequence[Sequence[Any]] = ()) -> None:
        self.title = title
        self.columns = list(columns)
        self._data: List[List[Any]] = [[] for _ in self.columns]
        for row in rows:
            self.add_row(*row)

    # -- the row-oriented write/read API -------------------------------------

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns"
            )
        for col, v in zip(self._data, values):
            col.append(v)

    def add_dict_row(self, d: Dict[str, Any]) -> None:
        self.add_row(*(d.get(c, "") for c in self.columns))

    @property
    def rows(self) -> _RowsView:
        """Rows as a sequence of lists (views over the columns)."""
        return _RowsView(self)

    def column(self, name: str) -> List[Any]:
        try:
            i = list(self.columns).index(name)
        except ValueError:
            raise KeyError(
                f"no column {name!r}; have {list(self.columns)}"
            ) from None
        return list(self._data[i])

    def cell(self, row: int, column: str) -> Any:
        return self.column(column)[row]

    # -- the columnar API ----------------------------------------------------

    def to_columns(self) -> Dict[str, List[Any]]:
        """``{column name: cell list}`` — the native payload."""
        return {c: list(col)
                for c, col in zip(self.columns, self._data)}

    @classmethod
    def from_columns(cls, title: str,
                     columns: Dict[str, Sequence[Any]]) -> "Table":
        """Build a table column-wise (all columns same length)."""
        t = cls(title, list(columns))
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"ragged columns: lengths {sorted(lengths)}"
            )
        t._data = [list(v) for v in columns.values()]
        return t

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        cells = [[_fmt(c) for c in row] for row in self.rows]
        headers = [str(c) for c in self.columns]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in cells))
            if cells else len(headers[i])
            for i in range(len(headers))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [
            self.title,
            "=" * len(self.title),
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            sep,
        ]
        for row in cells:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(row, widths))
            )
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [
            "| " + " | ".join(str(c) for c in self.columns) + " |",
            "|" + "|".join("---" for _ in self.columns) + "|",
        ]
        for row in self.rows:
            lines.append("| " + " | ".join(_fmt(c) for c in row) + " |")
        return "\n".join(lines)

    # -- dunder plumbing -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._data[0]) if self._data else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (self.title == other.title
                and self.columns == other.columns
                and self._data == other._data)

    def __repr__(self) -> str:
        return (f"Table(title={self.title!r}, "
                f"columns={self.columns!r}, rows={len(self)})")
