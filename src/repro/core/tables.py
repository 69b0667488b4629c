"""Plain-text result tables.

Every experiment returns a :class:`Table`; ``render()`` prints the
same rows/columns the paper's artefact reports.  A table stores its
rows as plain lists, so the parallel runner and the result cache
pickle it with the default ``__slots__`` pickling and loading a cached
table imports nothing beyond this module.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

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


class Table:
    """A titled grid of results."""

    __slots__ = ("title", "columns", "rows")

    def __init__(self, title: str, columns: Sequence[str],
                 rows: Sequence[Sequence[Any]] = ()) -> None:
        self.title = title
        self.columns = list(columns)
        #: one list of cells per row, in insertion order
        self.rows: List[List[Any]] = []
        for row in rows:
            self.add_row(*row)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_dict_row(self, d: Dict[str, Any]) -> None:
        self.add_row(*(d.get(c, "") for c in self.columns))

    def column(self, name: str) -> List[Any]:
        try:
            i = self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"no column {name!r}; have {list(self.columns)}"
            ) from None
        return [row[i] for row in self.rows]

    def cell(self, row: int, column: str) -> Any:
        return self.column(column)[row]

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
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (self.title == other.title
                and self.columns == other.columns
                and self.rows == other.rows)

    def __repr__(self) -> str:
        return (f"Table(title={self.title!r}, "
                f"columns={self.columns!r}, rows={len(self)})")
