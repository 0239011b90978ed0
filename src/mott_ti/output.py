"""Machine-readable output: one envelope, two renderings (CSV and JSON).

Every envelope embeds the tool version, a fingerprint of the constants in
effect, and the full parameter echo, so any output file identifies the
invocation that produced it.  Rendering is deterministic: no timestamps,
fixed key order, Unix line endings, '.' decimal separator, and CSV cells
printed with 9 significant digits.

Both renderings write a table's rows with one printf-style ``%`` call over
one template.  The rows are flattened once, row-major, into the cells that
are the ``%`` arguments, and each column is a stride of them, read with no
transposing: a column whose cells are all finite floats is a float field
of the template (``%.9g`` in CSV, ``%r`` in JSON, which is json's own text
for a finite float), every other column's cells are rendered to text first
(CSV quoting, or ``json.dumps``), written back into their stride and filled
in through a ``%s`` field.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from math import isfinite
from operator import countOf

from . import __version__
from .constants import PhysicalConstants, Record


_FLOAT_FIELD = "%.9g"  # every float of a CSV document: 9 significant digits


def format_number(x: float) -> str:
    """CSV numeric cell: 9 significant digits."""
    return _FLOAT_FIELD % x


def _plain(value: object) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    return str(value)


def _csv_cell(value: object) -> str:
    text = _plain(value)
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _table(rows: Sequence[Sequence[object]], width: int, float_field: str, cell_text,
           cell_break: str, row_break: str) -> str:
    """Rows of a table, each of width cells, filled in by one printf-style %.

    The rows are flattened once, row-major, into the list of cells that is
    also the % argument tuple, so column i is the stride cells[i::width]: no
    transposing.  A column of floats (exact type: no bool, int or float
    subclass) whose sum is finite is a float_field of the template; any other
    column's cells go through cell_text, whose texts are written back into
    the same stride.  cell_text must give a finite float the float_field's
    text, and its texts are arguments, so a % in them is never parsed.
    """
    if countOf(map(len, rows), width) != len(rows):
        raise ValueError(f"every row must hold {width} cells, one per column")
    cells = []
    for row in rows:
        cells += row
    fields = []
    for i in range(width):
        column = cells[i::width]
        if countOf(map(type, column), float) == len(column) and isfinite(sum(column)):
            fields.append(float_field)
        else:
            fields.append("%s")
            cells[i::width] = map(cell_text, column)
    template = row_break.join([cell_break.join(fields)] * len(rows))
    return template % tuple(cells)


def _csv_table(columns: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Header line and rows of a CSV table; format_number's text never needs quoting."""
    header = ",".join(columns)
    if not rows:
        return header
    return header + "\n" + _table(rows, len(columns), _FLOAT_FIELD, _csv_cell, ",", "\n")


class OutputEnvelope(Record):
    """Tabular payload (columns x rows) plus scalar results and parameters.

    Rows (lists or tuples) hold one scalar (str, int, float, bool or None)
    per column; both renderings fill them into one template per table, and
    a row of another length raises ValueError.  No scalars is an empty dict.
    """

    __slots__ = ("params", "constants", "columns", "rows", "scalars")

    def __init__(
        self,
        params: dict[str, object],
        constants: PhysicalConstants,
        columns: Sequence[str] = (),
        rows: Sequence[Sequence[object]] = (),
        scalars: dict[str, object] | None = None,
    ) -> None:
        self._store(params, constants, columns, rows, {} if scalars is None else scalars)

    def metadata(self) -> dict[str, object]:
        return {
            "tool": "mott-ti",
            "version": __version__,
            "constants_fingerprint": self.constants.fingerprint(),
        }

    def to_json(self) -> str:
        import json  # ~2 ms to import: paid only by commands that print JSON

        data: dict[str, object] = dict(self.scalars)
        if self.columns:
            data["columns"] = list(self.columns)
            data["rows"] = []
        doc = {"metadata": self.metadata(), "params": self.params, "data": data}
        text = json.dumps(doc, indent=2) + "\n"
        if self.columns and self.rows:
            # data.rows sits at depth 3 of the document: rows indent by 6, cells by 8
            rows = _table(self.rows, len(self.columns), "%r", json.dumps, ",\n        ",
                          "\n      ],\n      [\n        ")
            # data comes last, so the last match is data.rows even if params has a "rows": []
            head, _, tail = text.rpartition('"rows": []')
            text = head + '"rows": [\n      [\n        ' + rows + "\n      ]\n    ]" + tail
        return text

    def to_csv(self) -> str:
        # comment lines carry whole values and are never field-split, so
        # they stay unquoted; only table cells get RFC 4180 quoting
        items = chain(self.metadata().items(), self.params.items(), self.scalars.items())
        lines = [f"# {key}={_plain(value)}" for key, value in items]
        if self.columns:
            lines.append(_csv_table(self.columns, self.rows))
        elif self.scalars:
            # scalar-only payloads still get a parseable one-row table
            lines.append(_csv_table(list(self.scalars), [tuple(self.scalars.values())]))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown format {fmt!r}")
