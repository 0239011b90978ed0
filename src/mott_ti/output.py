"""Machine-readable output: one envelope, two renderings (CSV and JSON).

Every envelope embeds the tool version, a fingerprint of the constants in
effect, and the full parameter echo, so any output file identifies the
invocation that produced it.  Rendering is deterministic: no timestamps,
fixed key order, Unix line endings, '.' decimal separator, and CSV cells
printed with 9 significant digits.

A CSV table is rendered by one printf-style ``%`` call: columns whose cells
are all floats become ``%.9g`` fields of the template, every other cell is
rendered to text first and filled in through a ``%s`` field.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

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


def _csv_table(columns: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Header line and rows of a CSV table, the rows filled in by one printf-style %.

    A column of floats only (exact type: no bool, int or float subclass) is
    a _FLOAT_FIELD of the template, format_number's text, which never needs
    quoting; any other cell goes through _csv_cell and is passed in as an
    argument, so a % in its text is never parsed as a field.
    """
    if set(map(len, rows)) - {len(columns)}:
        raise ValueError(f"every row must hold {len(columns)} cells, one per column")
    fields = []
    cells = []
    for column in zip(*rows):
        if set(map(type, column)) == {float}:
            fields.append(_FLOAT_FIELD)
            cells.append(column)
        else:
            fields.append("%s")
            cells.append(map(_csv_cell, column))
    template = "\n".join(["%s"] + [",".join(fields)] * len(rows))
    return template % (",".join(columns), *chain.from_iterable(zip(*cells)))


# data.rows sits at depth 3 of the document: rows indent by 6, cells by 8
_ROW_BREAK = "\n      ],\n      [\n        "
_CELL_BREAK = ",\n        "


def _json_rows(rows: Sequence[Sequence[object]]) -> str:
    """Non-empty rows of scalars at data.rows, laid out exactly as json.dumps(indent=2)."""
    import json

    # One pass of the C encoder, which json.dumps uses only without indent.
    # NUL appears in its output only as this separator: json escapes it
    # inside strings.
    text = json.JSONEncoder(separators=("\0", ": ")).encode(rows)
    # "[[c\0c]\0[c\0c]]": "]\0[" only between rows, since no scalar ends in "]"
    body = text[2:-2].replace("]\0[", _ROW_BREAK).replace("\0", _CELL_BREAK)
    return "[\n      [\n        " + body + "\n      ]\n    ]"


class OutputEnvelope(Record):
    """Tabular payload (columns x rows) plus scalar results and parameters.

    Rows are lists or tuples of lists or tuples of scalars (str, int, float,
    bool or None), one per column; both renderings rely on it, and a row of
    another length raises ValueError.  No scalars means an empty dict.
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
            # data comes last, so the last match is data.rows even if params has a "rows": []
            head, _, tail = text.rpartition('"rows": []')
            text = head + '"rows": ' + _json_rows(self.rows) + tail
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
