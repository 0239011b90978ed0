import json
import math
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mott_ti import DEFAULT_CONSTANTS
from mott_ti import output
from mott_ti.output import OutputEnvelope, _csv_cell, _csv_table, format_number


def test_format_number_nine_significant_digits():
    assert format_number(1.4142135623730951) == "1.41421356"
    assert format_number(396.82655429123568) == "396.826554"
    assert format_number(2.0) == "2"
    assert format_number(-0.0929705215) == "-0.0929705215"[:13]  # 9 sig digits
    assert format_number(1.5e-12) == "1.5e-12"


def test_csv_layout_and_comments():
    env = OutputEnvelope(
        params={"command": "demo", "x": 2.5, "flag": True},
        constants=DEFAULT_CONSTANTS,
        columns=["a", "b"],
        rows=[(1.0, "hi"), (2.0, None)],
        scalars={"answer": 42.0},
    )
    text = env.to_csv()
    lines = text.splitlines()
    assert lines[0] == "# tool=mott-ti"
    assert "# constants_fingerprint=" + DEFAULT_CONSTANTS.fingerprint() in lines
    assert "# x=2.5" in lines and "# flag=true" in lines
    assert "# answer=42" in lines
    assert lines[-3] == "a,b"
    assert lines[-2] == "1,hi"
    assert lines[-1] == "2,none"
    assert text.endswith("\n") and "\r" not in text


def test_csv_cells_with_commas_are_quoted():
    env = OutputEnvelope(
        params={"command": "demo"},
        constants=DEFAULT_CONSTANTS,
        columns=["name", "note"],
        rows=[("x", 'needs, quoting "here"')],
    )
    assert '"needs, quoting ""here"""' in env.to_csv()


def test_comment_lines_are_not_quoted():
    env = OutputEnvelope(
        params={"command": "demo"},
        constants=DEFAULT_CONSTANTS,
        scalars={"classification": "min,flat,max"},
    )
    assert "# classification=min,flat,max" in env.to_csv()


def test_json_structure_and_scalar_only_csv():
    env = OutputEnvelope(
        params={"command": "demo", "spin": "1/2"},
        constants=DEFAULT_CONSTANTS,
        scalars={"value": 1.25, "root": None},
    )
    doc = json.loads(env.to_json())
    assert doc["params"]["spin"] == "1/2"
    assert doc["data"] == {"value": 1.25, "root": None}
    csv_lines = env.to_csv().splitlines()
    assert csv_lines[-2] == "value,root"
    assert csv_lines[-1] == "1.25,none"


def test_rendering_is_deterministic():
    def make():
        return OutputEnvelope(
            params={"command": "demo", "eta": 1.23456789012},
            constants=DEFAULT_CONSTANTS,
            columns=["t"],
            rows=[(0.1,), (0.2,)],
        )

    assert make().render("csv") == make().render("csv")
    assert make().render("json") == make().render("json")


# ------------------------------------------------- renderings against the plain forms

def _plain_oracle(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _csv_oracle(env):
    """The per-cell quoting of every table cell, as the plain renderer wrote it."""

    def cell(value):
        text = _plain_oracle(value)
        if any(ch in text for ch in ',"\n'):
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [f"# {k}={_plain_oracle(v)}"
             for part in (env.metadata(), env.params, env.scalars) for k, v in part.items()]
    if env.columns:
        lines.append(",".join(env.columns))
        lines.extend(",".join(cell(v) for v in row) for row in env.rows)
    elif env.scalars:
        lines.append(",".join(env.scalars))
        lines.append(",".join(cell(v) for v in env.scalars.values()))
    return "\n".join(lines) + "\n"


def _json_oracle(env):
    data = dict(env.scalars)
    if env.columns:
        data["columns"] = list(env.columns)
        data["rows"] = [list(row) for row in env.rows]
    doc = {"metadata": env.metadata(), "params": env.params, "data": data}
    return json.dumps(doc, indent=2) + "\n"


_TRICKY_TEXT = ["", "\0", "]\0[", "]", "[", '"', "\\", '", "', '"rows": []', "a,b", "x\ny",
                "naïve", "σ/Ω", "\u2028", "😀", "{", "}", "{0}", "{:.9g}", "%", "%s", "%%",
                "%(x)s", "%.9g"]
_TEXT = st.one_of(st.sampled_from(_TRICKY_TEXT), st.text(max_size=8))
_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_CELLS = st.one_of(_TEXT, _FLOATS, st.integers(), st.booleans(), st.none())
_KEYS = st.one_of(st.sampled_from(["rows", "columns", "data", "x"]), _TEXT)


@st.composite
def envelopes(draw):
    n_cols = draw(st.integers(min_value=0, max_value=5))
    columns = draw(st.lists(_TEXT, min_size=n_cols, max_size=n_cols))
    # each column is all floats or a mix of every kind, as the CSV table
    # renders the two kinds differently; rows come as tuples or lists
    n_rows = draw(st.integers(min_value=0, max_value=40)) if n_cols else 0
    kinds = draw(st.lists(st.sampled_from([_FLOATS, _CELLS]), min_size=n_cols, max_size=n_cols))
    rows = list(zip(*[draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]))
    if draw(st.booleans()):
        rows = [list(row) for row in rows]
    # params may hold an empty list under "rows": data.rows must still be the one replaced
    params = draw(st.dictionaries(_KEYS, st.one_of(_CELLS, st.just([])), max_size=4))
    scalars = draw(st.dictionaries(_KEYS, _CELLS, max_size=4))
    return OutputEnvelope(params=params, constants=DEFAULT_CONSTANTS,
                          columns=columns, rows=rows, scalars=scalars)


def _envelope(columns, rows, scalars=None):
    return OutputEnvelope(params={"command": "demo", "rows": []}, constants=DEFAULT_CONSTANTS,
                          columns=columns, rows=rows, scalars=scalars or {})


@settings(max_examples=150, deadline=None)
@given(envelopes())
@example(_envelope(["x"], [("]\0[",), (-0.0,), (math.nan,)]))
@example(_envelope(["t", "s", "note"], [(1.0, 1e308, '", "'), (True, None, "\0")]))
@example(_envelope(["t"], [], {"rows": 1.5}))
@example(_envelope([], [], {"value": math.inf, "root": None}))
@example(_envelope(["a", "{}"], [(0.5, "{0}")]))
@example(_envelope(["t", "s", "b"], [(0.0, 1.5, 5e-324), (90.0, -0.0, math.nan),
                                     (180.0, math.inf, 1e308)]))
@example(_envelope(["name", "sigma90_reference_barn"], [("a", 1.25), ("b", None), ("c", 0.5)]))
def test_renderings_equal_the_plain_forms(env):
    assert env.to_json() == _json_oracle(env)
    assert env.to_csv() == _csv_oracle(env)


@pytest.mark.parametrize("rows", [[(1.0, 2.0), (3.0,)], [(1.0,)], [(1.0, 2.0, 3.0)], [()]])
def test_csv_rejects_a_row_of_another_length(rows):
    with pytest.raises(ValueError, match="2 cells"):
        _envelope(["a", "b"], rows).to_csv()


@pytest.mark.parametrize("rows", [[(1.0, 2.0), (3.0,)], [(1.0,)], [(1.0, 2.0, 3.0)], [()]])
def test_json_rejects_a_row_of_another_length(rows):
    with pytest.raises(ValueError, match="2 cells"):
        _envelope(["a", "b"], rows).to_json()


def _str_format_table(columns, rows):
    """_csv_table as it was, through {:.9g} and {} fields and one str.format."""
    fields, cells = [], []
    for column in zip(*rows):
        if set(map(type, column)) == {float}:
            fields.append("{:.9g}")
            cells.append(column)
        else:
            fields.append("{}")
            cells.append(map(_csv_cell, column))
    template = "\n".join(["{}"] + [",".join(fields)] * len(rows))
    return template.format(",".join(columns), *chain.from_iterable(zip(*cells)))


def _mott_rows(n):
    # angular's three float columns: theta, sigma and its ratio to sigma(90)
    return [(0.5 + 179.0 * i / (n - 1), 1.0 / (1.0 + i) ** 3, math.sqrt(i) * 1e-3)
            for i in range(n)]


class _Float(float):
    """A float subclass whose repr is not float's: a cell is rendered by its value."""

    def __repr__(self):
        return "_Float()"


# Tables whose bytes both renderings keep: every kind of cell, each in a
# column of its own and mixed with the others
TABLES = {
    **{f"mott-{n}": (["theta_deg", "sigma", "ratio"], _mott_rows(n)) for n in (357, 713, 1781)},
    "mixed": (["%s", "{}", "a,b"], [("%", "{}", '"q"'), ("x\ny", True, 7),
                                    (None, math.inf, "%(x)s"), ("%%", False, -0.0)]),
    "specials": (["t", "%.9g"], [(math.inf, "%d"), (-math.inf, "{0}"), (math.nan, None),
                                 (5e-324, 10**30)]),
    "text": (["s", "t"], [("%", "naïve σ/Ω 😀"), ('"quoted", "twice"', "a,b\nc"),
                          ("%(x)s %% %.9g", "\u2028\0")]),
    "kinds": (["bool", "none", "int", "subclass"], [(True, None, 0, _Float(0.5)),
                                                   (False, None, -7, _Float(-0.0)),
                                                   (True, None, 10**30, _Float(1e308))]),
    "non-finite": (["nan", "inf", "-inf"], [(math.nan, math.inf, -math.inf),
                                            (math.nan, 0.5, -0.5)]),
    "sum-overflows": (["big", "t"], [(1e308, 0.5), (1.7976931348623157e308, -0.0)]),
    "no-rows": (["x"], []),
}


@pytest.mark.parametrize("columns, rows", TABLES.values(), ids=TABLES)
def test_csv_table_keeps_the_bytes_of_the_str_format_render(columns, rows):
    # the printf-style template renders the bytes the {:.9g}/{} template did,
    # a % or braces in a cell or a column name included
    assert _csv_table(columns, rows) == _str_format_table(columns, rows)


def _transposing_table(rows, width, float_field, cell_text, cell_break, row_break):
    """output._table as it was: columns by zip(*rows), the arguments back by zip(*cells)."""
    if set(map(len, rows)) - {width}:
        raise ValueError(f"every row must hold {width} cells, one per column")
    fields, cells = [], []
    for column in zip(*rows):
        if set(map(type, column)) == {float} and math.isfinite(sum(column)):
            fields.append(float_field)
            cells.append(column)
        else:
            fields.append("%s")
            cells.append(map(cell_text, column))
    template = row_break.join([cell_break.join(fields)] * len(rows))
    return template % tuple(chain.from_iterable(zip(*cells)))


@pytest.mark.parametrize("columns, rows", TABLES.values(), ids=TABLES)
def test_json_keeps_the_bytes_of_the_transposing_render(columns, rows, monkeypatch):
    # the strided row-major table renders the JSON document the transposing one did
    env = _envelope(columns, rows)
    text = env.to_json()
    monkeypatch.setattr(output, "_table", _transposing_table)
    assert text == env.to_json()


def _json_rows(rows):
    """data.rows as JSON wrote it: one C-encoder pass with NUL as item separator, then
    two replacements that restore json.dumps(indent=2)'s layout."""
    text = json.JSONEncoder(separators=("\0", ": ")).encode(rows)
    body = text[2:-2].replace("]\0[", "\n      ],\n      [\n        ")
    return "[\n      [\n        " + body.replace("\0", ",\n        ") + "\n      ]\n    ]"


@pytest.mark.parametrize("columns, rows", [
    (["theta_deg", "sigma", "ratio"], _mott_rows(n)) for n in (357, 713, 1781)
] + [
    (["%s", "{}", "a,b"], [("%", "{}", '"q"'), ("x\ny", True, 7), (None, math.inf, "%(x)s"),
                           ("%%", False, -0.0)]),
    (["t", "%.9g"], [(math.inf, "%d"), (-math.inf, "{0}"), (math.nan, None), (5e-324, 10**30)]),
    (["big", "t"], [(1e308, 0.5), (1.7976931348623157e308, -0.0)]),
], ids=["mott-357", "mott-713", "mott-1781", "mixed", "specials", "sum-overflows"])
def test_json_rows_keep_the_bytes_of_the_encoder_render(columns, rows):
    # the printf-style template with %r float fields renders the bytes the
    # NUL-separated C-encoder pass did, specials, text with % and a finite
    # column whose sum overflows (rendered cell by cell) included
    text = _envelope(columns, rows).to_json()
    head, _, tail = _envelope(columns, []).to_json().rpartition('"rows": []')
    assert text == head + '"rows": ' + _json_rows(rows) + tail
