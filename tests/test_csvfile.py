import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import NOT_UTF8
from twomass import csvfile
from twomass.closedloop import read_trace_csv
from twomass.errors import ParseError, ValidationError
from twomass.feedforward import read_table_csv

TRACE_COLUMNS = "t,y_measured,y_true,y_ref,e,psi,u_ffw,u_fb,u,newton_iterations"

# kind -> (reader, file text with one data row)
KINDS = {
    "trace": (
        read_trace_csv,
        "# twomass trace\n# config: simulation.label=x\n# status: completed\n"
        f"{TRACE_COLUMNS}\n0.0,0.0,0.0,0.0,0.0,,0.0,,0.0,0\n",
    ),
    "table": (
        read_table_csv,
        "# twomass feedforward table\n# config: dt=0.001|samples=1\nt,u_ffw\n0.0,0.0\n",
    ),
}


def _lines(text):
    return text.splitlines(keepends=True)


def _wrong_first_line(text):
    return ("# twomass metrics\n" + "".join(_lines(text)[1:])).encode()


def _wrong_columns(text):
    lines = _lines(text)
    lines[-2] = "t,u\n"
    return "".join(lines).encode()


def _short_row(text):
    return (text.rsplit(",", 1)[0] + "\n").encode()


def _non_numeric_row(text):
    return text.replace("\n0.0,", "\nx,").encode()


def _space_separated_header(text):
    # the header style of table files written before the shared format
    lines = _lines(text)
    lines[1] = "# dt=0.001 samples=1\n"
    return "".join(lines).encode()


def _not_utf8(text):
    return NOT_UTF8


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize(
    "broken, error, match",
    [
        (_wrong_first_line, ValidationError, "not a twomass"),
        (_wrong_columns, ValidationError, "columns"),
        (_short_row, ParseError, "malformed"),
        (_non_numeric_row, ParseError, "malformed"),
        (_space_separated_header, ParseError, "header line"),
        (_not_utf8, ParseError, "not UTF-8"),
    ],
)
def test_malformed_file_rejected_naming_the_path(tmp_path, kind, broken, error, match):
    reader, text = KINDS[kind]
    good = tmp_path / "good.csv"
    good.write_text(text)
    reader(good)
    path = tmp_path / "broken.csv"
    path.write_bytes(broken(text))
    with pytest.raises(error, match=match) as err:
        reader(path)
    assert str(err.value).startswith(f"{path}: ")


def test_cell_format(tmp_path):
    path = tmp_path / "f.csv"
    arrays = [np.array([0.1, math.nan, -math.inf]), np.array([3.0, math.nan, 0.0])]
    csvfile.write(path, "demo", [("k", "v: w")], ("a", "n"), csvfile.format_rows(arrays, (1,)))
    assert path.read_text(encoding="utf-8") == "# twomass demo\n# k: v: w\na,n\n0.1,3\n,\n-inf,0\n"
    header, data = csvfile.read(path, "demo", ("a", "n"))
    assert header == {"k": "v: w"}
    assert np.array_equal(data, np.column_stack(arrays), equal_nan=True)


QUIET_NAN = math.nan
OTHER_NAN = float(np.array([0x7FF8_0000_0000_0001], dtype=np.int64).view(float)[0])
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 2.0, -2.0, QUIET_NAN, OTHER_NAN, math.inf, 1e16]),
    st.integers(-10**6, 10**6).map(float),
    st.floats(allow_nan=False),
)


def _flip_zero_signs(a):
    return np.where(a == 0.0, np.copysign(0.0, -np.copysign(1.0, a)), a)


def _other_nan_payload(a):
    bits = a.view(np.int64).copy()
    bits[np.isnan(a)] ^= 1
    return bits.view(float)


def _reference_rows(arrays, int_columns):
    """One cell at a time, without reuse: ``repr``, ``int`` or empty for NaN."""
    for i in range(len(arrays[0])):
        cells = []
        for j, a in enumerate(arrays):
            x = a[i].item()
            cells.append("" if x != x else str(int(x)) if j in int_columns else repr(x))
        yield ",".join(cells)


@given(data=st.data())
def test_format_rows_is_the_per_cell_format(data):
    # columns are drawn fresh, drawn as one value throughout (one cell of it
    # maybe with the other zero sign or NaN payload), or derived from an
    # earlier one: equal, with the signs of its zeros flipped, with another
    # NaN payload, or the same bits written as integers; small batches put
    # equal and unequal batches side by side
    n = data.draw(st.integers(0, 12))
    arrays, int_columns = [], []
    for _ in range(data.draw(st.integers(1, 6))):
        how = data.draw(st.sampled_from(["new", "const", "copy", "zeros", "nan", "int"])
                        if arrays else st.sampled_from(["new", "const"]))
        if how == "const":
            column = np.full(n, data.draw(VALUES))
            if n and data.draw(st.booleans()):
                i = data.draw(st.integers(0, n - 1))
                column[i:i + 1] = _flip_zero_signs(_other_nan_payload(column[i:i + 1]))
        elif how in ("new", "int"):
            column = np.array(data.draw(st.lists(VALUES, min_size=n, max_size=n)))
            if how == "int":
                column = np.trunc(np.where(np.isfinite(column), column, math.nan))
                arrays.append(column.copy())  # a float column with the same bits
                int_columns.append(len(arrays))
        else:
            source = arrays[data.draw(st.integers(0, len(arrays) - 1))]
            column = {"copy": np.copy, "zeros": _flip_zero_signs,
                      "nan": _other_nan_payload}[how](source)
        arrays.append(column)
    batch = data.draw(st.sampled_from([1, 2, 3, 1024]))
    with mock.patch.object(csvfile, "_BATCH", batch):
        rows = list(csvfile.format_rows(arrays, tuple(int_columns)))
    assert rows == list(_reference_rows(arrays, int_columns))


def test_equal_bits_of_another_kind_are_formatted_apart():
    zeros, two = np.array([0.0, 2.0]), np.array([-0.0, 2.0])
    rows = list(csvfile.format_rows([zeros, two, zeros.copy(), zeros.copy()], (3,)))
    assert rows == ["0.0,-0.0,0.0,0", "2.0,2.0,2.0,2"]


def test_a_constant_batch_is_formatted_once():
    # one value throughout, by bits: a zero of mixed sign or NaNs of mixed
    # payload are not constant and are formatted cell by cell
    arrays = [np.array([0.0, 0.0, -0.0]), np.full(3, -0.0),
              np.array([QUIET_NAN, OTHER_NAN, QUIET_NAN]), np.full(3, 2.0)]
    with mock.patch.object(csvfile, "_cells", wraps=csvfile._cells) as cells:
        rows = list(csvfile.format_rows(arrays, (3,)))
    assert rows == list(_reference_rows(arrays, (3,)))
    assert [len(call.args[0]) for call in cells.call_args_list] == [3, 1, 3, 1]
