import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import read_oracle
from conftest import NOT_UTF8
from twomass import csvfile
from twomass.closedloop import read_trace_csv, run_simulation, write_trace_csv
from twomass.errors import ParseError, ValidationError
from twomass.feedforward import read_table_csv
from twomass.presets import build_preset

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


def _rows(blocks):
    """The rows of :func:`csvfile.format_rows`' blocks, each block checked to end a row."""
    blocks = list(blocks)
    assert all(block.endswith("\n") for block in blocks)
    return "".join(blocks).split("\n")[:-1]


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
        blocks = list(csvfile.format_rows(arrays, tuple(int_columns)))
    rows = list(_reference_rows(arrays, int_columns))
    assert _rows(blocks) == rows
    # one block of whole rows per batch, each row ended by its newline
    assert blocks == ["".join(row + "\n" for row in rows[start:start + batch])
                      for start in range(0, n, batch)]


def test_equal_bits_of_another_kind_are_formatted_apart():
    zeros, two = np.array([0.0, 2.0]), np.array([-0.0, 2.0])
    rows = _rows(csvfile.format_rows([zeros, two, zeros.copy(), zeros.copy()], (3,)))
    assert rows == ["0.0,-0.0,0.0,0", "2.0,2.0,2.0,2"]


def test_a_constant_batch_is_formatted_once():
    # one value throughout, by bits: a zero of mixed sign or NaNs of mixed
    # payload are not constant and are formatted cell by cell
    arrays = [np.array([0.0, 0.0, -0.0]), np.full(3, -0.0),
              np.array([QUIET_NAN, OTHER_NAN, QUIET_NAN]), np.full(3, 2.0)]
    with mock.patch.object(csvfile, "_cells", wraps=csvfile._cells) as cells:
        rows = _rows(csvfile.format_rows(arrays, (3,)))
    assert rows == list(_reference_rows(arrays, (3,)))
    assert [len(call.args[0]) for call in cells.call_args_list] == [3, 1, 3, 1]


def test_writing_a_trace_holds_one_batch_at_a_time(tmp_path):
    # a sweep trace of 30,001 rows and 4.04 MiB, written with an empty memo:
    # the writer holds one batch's cells, rows and text block at a time and
    # the memo's batches (2.57 MiB in all), never the whole file's text
    trace = run_simulation(build_preset("table3-fb-sweep-2khz").configs[0])
    path = tmp_path / "trace.csv"
    with mock.patch.object(csvfile, "_memo", {}):
        tracemalloc.start()
        try:
            write_trace_csv(trace, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert path.stat().st_size > 4 * 2**20
    assert peak < 3 * 2**20


@st.composite
def trace_sequences(draw):
    """Traces that share and vary columns, as a sweep's runs do.

    A pool holds the columns that repeat from trace to trace, read-only as
    a sweep's shared columns are.  A trace of ``n`` rows takes a column from
    the pool (cut to ``n`` rows, like a truncated run, maybe with its zeros'
    signs or NaN payloads changed, or as a writable copy) or draws a fresh
    one; only the writable copies are writable.  The pool is sometimes
    integer-valued, so the same bits come as float and as integer columns.
    """
    length = draw(st.integers(0, 12))
    integral = st.one_of(st.integers(-10**6, 10**6).map(float), st.just(math.nan))
    pool = [np.array(draw(st.lists(st.one_of(VALUES, integral) if i else integral,
                                   min_size=length, max_size=length)))
            for i in range(draw(st.integers(1, 3)))]
    for column in pool:
        column.flags.writeable = False
    traces = []
    for _ in range(draw(st.integers(2, 4))):
        n = draw(st.integers(0, length))
        arrays = []
        for _ in range(draw(st.integers(1, 4))):
            how = draw(st.sampled_from(["shared", "zeros", "nan", "writable", "new"]))
            if how == "new":
                column = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
            else:
                column = pool[draw(st.integers(0, len(pool) - 1))][:n]
                if how != "shared":
                    column = {"zeros": _flip_zero_signs, "nan": _other_nan_payload,
                              "writable": np.copy}[how](column)
            column.flags.writeable = how == "writable"
            arrays.append(column)
        positions = st.lists(st.integers(0, len(arrays) - 1), unique=True).map(tuple)
        int_columns, memo_columns = draw(positions), draw(positions)
        for i in int_columns:
            writable = arrays[i].flags.writeable
            arrays[i] = np.trunc(np.where(np.isfinite(arrays[i]), arrays[i], math.nan))
            arrays[i].flags.writeable = writable
        traces.append((arrays, int_columns, memo_columns))
    return traces


@settings(max_examples=200)
@given(traces=trace_sequences(), batch=st.sampled_from([1, 2, 3, 5, 1024]))
def test_memoized_columns_are_written_as_a_fresh_process_writes_them(traces, batch):
    # in the drawn order and reversed, so each trace follows another; the
    # memo starts empty, as its texts follow the batch size
    with mock.patch.object(csvfile, "_BATCH", batch), mock.patch.object(csvfile, "_memo", {}):
        for arrays, int_columns, memo_columns in traces + traces[::-1]:
            rows = _rows(csvfile.format_rows(arrays, int_columns, memo_columns))
            assert rows == list(_reference_rows(arrays, int_columns))


def _read_only(a):
    a.flags.writeable = False
    return a


def _batch_texts(a):
    return ["\n".join(map(repr, a[start:start + csvfile._BATCH].tolist()))
            for start in range(0, len(a), csvfile._BATCH)]


def test_the_memo_holds_the_last_read_only_column_at_each_position():
    first, last, other = (_read_only(np.arange(n) * x) for n, x in
                          ((3000, 1.0), (2500, 0.5), (2500, 0.25)))
    with mock.patch.object(csvfile, "_memo", {}):
        for arrays in ([first, other], [last, other]):
            list(csvfile.format_rows(arrays, (), (0,)))
        # the column itself, never a copy, with the text of each batch
        (column, as_int, batches), = csvfile._memo.values()
        assert column is last and as_int is False and batches == _batch_texts(last)
        # a writable column or one of one value throughout leaves the entry alone
        for stranger in (np.arange(3000.0), _read_only(np.full(2500, math.nan))):
            list(csvfile.format_rows([stranger], (), (0,)))
            assert csvfile._memo[0][0] is last
        # a miss drops the entry before it formats, kept again only once it is done
        blocks = csvfile.format_rows([first], (), (0,))
        next(blocks)
        assert csvfile._memo == {}
        list(blocks)
        assert csvfile._memo[0][0] is first
        # the same bits as integers or of another dtype are formatted anew
        for arrays, int_columns in (([first], (0,)), ([first], ()),
                                    ([_read_only(first.view(np.int64))], ())):
            rows = _rows(csvfile.format_rows(arrays, int_columns, (0,)))
            assert rows == list(_reference_rows(arrays, int_columns))


def test_a_memoized_column_is_formatted_once_across_calls():
    shared = _read_only(np.arange(2500.0) * 1e-3)
    calls = [[shared, shared * 3 + 3],
             [_read_only(shared.copy()), shared * 5 + 5],  # the same bits in another array
             [shared[:1500], shared[:1500] * 7 + 7]]  # a truncated run's prefix
    list(csvfile.format_rows(calls[0], (), (0,)))
    with mock.patch.object(csvfile, "_cells", wraps=csvfile._cells) as cells:
        rows = [_rows(csvfile.format_rows(arrays, (), (0,))) for arrays in calls[1:]]
    assert rows == [list(_reference_rows(arrays, ())) for arrays in calls[1:]]
    # the batches of the second columns only: three, then two
    assert [len(call.args[0]) for call in cells.call_args_list] == [1024, 1024, 452, 1024, 476]


def test_a_shared_column_is_formatted_once_between_absent_branches():
    # feedback, combined, feedback, combined: the feedback runs' u_ffw is the
    # shared NaN column, the combined runs' one shared tuned torque
    t = _read_only(np.arange(2500.0) * 5e-4)
    u_ffw = _read_only(np.sin(t) + 0.16)
    nan = _read_only(np.full(2500, math.nan))
    runs = [[t, np.cos(t) * i, ffw] for i, ffw in enumerate((nan, u_ffw, nan, u_ffw))]
    with mock.patch.object(csvfile, "_memo", {}), \
            mock.patch.object(csvfile, "_cells", wraps=csvfile._cells) as cells:
        for arrays in runs:
            assert _rows(csvfile.format_rows(arrays, (), (0, 2))) == list(
                _reference_rows(arrays, ()))
    formatted = [call.args[0] for call in cells.call_args_list]
    assert sum(np.shares_memory(chunk, u_ffw) for chunk in formatted) == 3
    assert sum(np.shares_memory(chunk, t) for chunk in formatted) == 3


def test_a_new_funnel_does_not_grow_the_memo(tmp_path):
    # two sweep traces on one grid and reference with different funnels: the
    # second replaces the first's psi text, never holding both
    first, second = map(run_simulation, build_preset("table3-fb-sweep-2khz").configs[:2])
    assert not np.array_equal(first.psi, second.psi)
    with mock.patch.object(csvfile, "_memo", {}):
        tracemalloc.start()
        try:
            write_trace_csv(first, tmp_path / "first.csv")
            retained, first_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            write_trace_csv(second, tmp_path / "second.csv")
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # 1.33 MiB retained (1.81 MiB with byte keys); the psi texts differ in length by
    # 10 KiB, and the second write peaks 0.08 MiB above the first (1.25 MiB with both texts)
    assert retained < 1.5 * 2**20
    assert now < retained + 2**16
    assert peak < first_peak + 2**18


# row counts on both sides of the first two batch edges of the reader
READ_ROWS = st.sampled_from([0, 1, 2, 3, 7] + [k * 256 + d for k in (1, 2) for d in (-1, 0, 1)])
BAD_CELLS = ["x", " ", "nan", "-inf", " 1.5", "1_0", "1e999", "--1", "0x1p3", "1,5"]


@st.composite
def read_cases(draw):
    """A file body and its columns: a written trace whose rows may then be broken.

    Columns are drawn fresh, constant, empty, one value up to a row and
    another after it, constant but for one cell, equal to an earlier
    column, or equal to it but for one cell (its first kept), so that
    columns that nearly repeat sit beside columns that do.
    """
    n = draw(st.integers(1, 12))
    rows = draw(READ_ROWS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array([0.0, -0.0, 2.0, -2.0, QUIET_NAN, OTHER_NAN, math.inf, 1e16, 0.1, 1e-300])
    arrays = []
    for _ in range(n):
        how = draw(st.sampled_from(["new", "const", "empty", "step", "almost", "copy", "near"]))
        if how in ("copy", "near") and not arrays:
            how = "new"
        if how == "new":
            column = np.where(rng.random(rows) < 0.5, rng.choice(pool, rows), rng.normal(size=rows))
        elif how == "const":
            column = np.full(rows, draw(VALUES))
        elif how == "empty":
            column = np.full(rows, math.nan)
        elif how == "step":
            before, after = draw(VALUES), draw(VALUES)
            column = np.where(np.arange(rows) < draw(st.integers(0, rows)), before, after)
        else:
            column = (np.full(rows, draw(VALUES)) if how == "almost"
                      else arrays[draw(st.integers(0, len(arrays) - 1))].copy())
            if how != "copy" and rows >= 3:
                column[draw(st.integers(1, rows - 2))] = draw(VALUES)
        arrays.append(column.astype(float))
    int_columns = tuple(i for i, a in enumerate(arrays)
                        if np.all(~np.isfinite(a) | (np.trunc(a) == a)) and draw(st.booleans()))
    for i in int_columns:
        arrays[i] = np.where(np.isfinite(arrays[i]), arrays[i], math.nan)
    lines = [row + "\n" for row in _rows(csvfile.format_rows(arrays, int_columns))] if rows else []
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["blank", "cell", "short", "extra", "crlf", "no final newline"]))
        if how == "crlf":
            lines = [line.replace("\n", "\r\n") for line in lines]
        elif how == "blank":
            lines.insert(draw(st.integers(0, len(lines))), "\n")
        elif lines:
            k = draw(st.integers(0, len(lines) - 1))
            if how == "no final newline":
                lines[-1] = lines[-1].rstrip("\r\n")
            elif how == "cell":
                cells = lines[k].rstrip("\r\n").split(",")
                cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(BAD_CELLS))
                lines[k] = ",".join(cells) + "\n"
            elif how == "short":
                lines[k] = lines[k].rsplit(",", 1)[0] + "\n"
            elif len(lines) > 1:
                # an extra cell in one row and one too few in its neighbour:
                # the batch holds as many cells as it should
                j = k + 1 if k + 1 < len(lines) else k - 1
                lines[k] = lines[k].rstrip("\r\n") + ",0.5\n"
                lines[j] = lines[j].rsplit(",", 1)[0] + "\n"
    body = [line.encode() for line in lines]
    if draw(st.booleans()) and draw(st.booleans()):
        # at the start of a row, maybe many rows after a bad one
        at = draw(st.integers(0, len(body)))
        body.insert(at, draw(st.sampled_from([b"\xc0", b"\xff\xfe", NOT_UTF8])))
    return [f"c{i}" for i in range(n)], b"".join(body)


def _read_outcome(reader, path, columns):
    try:
        header, data = reader(path, "trace", columns)
    except (ParseError, ValidationError) as err:
        return type(err), str(err)
    return header, data.shape, data.tobytes()


@settings(max_examples=200)
@given(case=read_cases())
def test_read_is_the_per_row_read(tmp_path_factory, case):
    columns, body = case
    path = tmp_path_factory.mktemp("read") / "trace.csv"
    path.write_bytes(b"# twomass trace\n# status: completed\n" + ",".join(columns).encode()
                     + b"\n" + body)
    expected = _read_outcome(read_oracle.read, path, columns)
    assert _read_outcome(csvfile.read, path, columns) == expected


def test_read_takes_every_spelling_float_takes(tmp_path):
    # cells the writer never writes: the reader is as lax as float(), so a
    # stricter reader has to change this test on purpose
    path = tmp_path / "trace.csv"
    path.write_text("# twomass trace\na,b,c,d,e\n1_0, 1.5,nan,infinity,-Infinity\n"
                    "2_5.0,1.5 ,NaN,inf,-1E+1_0\n")
    _, data = csvfile.read(path, "trace", tuple("abcde"))
    assert data[:, [0, 1, 3]].tolist() == [[10.0, 1.5, math.inf], [25.0, 1.5, math.inf]]
    assert data[:, 4].tolist() == [-math.inf, -1e10]
    assert np.isnan(data[:, 2]).all()


def test_a_bad_row_before_undecodable_bytes_is_named_first(tmp_path):
    # the bytes sit 24 kB (three 8 kB decoding chunks) after the bad row, in its batch
    row = ",".join([repr(0.1 + 0.2)] * 6) + "\n"
    rows = [row, "x" + row[1:]] + [row] * 300
    rows[200] = "\xff\n"
    path = tmp_path / "trace.csv"
    path.write_bytes(b"# twomass trace\na,b,c,d,e,f\n" + "".join(rows).encode("latin-1"))
    with pytest.raises(ParseError, match="malformed trace row 'x.30000000000000004,"):
        csvfile.read(path, "trace", tuple("abcdef"))


def test_read_holds_little_beside_its_array(tmp_path):
    # batches go straight into the one growing array: no per-batch blocks
    # are kept and joined at the end, which would double the peak
    rng = np.random.default_rng(0)
    rows = 30_001
    arrays = ([np.arange(rows) * 5e-4] + [rng.normal(size=rows) for _ in range(7)]
              + [np.full(rows, math.nan), np.zeros(rows)])
    columns = tuple(TRACE_COLUMNS.split(","))
    path = tmp_path / "trace.csv"
    csvfile.write(path, "trace", [], columns, csvfile.format_rows(arrays, (9,)))
    tracemalloc.start()
    try:
        _, data = csvfile.read(path, "trace", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.shape == (rows, 10)
    assert peak <= 1.3 * data.nbytes


@st.composite
def read_sequences(draw):
    """Files that share and vary their memoized columns, as a sweep's traces do.

    A pool holds the columns that repeat from file to file.  A file of
    ``rows`` rows (cut like a truncated run, so its last batch is short)
    takes each column from the pool, from the pool with the signs of its
    zeros flipped or with some cells emptied, or draws a fresh one.  A file
    may be broken by a bad cell or a short row.
    """
    n = draw(st.integers(1, 4))
    memo_columns = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1).map(tuple))
    length = draw(st.integers(1, 12))
    pool = [np.array(draw(st.lists(VALUES, min_size=length, max_size=length)))
            for _ in range(draw(st.integers(1, 3)))]
    files = []
    for _ in range(draw(st.integers(2, 4))):
        rows = draw(st.integers(1, length))
        arrays = []
        for _ in range(n):
            how = draw(st.sampled_from(["shared", "zeros", "empty", "new"]))
            if how == "new":
                column = np.array(draw(st.lists(VALUES, min_size=rows, max_size=rows)))
            else:
                column = pool[draw(st.integers(0, len(pool) - 1))][:rows].copy()
                if how == "zeros":
                    column = _flip_zero_signs(column)
                elif how == "empty":
                    column[draw(st.integers(0, rows - 1))] = math.nan
            arrays.append(column)
        lines = [row + "\n" for row in _rows(csvfile.format_rows(arrays))]
        how = draw(st.sampled_from(["good", "good", "cell", "short"]))
        if how != "good":
            # a bad cell after the memoized ones of its row fails their batch late
            k = draw(st.integers(0, rows - 1))
            cells = lines[k].rstrip("\n").split(",")
            if how == "cell":
                cells[draw(st.integers(0, n - 1))] = "x"
            else:
                cells.pop()
            lines[k] = ",".join(cells) + "\n"
        files.append("".join(lines).encode())
    return [f"c{i}" for i in range(n)], memo_columns, files


@settings(max_examples=200)
@given(case=read_sequences(), batch=st.sampled_from([1, 2, 3, 5, 256]))
def test_memoized_columns_are_read_as_a_fresh_process_reads_them(tmp_path_factory, case, batch):
    # in the drawn order and reversed, so each file follows another, and a
    # broken file in the middle sits between two others both ways
    columns, memo_columns, files = case
    folder = tmp_path_factory.mktemp("memo")
    paths = []
    for k, body in enumerate(files):
        path = folder / f"trace{k}.csv"
        path.write_bytes(b"# twomass trace\n" + ",".join(columns).encode() + b"\n" + body)
        paths.append(path)

    def read(path, kind, columns):
        return csvfile.read(path, kind, columns, memo_columns)

    with mock.patch.object(csvfile, "_READ_BATCH", batch), \
            mock.patch.object(csvfile, "_read_memo", {}):
        for path in paths + paths[::-1]:
            expected = _read_outcome(read_oracle.read, path, columns)
            assert _read_outcome(read, path, columns) == expected


def _write_trace_of(path, arrays):
    columns = [f"c{i}" for i in range(len(arrays))]
    csvfile.write(path, "trace", [], columns, csvfile.format_rows(arrays))
    return columns


def test_the_read_memo_holds_the_last_call_only(tmp_path):
    # the batches of the last file's memoized column that are not one cell
    # throughout, by their text; the first file's are gone
    first = [np.arange(3000.0)]
    last = [np.concatenate([np.arange(600.0) * 0.5, np.full(256, 2.0)])]
    for k, arrays in enumerate((first, last)):
        path = tmp_path / f"trace{k}.csv"
        columns = _write_trace_of(path, arrays)
        csvfile.read(path, "trace", columns, (0,))
    cells = [repr(x) for x in last[0].tolist()]
    batches = (cells[start:start + csvfile._READ_BATCH]
               for start in range(0, len(cells), csvfile._READ_BATCH))
    assert set(csvfile._read_memo) == {"\n".join(b) for b in batches if len(set(b)) > 1}


def test_a_memoized_column_is_parsed_once_across_calls(tmp_path):
    shared = np.arange(600.0) * 1e-3
    paths = []
    for k, arrays in enumerate([shared, shared * i + i] for i in (3, 5)):
        paths.append(tmp_path / f"trace{k}.csv")
        columns = _write_trace_of(paths[-1], arrays)
    csvfile.read(paths[0], "trace", columns, (0,))
    with mock.patch.object(csvfile, "_floats", wraps=csvfile._floats) as floats:
        result = _read_outcome(lambda *a: csvfile.read(*a, (0,)), paths[1], columns)
    assert result == _read_outcome(read_oracle.read, paths[1], columns)
    # the three batches of the second column only
    first_cells = [call.args[0][0] for call in floats.call_args_list]
    assert first_cells == [repr(x) for x in arrays[1][::csvfile._READ_BATCH].tolist()]


def test_concurrent_reads_are_the_per_row_read(tmp_path):
    # two threads read three files over and over, switching as often as the
    # interpreter allows; two-row batches fill the memo, so each read's
    # clean-up meets the other thread's inserts and removals
    rng = np.random.default_rng(0)
    paths = []
    for k in range(3):
        paths.append(tmp_path / f"trace{k}.csv")
        columns = _write_trace_of(paths[-1], [np.arange(2000) * (k + 1e-3), rng.normal(size=2000)])
    expected = [_read_outcome(read_oracle.read, path, columns) for path in paths]
    matches, errors = [], []

    def reads():
        try:
            for _ in range(5):
                for path, want in zip(paths, expected):
                    got = _read_outcome(lambda *a: csvfile.read(*a, (0, 1)), path, columns)
                    matches.append(got == want)
        except Exception as err:
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(csvfile, "_READ_BATCH", 2), \
                mock.patch.object(csvfile, "_read_memo", {}):
            threads = [threading.Thread(target=reads) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert matches == [True] * 30
