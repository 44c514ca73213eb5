import contextlib
import math
import struct
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import read_oracle
import write_oracle
from conftest import NOT_UTF8, piped
from twomass import csvfile
from twomass.closedloop import read_trace_csv, run_simulation, write_trace_csv
from twomass.errors import ParseError, ValidationError
from twomass.feedforward import read_table_csv, solve_feedforward, write_table_csv
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


def _no_column_line(text):
    return "".join(_lines(text)[:-2]).encode()


def _duplicate_header_key(text):
    return "".join(_lines(text)[:2] + _lines(text)[1:]).encode()


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
        (_no_column_line, ValidationError, "no column line"),
        (_duplicate_header_key, ParseError, "duplicate header key 'config'"),
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
    csvfile.write(path, "demo", [("k", "v: w")], ("a", "n"), csvfile.format_rows(arrays))
    assert path.read_text(encoding="utf-8") == "# twomass demo\n# k: v: w\na,n\n0.1,3.0\n,\n-inf,0.0\n"
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


def _reference_rows(arrays):
    """The rows of the oracle's cells, one column at a time, without reuse."""
    return list(map(",".join, zip(*map(write_oracle.cells, arrays))))


def _arena(n):
    """A formatter arena of its own for a chunk of ``n`` cells."""
    return np.empty(csvfile._ARENA_ROWS * n, dtype=np.int64)


def _rows(blocks):
    """The rows of :func:`csvfile.format_rows`' blocks, each block checked to end a row."""
    blocks = list(blocks)
    assert all(block.endswith("\n") for block in blocks)
    return "".join(blocks).split("\n")[:-1]


def _integer_rows(arrays, columns):
    """The rows that :func:`csvfile.format_rows` writes, with the cells of ``columns`` in the integer spelling of older traces' ``newton_iterations``: ``int``, NaN empty."""
    rows = [row.split(",") for row in _rows(csvfile.format_rows(arrays))]
    for i in columns:
        for row, x in zip(rows, arrays[i].tolist()):
            row[i] = "" if x != x else str(int(x))
    return [",".join(row) for row in rows]


def test_a_constant_batch_is_formatted_once():
    # one value throughout, by bits: a zero of mixed sign or NaNs of mixed
    # payload are not constant and are formatted cell by cell
    arrays = [np.array([0.0, 0.0, -0.0]), np.full(3, -0.0),
              np.array([QUIET_NAN, OTHER_NAN, QUIET_NAN]), np.full(3, 2.0)]
    with mock.patch.object(csvfile, "_cells", wraps=csvfile._cells) as cells:
        rows = _rows(csvfile.format_rows(arrays))
    assert rows == _reference_rows(arrays)
    # the constant columns' one cell each by _cell, the other two columns
    # in one call
    assert [len(call.args[0]) for call in cells.call_args_list] == [6]


# cells that the formatter cannot prove, so that _cell writes them: a power of
# two, NaN, the infinities, a magnitude below 1e-98 and a tie (the float is
# 19.3258209228515625 exactly, halfway between two 17-digit decimals)
REPR_CELLS = [0.5, math.nan, math.inf, -math.inf, 1e-300, 19.325820922851562]


def test_a_batchs_new_float_columns_are_formatted_in_one_call():
    # five new float columns, as in most batches of a controller comparison,
    # with the cells that _cell writes in the 2nd and 3rd in both batches
    rows = csvfile._BATCH + 100
    assert csvfile._shortest(np.array(REPR_CELLS), _arena(len(REPR_CELLS)))[2].all()
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=rows) for _ in range(5)]
    placed = {}  # (row, column) -> value
    for column, base in ((1, 3), (2, 40)):
        for k, x in enumerate(REPR_CELLS):
            for row in (base + 7 * k, csvfile._BATCH + base + 5 * k):
                arrays[column][row] = placed[row, column] = x
    with mock.patch.object(csvfile, "_cells", wraps=csvfile._cells) as cells:
        got = _rows(csvfile.format_rows(arrays))
    assert [len(call.args[0]) for call in cells.call_args_list] == [5 * csvfile._BATCH, 500]
    assert got == _reference_rows(arrays)
    for (row, column), x in placed.items():
        assert got[row].split(",")[column] == write_oracle.cells(np.array([x]))[0]


def test_a_batchs_new_float_columns_go_to_the_formatter_in_capped_calls(tmp_path):
    # nine new float columns: a full batch takes a call of _CELLS cells and
    # one of the rest, the last batch of 100 rows a column one; the cells that
    # _cell writes end the first call, start the next and sit inside it in the
    # full batch (cell c is row c % batch of column c // batch), and start
    # the last batch's call
    batch, cap = csvfile._BATCH, csvfile._CELLS
    rows, full = batch + 100, 9 * batch
    assert cap < full <= 2 * cap and cap % batch == 0
    placed = [divmod(cap - len(REPR_CELLS), batch), divmod(cap, batch),
              divmod((cap + full) // 2, batch), (5, batch)]
    rng = np.random.default_rng(9)
    arrays = [rng.normal(size=rows) * 10.0 ** rng.integers(-5, 6, size=rows) for _ in range(9)]
    for column, row in placed:
        arrays[column][row:row + len(REPR_CELLS)] = REPR_CELLS
    with mock.patch.object(csvfile, "_cells", wraps=csvfile._cells) as cells:
        csvfile.write(tmp_path / "wide.csv", "trace", [], "abcdefghi", csvfile.format_rows(arrays))
    assert [len(call.args[0]) for call in cells.call_args_list] == [cap, full - cap, 900]
    text = (tmp_path / "wide.csv").read_text(encoding="utf-8")
    assert text == "# twomass trace\na,b,c,d,e,f,g,h,i\n" + "".join(
        row + "\n" for row in _reference_rows(arrays))
    _, data = csvfile.read(tmp_path / "wide.csv", "trace", "abcdefghi")
    expected = np.column_stack(arrays)
    numbers = ~np.isnan(expected)
    assert np.array_equal(np.isnan(data), ~numbers)
    assert np.array_equal(data[numbers].view(np.uint64), expected[numbers].view(np.uint64))


def _float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _step(x, k):
    """``x`` moved ``k`` floats up (or down, for a negative ``k``)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# the edges of repr's layouts (1e-4, 1e16), of the formatter's range (1e-98,
# 1e7) and of the float range, and the decimals between them
BOUNDS = [1e-98, 1e-5, 1e-4, 0.1, 1.0, 10.0, 1e6, 1e7, 1e16, 5e-324, 2.2250738585072014e-308,
          1.7976931348623157e308]
# float64 bit patterns over all exponents: any bits (subnormals, infinities
# and NaN payloads among them), any exponent with any mantissa, powers of two,
# the neighbours of the bounds, short decimals, the floats nearest the
# midpoints of 15-, 16- and 17-digit decimals (near-ties), dyadic
# fractions with few bits, many of which are such midpoints exactly (ties),
# and magnitudes in [1e7, 1e30], whose 17 digits overflow an int64
CELL_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(_float),
    st.builds(lambda sign, exponent, mantissa: _float(sign << 63 | exponent << 52 | mantissa),
              st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2**52 - 1)),
    st.builds(lambda sign, k: sign * math.ldexp(1.0, k), st.sampled_from([1.0, -1.0]),
              st.integers(-1074, 1023)),
    st.builds(_step, st.sampled_from(BOUNDS), st.integers(-3, 3)),
    st.builds(lambda m, k: m / 10**k, st.integers(-10**9, 10**9), st.integers(0, 12)),
    st.builds(lambda m, e: float(f"{m}5e{e}"), st.integers(10**14, 10**17 - 1),
              st.integers(-120, 20)),
    st.builds(lambda k, j: k / 2**j, st.integers(-2**21, 2**21), st.integers(0, 60)),
    st.builds(lambda k, j: k / 2**j, st.integers(2**19, 2**21), st.integers(0, 60)),
    st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]), st.floats(1e7, 1e30)),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]),
)


@settings(max_examples=300)
@given(values=st.lists(CELL_VALUES, min_size=1, max_size=64),
       n=st.integers(1, 1100), strided=st.booleans())
def test_cells_are_the_oracles_cell_for_cell(values, n, strided):
    # the drawn values repeated to a chunk of any length, maybe as a strided
    # column view
    chunk = np.resize(np.array(values), n)
    if strided:
        chunk = np.column_stack([chunk, chunk])[:, 1]
    assert csvfile._cells(chunk, _arena(len(chunk))) == write_oracle.cells(chunk)


EDGE_VALUES = [
    0.0, -0.0, math.nan, OTHER_NAN, math.inf, -math.inf, 5e-324, -5e-324,
    2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-99, 9.999999999999999e-99, 1e-98, 1.0000000000000001e-98, 1e-5, 9.999999999999999e-05,
    1e-4, 0.00010000000000000002, 0.001, 0.1, 0.2, 0.30000000000000004, 1 / 3, 0.5, 1.0, 1.5,
    2.0, 2.5, 9.5, 0.15, 123456.789, 999999.9999999999, 9999999.999999998, 1e7, 1.0000000000000002e7,
    9999999999999998.0, 1e16, 1e22, 1e23, math.pi, -math.e, 5e-5, 1.5e-7, 9.99e-5,
    0.0015339807878856412, 12.566370614359172, math.ldexp(1.0, -326), math.ldexp(1.0, 23),
    65537 / 2**17, 0.50000762939453125 + 2**-53, 3 / 2**18,  # ties of 16 digits
    655361 / 2**16, 655363 / 2**16,  # ties of 17 digits, rounded down and up to even
    # past 1e7, where the 17-digit integer overflows an int64 and can wrap
    # back into range, to a 7-digit decimal for each of these
    9.033089772464208e+24, 1.0934747854442911e+25, -7.96909913515981e+25, 3.1890815396574803e+25,
]


def test_edge_values_are_the_oracles(tmp_path):
    # each edge value in a chunk of its own and all of them side by side
    chunks = [np.array([x]) for x in EDGE_VALUES]
    chunks.append((np.array(EDGE_VALUES) * [[1.0], [-1.0]]).ravel())
    with mock.patch.object(csvfile, "_shortest", wraps=csvfile._shortest) as vector:
        for chunk in chunks:
            assert csvfile._cells(chunk, _arena(len(chunk))) == write_oracle.cells(chunk)
    assert vector.call_count == len(chunks)
    # and written to a file of one batch and read back, bit for bit
    column = np.resize(chunks[-1], csvfile._BATCH)
    path = tmp_path / "edge.csv"
    csvfile.write(path, "trace", [], ("x",), csvfile.format_rows([column]))
    assert path.read_text(encoding="utf-8").splitlines()[2:] == write_oracle.cells(column)
    _, data = csvfile.read(path, "trace", ("x",))
    numbers = ~np.isnan(column)
    assert np.array_equal(np.isnan(data[:, 0]), ~numbers)
    assert np.array_equal(data[numbers, 0].view(np.uint64), column[numbers].view(np.uint64))


def test_extreme_cells_leak_no_floating_point_state():
    # the formatter takes inf, NaN, zeros and the float range's ends as 1.0
    # before its arithmetic, so even a caller that makes every floating-point
    # error raise gets the cells
    chunk = np.resize(np.array([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324,
                                1.7976931348623157e308, -1e300, 1e-300, 0.5]), 300)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert csvfile._cells(chunk, _arena(len(chunk))) == write_oracle.cells(chunk)
        assert np.geterr() == {"divide": "raise", "over": "raise", "under": "raise",
                               "invalid": "raise"}


INTEGRAL = st.integers(-10**6, 10**6).map(float) | st.just(math.nan)
# a column derived from an earlier one or a pool column: equal in another
# array, its zeros' signs flipped, another NaN payload, or truncated to
# integers (a non-finite value as NaN)
DERIVED = {"copy": np.copy, "zeros": _flip_zero_signs, "nan": _other_nan_payload,
           "trunc": lambda a: np.trunc(np.where(np.isfinite(a), a, math.nan))}


@st.composite
def format_calls(draw):
    """A batch size and calls of :func:`csvfile.format_rows` that share and vary columns, as a sweep's traces do.

    A pool holds the columns that repeat from call to call, read-only as a
    sweep's shared columns are.  They are short (up to 12 rows, in batches
    of 1, 2, 3, 5 or 1024 rows) or long (256 to 2,058 rows in batches of
    1024, so the vector formatter runs over more than one batch), and the
    first holds integers.  Each position has a home column in the pool.  A
    call has the pool's length or one shorter length (a truncated run); at
    each position it takes its home column cut to that length, draws a
    fresh column or one of one value (one cell of it maybe with the other
    zero sign or NaN payload), or derives one (``DERIVED``) from its home
    column or an earlier column of the call.  Whether a column
    that is not the pool's own is read-only is drawn too, so the memo meets
    read-only columns of every kind at every position.
    """
    long = draw(st.booleans())
    length = draw(st.integers(256, 2 * 1024 + 10) if long else st.integers(0, 12))
    batch = 1024 if long else draw(st.sampled_from([1, 2, 3, 5, 1024]))

    def fresh(n):
        if long:  # a few values repeated, so that long columns cost few draws
            return np.resize(np.array(draw(st.lists(CELL_VALUES, min_size=1, max_size=32))), n)
        return np.array(draw(st.lists(VALUES, min_size=n, max_size=n)), dtype=float)

    pool = [np.resize(np.array(draw(st.lists(INTEGRAL, min_size=1, max_size=12))), length),
            *(fresh(length) for _ in range(draw(st.integers(0, 2))))]
    for column in pool:
        column.flags.writeable = False
    calls = []
    homes = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4))
    cut = draw(st.integers(0, length))
    for _ in range(draw(st.integers(2, 4))):
        n = draw(st.sampled_from([length, cut]))
        arrays = []
        for home in homes:
            how = draw(st.sampled_from(["shared", "new", "const", *DERIVED]))
            if how == "shared":
                column = pool[home][:n]
            else:
                if how == "new":
                    column = fresh(n)
                elif how == "const":
                    column = np.full(n, draw(VALUES))
                    if n and draw(st.booleans()):
                        at = draw(st.integers(0, n - 1))
                        column[at:at + 1] = _flip_zero_signs(_other_nan_payload(column[at:at + 1]))
                else:
                    sources = [pool[home][:n], *arrays]
                    column = DERIVED[how](sources[draw(st.integers(0, len(sources) - 1))])
                column.flags.writeable = draw(st.booleans())
            arrays.append(column)
        calls.append(arrays)
    return batch, calls


def _memo_model(model, arrays):
    """The memo's policy on ``model``, position -> column, for one call.

    A read-only column of more than one value is kept, unless the kept one
    has its bits.
    """
    for i, a in enumerate(arrays):
        bits = a.view(np.uint64)
        if a.flags.writeable or not len(a) or (bits == bits[0]).all():
            continue
        if i not in model or not np.array_equal(model[i].view(np.uint64), bits):
            model[i] = a


@settings(max_examples=200)
@given(drawn=format_calls())
def test_format_rows_is_the_per_cell_format(drawn):
    # the calls in the drawn order and then reversed, from an empty memo, as
    # its texts follow the batch size: each batch is one block of the
    # oracle's rows, and after each call the memo holds at each position what
    # its policy keeps, the column itself and the text of each of its batches
    batch, calls = drawn
    blocks = [["".join(row + "\n" for row in rows[start:start + batch])
               for start in range(0, len(rows), batch)]
              for rows in map(_reference_rows, calls)]
    model = {}
    with mock.patch.object(csvfile, "_BATCH", batch), mock.patch.object(csvfile, "_memo", {}):
        for arrays, expected in zip(calls + calls[::-1], blocks + blocks[::-1]):
            assert list(csvfile.format_rows(arrays)) == expected
            _memo_model(model, arrays)
            assert csvfile._memo.keys() == model.keys()
            for i, (held, texts) in csvfile._memo.items():
                assert held is model[i]
                assert texts == ["\n".join(write_oracle.cells(held[start:start + batch]))
                                 for start in range(0, len(held), batch)]


@pytest.fixture(scope="module")
def sweep_trace():
    """The first run of ``table3-fb-sweep-2khz``: 30,001 rows, most cells 12 bytes."""
    return run_simulation(build_preset("table3-fb-sweep-2khz").configs[0])


def _peak(call, *args):
    """What ``call(*args)`` returns, and the peak that tracemalloc traced during the call."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_a_trace_holds_one_batch_at_a_time(tmp_path, sweep_trace):
    # a sweep trace of 30,001 rows and 4.04 MiB, written with an empty memo:
    # the writer holds one batch's cells, rows and text block at a time and
    # the memo's batch texts, never the whole file's text.  The peak is
    # 2.88 MiB with the formatter's 0.66 MiB arena held for the whole write
    # (2.20 MiB when each formatter call made and dropped its own arrays,
    # 2.11 MiB a column at a time, as with repr per cell)
    path = tmp_path / "trace.csv"
    with mock.patch.object(csvfile, "_memo", {}):
        _, peak = _peak(write_trace_csv, sweep_trace, path)
    assert path.stat().st_size > 4 * 2**20
    assert peak < 3 * 2**20


def _read_only(a):
    a.flags.writeable = False
    return a


def test_the_memo_holds_the_last_read_only_column_at_each_position():
    # the column itself, never a copy; a writable column or one of one value
    # throughout leaves the entry alone
    first, last, other = (_read_only(np.arange(2500) * x) for x in (1.0, 0.5, 0.25))
    with mock.patch.object(csvfile, "_memo", {}):
        for arrays in ([first, other], [last, other], [first.copy()] * 2,
                       [_read_only(np.full(2500, math.nan))] * 2):
            list(csvfile.format_rows(arrays))
        assert csvfile._memo[0][0] is last and csvfile._memo[1][0] is other


def test_a_hit_needs_every_bit():
    # the kept column cut short is formatted anew and replaces the entry
    kept = _read_only(np.arange(2500.0))
    short = kept[:-1]
    with mock.patch.object(csvfile, "_memo", {}):
        list(csvfile.format_rows([kept]))
        assert _rows(csvfile.format_rows([short])) == _reference_rows([short])
        assert csvfile._memo[0][0] is short


def test_a_column_that_is_not_float64_is_rejected():
    # before the first block is yielded
    for dtype in (np.int64, np.float32):
        blocks = []
        with pytest.raises(TypeError) as err:
            blocks.extend(csvfile.format_rows([np.arange(2500.0), np.arange(2500, dtype=dtype)]))
        assert str(err.value) == f"column 1 is {np.dtype(dtype)}, not float64"
        assert blocks == []


def _fails_after_the_first(blocks):
    """The first of ``blocks``, then a RuntimeError, as a source that fails partway."""
    yield next(blocks)
    raise RuntimeError("the source failed")


def test_a_write_that_raises_leaves_no_file(tmp_path):
    # an int64 column fails before the first block, after the header is
    # out; pieces that fail after their first block fail after the first
    # batch's rows are out
    column = np.arange(csvfile._BATCH + 10.0)
    for pieces, error in (
        (csvfile.format_rows([np.arange(3.0), np.arange(3)]), TypeError),
        (_fails_after_the_first(csvfile.format_rows([column, column * 0.5])), RuntimeError),
    ):
        path = tmp_path / "partial.csv"
        with pytest.raises(error):
            csvfile.write(path, "trace", [], ("a", "n"), pieces)
        assert not path.exists()


def test_writes_share_no_formatter_state(tmp_path):
    # two writes advanced in turn each yield what they yield alone; a write
    # that raises after its first block and one closed after its first block
    # leave nothing held beside the memo, no formatter arena among it
    rng = np.random.default_rng(3)
    runs = [[rng.normal(size=3 * csvfile._BATCH) for _ in range(k)] for k in (6, 2)]
    alone = [list(csvfile.format_rows(arrays)) for arrays in runs]
    assert list(zip(*map(csvfile.format_rows, runs))) == list(zip(*alone))
    kept = _read_only(np.arange(3000.0) * 1e-3)
    with mock.patch.object(csvfile, "_memo", {}):
        tracemalloc.start()
        try:
            list(csvfile.format_rows([kept]))
            memo = tracemalloc.get_traced_memory()[0]
            blocks = csvfile.format_rows(runs[1])
            next(blocks)
            with pytest.raises(RuntimeError):
                blocks.throw(RuntimeError("the write failed"))
            blocks = csvfile.format_rows(runs[0])
            next(blocks)
            blocks.close()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert csvfile._memo.keys() == {0}
    # an arena is 17 words a cell for 5,120 cells (680 KiB)
    assert abs(retained - memo) < 2**12
    arena = csvfile._ARENA_ROWS * csvfile._CELLS * 8
    assert all(v.nbytes < arena for v in vars(csvfile).values() if isinstance(v, np.ndarray))


def test_a_miss_drops_the_kept_entry_before_formatting():
    # the old and the new text are never held at once: the entry is gone
    # when the first block is out, and the new one is kept once all are
    first, other = (_read_only(np.arange(3000) * x) for x in (1.0, 0.5))
    with mock.patch.object(csvfile, "_memo", {}):
        list(csvfile.format_rows([first]))
        blocks = csvfile.format_rows([other])
        next(blocks)
        assert csvfile._memo == {}
        list(blocks)
        assert csvfile._memo[0][0] is other


def test_a_memoized_column_is_formatted_once_across_calls():
    shared = _read_only(np.arange(2500.0) * 1e-3)
    calls = [[shared, shared * 3 + 3],
             [_read_only(shared.copy()), shared * 5 + 5],  # the same bits in another array
             [shared[:1500], shared[:1500] * 7 + 7]]  # a truncated run's prefix
    list(csvfile.format_rows(calls[0]))
    with mock.patch.object(csvfile, "_cells", wraps=csvfile._cells) as cells:
        rows = [_rows(csvfile.format_rows(arrays)) for arrays in calls[1:]]
    assert rows == [_reference_rows(arrays) for arrays in calls[1:]]
    # the second column's three batches, then both columns' two, each batch
    # in one call: a prefix of the kept bits is a miss
    assert [len(call.args[0]) for call in cells.call_args_list] == [1024, 1024, 452, 2048, 952]


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
            assert _rows(csvfile.format_rows(arrays)) == _reference_rows(arrays)
    # each batch of t and of u_ffw is among the values handed to _cells once
    handed = b"".join(call.args[0].tobytes() for call in cells.call_args_list)
    for column in (t, u_ffw):
        assert [handed.count(column[start:start + csvfile._BATCH].tobytes())
                for start in range(0, 2500, csvfile._BATCH)] == [1, 1, 1]


def test_a_trace_after_a_table_on_its_grid_is_written_as_a_fresh_process_writes_it(tmp_path):
    # a table's columns are read-only, so the memo keeps its grid, and the
    # tick times of a trace on that grid hit it; the memo is the writer's
    # only state, so an empty one writes what a fresh process writes
    cfg = replace(build_preset("table3-fb-sweep-2khz").configs[0], duration=1.0)
    table = solve_feedforward(cfg.nominal_params, cfg.trajectory, 1 / cfg.control_frequency, 1.0)
    trace = run_simulation(cfg)
    with mock.patch.object(csvfile, "_memo", {}):
        write_trace_csv(trace, tmp_path / "fresh.csv")
    with mock.patch.object(csvfile, "_memo", {}):
        write_table_csv(table, tmp_path / "table.csv")
        assert csvfile._memo[0][0] is table.t
        write_trace_csv(trace, tmp_path / "trace.csv")
        assert csvfile._memo[0][0] is table.t  # a hit keeps the entry
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_a_new_funnel_does_not_grow_the_memo(tmp_path, sweep_trace):
    # two sweep traces on one grid and reference with different funnels: the
    # second replaces the first's psi text, never holding both
    first, second = sweep_trace, run_simulation(build_preset("table3-fb-sweep-2khz").configs[1])
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
    # 10 KiB, and the second write peaks 0.07 MiB above the first (1.25 MiB with both texts)
    assert retained < 1.5 * 2**20
    assert now < retained + 2**16
    assert peak < first_peak + 2**18


# row counts from none to two blocks of the reader's for the widest rows
READ_ROWS = st.sampled_from([0, 1, 2, 3, 7] + [k * 256 + d for k in (1, 2) for d in (-1, 0, 1)])
BAD_CELLS = ["x", " ", "nan", "-inf", " 1.5", "1_0", "1e999", "--1", "0x1p3", "1,5"]
NOISY_VALUES = np.array([0.0, -0.0, 2.0, -2.0, QUIET_NAN, OTHER_NAN, math.inf, 1e16, 0.1, 1e-300])


def _noisy(rng, rows):
    """``rows`` cells, each from ``NOISY_VALUES`` or normal, evenly."""
    return np.where(rng.random(rows) < 0.5, rng.choice(NOISY_VALUES, rows), rng.normal(size=rows))


@st.composite
def read_cases(draw, pool, rows=READ_ROWS):
    """A file body and its columns: a written trace of ``rows`` rows that may then be broken.

    Columns are drawn fresh, constant, empty, one value up to a row and
    another after it, constant but for one cell, equal to an earlier
    column, or equal to it but for one cell (its first kept), so that
    columns that nearly repeat sit beside columns that do.  Or a column
    comes from ``pool``, the columns that the files of one example share
    as a sweep's traces do: cut to the file's rows like a truncated run,
    maybe with the signs of its zeros flipped or one cell emptied.  A
    column of integers may be spelt as older traces spelt them.
    """
    n = draw(st.integers(1, 12))
    rows = draw(rows)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = []
    for _ in range(n):
        how = draw(st.sampled_from(["new", "const", "empty", "step", "almost", "copy", "near",
                                    "shared", "zeros", "emptied"]))
        if how in ("copy", "near") and not arrays:
            how = "new"
        if how == "new":
            column = _noisy(rng, rows)
        elif how in ("shared", "zeros", "emptied"):
            column = pool[draw(st.integers(0, len(pool) - 1))][:rows].copy()
            if how == "zeros":
                column = _flip_zero_signs(column)
            elif rows and how == "emptied":
                column[draw(st.integers(0, rows - 1))] = math.nan
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
    integer = tuple(i for i, a in enumerate(arrays)
                    if np.all(~np.isfinite(a) | (np.trunc(a) == a)) and draw(st.booleans()))
    for i in integer:
        arrays[i] = np.where(np.isfinite(arrays[i]), arrays[i], math.nan)
    lines = [row + "\n" for row in _integer_rows(arrays, integer)] if rows else []
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["blank", "cell", "short", "extra", "crlf", "cr",
                                    "no final newline"]))
        if how in ("crlf", "cr"):
            lines = [line.replace("\n", "\r\n" if how == "crlf" else "\r") for line in lines]
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
                # the block holds as many cells as it should
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


def _named(outcome, path, name):
    """The outcome of reading ``path`` as reading the same bytes under ``name`` gives it: an error names the file."""
    if isinstance(outcome[0], type):
        return outcome[0], outcome[1].replace(str(path), name, 1)
    return outcome


@settings(max_examples=200)
@given(data=st.data())
def test_read_is_the_per_row_read(tmp_path_factory, data):
    # one to four files that share columns, read in the drawn order and
    # reversed, so each file follows another; whole blocks, or blocks of a
    # few bytes to a few rows, where rows straddle blocks and a row longer
    # than a block makes the buffer grow; from each file or through a pipe
    block = data.draw(st.just(csvfile._BLOCK) | st.integers(1, 300))
    rows = READ_ROWS if block == csvfile._BLOCK else st.integers(0, 12)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pool = [_noisy(rng, 2 * 256 + 1) for _ in range(data.draw(st.integers(1, 3)))]
    folder = tmp_path_factory.mktemp("read")
    files = []
    for k, (columns, body) in enumerate(data.draw(st.lists(read_cases(pool, rows), min_size=1,
                                                           max_size=4))):
        path = folder / f"trace{k}.csv"
        path.write_bytes(b"# twomass trace\n# status: completed\n" + ",".join(columns).encode()
                         + b"\n" + body)
        files.append((path, columns, _read_outcome(read_oracle.read, path, columns)))
    pipe = data.draw(st.booleans())
    with mock.patch.object(csvfile, "_BLOCK", block):
        for path, columns, expected in files + files[::-1]:
            with piped(path) if pipe else contextlib.nullcontext(str(path)) as name:
                assert _read_outcome(csvfile.read, name, columns) == _named(expected, path, name)


# spellings that the writer never writes, all but "0x1p3" read by float()
LAX_CELLS = ["1_0", " 1.5", "1.5 ", "nan", "NaN", "infinity", "-Infinity", "+1.5", "1E+05", "1e5",
             "0x1p3", "\u0663", "-1e+1_0", "1.5e5"]


@pytest.mark.parametrize("cell", LAX_CELLS)
def test_read_rejects_each_spelling_the_writer_never_writes(tmp_path, cell):
    # after rows that the block parser proves, so float() is never called:
    # the grammar rejects the cell before float() could read it
    path = tmp_path / "trace.csv"
    body = "".join(f"{proven},{proven}\n" for proven in PROVEN_CELLS) + f"0.1,{cell}\n"
    path.write_text("# twomass trace\na,b\n" + body + "0.1,0.1\n", encoding="utf-8")
    expected = (ParseError, f"{path}: malformed trace row {'0.1,' + cell!r}")
    with mock.patch.object(csvfile, "float", create=True, wraps=float) as parsed:
        assert _read_outcome(csvfile.read, path, ("a", "b")) == expected
    assert parsed.call_args_list == []
    assert _read_outcome(read_oracle.read, path, ("a", "b")) == expected


def test_a_bad_row_before_undecodable_bytes_is_named_first(tmp_path):
    # the bytes sit 24 kB, 200 rows, after the bad row
    row = ",".join([repr(0.1 + 0.2)] * 6) + "\n"
    rows = [row, "x" + row[1:]] + [row] * 300
    rows[200] = "\xff\n"
    path = tmp_path / "trace.csv"
    path.write_bytes(b"# twomass trace\na,b,c,d,e,f\n" + "".join(rows).encode("latin-1"))
    with pytest.raises(ParseError, match="malformed trace row 'x.30000000000000004,"):
        csvfile.read(path, "trace", tuple("abcdef"))


def test_read_holds_little_beside_its_array(tmp_path):
    # batches go straight into the one array, sized by the file's newlines:
    # no per-batch blocks are kept and joined at the end, which would double
    # the peak
    rng = np.random.default_rng(0)
    rows = 30_001
    arrays = ([np.arange(rows) * 5e-4] + [rng.normal(size=rows) for _ in range(7)]
              + [np.full(rows, math.nan), np.zeros(rows)])
    columns = tuple(TRACE_COLUMNS.split(","))
    path = tmp_path / "trace.csv"
    csvfile.write(path, "trace", [], columns, (row + "\n" for row in _integer_rows(arrays, (9,))))
    (_, data), peak = _peak(csvfile.read, path, "trace", columns)
    assert data.shape == (rows, 10)
    assert peak <= 1.3 * data.nbytes


def test_reading_a_sweep_trace_holds_little_beside_its_array(tmp_path, sweep_trace):
    # short cells put the most cells in a block, so the parser's arrays for
    # one block are at their largest beside the array: 1.27 times it
    path = tmp_path / "trace.csv"
    with mock.patch.object(csvfile, "_memo", {}):
        write_trace_csv(sweep_trace, path)
    (_, data), peak = _peak(csvfile.read, path, "trace", tuple(TRACE_COLUMNS.split(",")))
    assert data.shape == (30_001, 10)
    assert peak <= 1.3 * data.nbytes


def _write_trace_of(path, arrays):
    columns = [f"c{i}" for i in range(len(arrays))]
    csvfile.write(path, "trace", [], columns, csvfile.format_rows(arrays))
    return columns


def _module_state():
    """Each global of ``csvfile`` by identity, a dict's values by identity and an array's bytes."""
    state = {}
    for name, value in vars(csvfile).items():
        if isinstance(value, dict):
            value = (id(value), {key: id(item) for key, item in value.items()})
        elif isinstance(value, np.ndarray):
            value = (id(value), value.tobytes())
        else:
            value = id(value)
        state[name] = value
    return state


def test_read_keeps_nothing_between_calls(tmp_path):
    # the tick times of one grid in three files, then other columns: each
    # read is its own, and no read changes the module's globals
    grid = np.arange(3000.0) * 5e-4
    paths = []
    for k in range(3):
        paths.append(tmp_path / f"trace{k}.csv")
        columns = _write_trace_of(paths[-1], [grid[:3000 - 700 * k], grid[:3000 - 700 * k] * k])
    expected = [_read_outcome(read_oracle.read, path, columns) for path in paths]
    before = _module_state()
    for path, want in zip(paths + paths[::-1], expected + expected[::-1]):
        assert _read_outcome(csvfile.read, path, columns) == want
    assert _module_state() == before


# cells that the block parser leaves to float(): powers of two from an
# inexact product, exact midpoints between two floats (2**53 + 1 and
# 10**23), more than 19 digits, 24 bytes or more before the exponent,
# three-digit exponents (repr's too), a one-digit exponent and infinities
FLOAT_CELLS = ["0.5", "-2.0", "1.0", "0.0001220703125", "9007199254740993", "9007199254740993.0",
               "1e+23", "12345678901234567890.0", "0.000000000000000000001234", "1e-300",
               "1.5e+280", "1.2345678901234567e-100", "inf", "-inf", "1e+5", "1.5e-0005"]
# cells that it proves: repr's fixed and scientific layouts, signs, zeros,
# integers (powers of two among them: an exact product), a point at either
# end, leading zeros and 19 digits
PROVEN_CELLS = ["0.1", "-0.30000000000000004", "12.566370614359172", "1e-05", "-9.99e-05",
                "1.2345678901234567e-99", "3.3e+16", "0.0", "-0.0", "3", "12", "1", "8",
                "9007199254740992", "1e+22", "5.", "-.75", "007.25", "1234567890123456789",
                "0.00012345678901234567"]


def test_float_reads_only_the_cells_the_parser_cannot_prove(tmp_path):
    cells = FLOAT_CELLS + PROVEN_CELLS + [""]
    path = tmp_path / "trace.csv"
    body = "".join(f"{cell},{cell}\n" for cell in cells * 20)
    path.write_text("# twomass trace\na,b\n" + body)
    with mock.patch.object(csvfile, "float", create=True, wraps=float) as parsed:
        result = _read_outcome(csvfile.read, path, ("a", "b"))
    assert result == _read_outcome(read_oracle.read, path, ("a", "b"))
    assert sorted(call.args[0] for call in parsed.call_args_list) == sorted(FLOAT_CELLS * 40)


def _in_grammar(text):
    """Whether the oracle reads ``text`` as a cell."""
    try:
        read_oracle._cell(text)
    except ValueError:
        return False
    return True


def _with_point(digits, at, sign, zeros):
    """``digits`` with a point after ``at`` of them, ``zeros`` leading zeros and ``sign``."""
    at = min(at, len(digits))
    return sign + "0" * zeros + digits[:at] + "." + digits[at:]


def _decimal(value):
    """The exact decimal digits of a Decimal, with no exponent."""
    return format(value, "f")


# exact midpoints between two floats of [2**48, 2**63) in full: odd
# multiples of half their spacing, most often 19 digits with four after the
# point, where the double-double product is inexact and comes nearest to a
# tie; and the midpoints just below powers of two, where the spacing halves
MIDPOINTS = st.one_of(
    st.builds(lambda j, s: _decimal(Decimal(2 * j + 1) * Decimal(2) ** s),
              st.integers(2**52, 8 * 10**15 - 1), st.sampled_from([-4, -4, -4, -3, -2, -1, 0, 9])),
    st.builds(lambda e: _decimal(Decimal(2) ** e - Decimal(2) ** (e - 54)), st.integers(49, 63)),
)
CELL_TEXTS = st.one_of(
    # repr of float64 bit patterns over all exponents, zeros of both signs
    st.builds(repr, CELL_VALUES),
    # spellings of the grammar that repr never writes
    st.sampled_from(["007.5", "-.5", "5.", "inf", "-inf", "1e+5", "1e-0005", "0e-400", "-0",
                     ".5e+10", "5.e-05"]),
    # any count of digits with a point anywhere, up to cells far beyond 24 bytes
    st.builds(_with_point, st.text("0123456789", min_size=1, max_size=30), st.integers(0, 30),
              st.sampled_from(["", "-"]), st.integers(0, 3)),
    # scientific cells with any mantissa and repr's or other exponents
    st.builds(lambda m, e: f"{m}e{e:+03d}", st.integers(-10**25, 10**25), st.integers(-340, 320)),
    # the midpoints and their neighbours one unit in the last place away
    st.builds(lambda cell, k: cell[:-1] + str(int(cell[-1]) + k) if 0 <= int(cell[-1]) + k <= 9
              else cell, MIDPOINTS, st.sampled_from([0, 0, -1, 1])),
    st.sampled_from(["1e+23", "-9007199254740993", "9007199254740993.0"]),
).filter(_in_grammar)


def _parse_block(lines, n):
    """``csvfile._parse_block`` on the rows ``lines``, laid out in a buffer as the reader lays out a block."""
    body = "".join(lines).encode()
    text = bytearray(b"0" * csvfile._WINDOW + body + bytes(8 + -len(body) % 8))
    return csvfile._parse_block(np.frombuffer(text, dtype=np.uint8), csvfile._WINDOW + len(body), n)


# cells of fewer than 24 bytes besides the sign, with repr's two-digit
# exponent or none: the point anywhere or nowhere, as many leading zeros as fit
TWO_DIGIT_CELLS = st.builds(
    lambda sign, digits, at, exponent: sign + (digits if at is None else
                                               digits[:at] + "." + digits[at:])
    + ("" if exponent is None else f"e{exponent:+03d}"),
    st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=22),
    st.none() | st.integers(0, 22), st.none() | st.integers(-99, 99))
# the least and the greatest q these form, -99 - 22 and 99
TWO_DIGIT_ENDS = [".0000000000000000000001e-99", "-.9999999999999999999999e-99",
                  "9999999999999999999e+99", "1e+99"]


@settings(max_examples=300)
@given(cells=st.lists(CELL_TEXTS, min_size=1, max_size=48), ties=st.lists(MIDPOINTS, max_size=64),
       two_digit=st.lists(TWO_DIGIT_CELLS, min_size=1, max_size=48), n=st.integers(1, 6))
def test_block_parser_is_float_cell_for_cell(cells, ties, two_digit, n):
    # the drawn two-digit cells with the ends, cells and midpoints, repeated
    # over rows that fill a block: each cell is float()'s, and each two-digit
    # cell forms a q in the table, both ends of which are reached
    two_digit += TWO_DIGIT_ENDS
    cells = two_digit + cells + ties
    cycle = cells * n  # len(cells) rows of n cells, after which the rows repeat
    rows = [",".join(cycle[k:k + n]) + "\n" for k in range(0, len(cycle), n)]
    lines = rows * -(-csvfile._BLOCK // sum(map(len, rows)))  # whole cycles that fill a block
    formed = []

    def scaled(w, q, unspied=csvfile._scaled):
        formed.append(q + csvfile._Q_MIN)  # before _scaled spends it
        return unspied(w, q)

    with mock.patch.object(csvfile, "_scaled", scaled):
        parsed = _parse_block(lines, n)
    cell = np.arange(len(lines) * n) % len(cells)  # the index in cells of each parsed cell
    assert parsed.tobytes() == np.array([float(text) for text in cells])[cell].tobytes()
    # the two-digit cells open the block: a short cell's exponent check reads
    # the bytes before it, and a cell such as "1e+5" forms a q that means nothing
    (q,) = formed
    q = q[:len(two_digit)]
    assert csvfile._Q_MIN <= q.min() <= -121 and 99 <= q.max() <= csvfile._Q_MAX


@pytest.mark.parametrize("rows", [["1e+5,\n"], [",1e+5\n"], ["1e+5\n", "\n"]],
                         ids=["comma", "newline", "rows-of-one"])
def test_a_short_cell_after_a_scientific_one_is_not_scientific(rows):
    # the byte four before the end of the empty cell is the "e" of "1e+5"
    # before it, which is no exponent of the empty cell: its q is 0, inside
    # the table, and it reads as NaN without float()
    lines = rows * 64
    n = rows[0].count(",") + 1
    formed = []

    def scaled(w, q, unspied=csvfile._scaled):
        formed.append(q + csvfile._Q_MIN)  # before _scaled spends it
        return unspied(w, q)

    with mock.patch.object(csvfile, "_scaled", scaled), \
            mock.patch.object(csvfile, "float", create=True, wraps=float) as parsed:
        values = _parse_block(lines, n)
    texts = "".join(lines).replace("\n", ",").split(",")[:-1]
    assert values.tobytes() == np.array([float(text or "nan") for text in texts]).tobytes()
    (q,) = formed
    assert csvfile._Q_MIN <= q.min() and q.max() <= csvfile._Q_MAX
    assert [k for text, k in zip(texts, q.tolist()) if text == ""] == [0] * 64
    # "1e+5" is not repr's two-digit exponent, so float() reads it, and only it
    assert [call.args[0] for call in parsed.call_args_list] == ["1e+5"] * 64


def test_extreme_cells_parse_with_floating_point_errors_raised():
    # infinities, subnormals, the float range's ends, values beyond it, more
    # than 19 digits and empty (NaN) cells make the parser's arithmetic
    # overflow, underflow and compare NaN; it keeps that to itself
    cells = ["inf", "-inf", "99999999999999999999", "", "0.0", "-0.0", "5e-324",
             "2.2250738585072014e-308", "1.7976931348623157e+308", "1e+400", "-1e-400", "9999999999999999999",
             "1e-300", "1e+300", "0.5", "1.5"]
    lines = [",".join(cells) + "\n"] * 300
    expected = np.array([float(cell) if cell else math.nan for cell in cells] * 300)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _parse_block(lines, len(cells)).tobytes() == expected.tobytes()
        assert np.geterr() == {"divide": "raise", "over": "raise", "under": "raise",
                               "invalid": "raise"}


@pytest.mark.parametrize("w", [1, 9_219_999_999_999_999_999])
@pytest.mark.parametrize("q", [csvfile._Q_MIN, csvfile._Q_MAX])
def test_the_table_corners_scale_with_floating_point_errors_raised(w, q):
    # the least and the greatest digits the parser proves, at either end of
    # the powers of ten: every term of the product stays a normal float
    with np.errstate(all="raise"):
        r, unproven = csvfile._scaled(np.array([w], dtype=np.uint64),
                                      np.array([q - csvfile._Q_MIN]))
    assert not unproven[0]
    assert r[0] == float(f"{w}e{q}")


@pytest.mark.parametrize("q", [csvfile._Q_MIN - 1, csvfile._Q_MAX + 1])
def test_a_power_past_the_table_goes_to_float(q):
    with np.errstate(all="ignore"):
        _, unproven = csvfile._scaled(np.array([1], dtype=np.uint64),
                                      np.array([q - csvfile._Q_MIN]))
    assert unproven[0]


def _long_trace(rows=700):
    """The lines of a written trace of ``rows`` rows, noisy, scientific and older traces' integer cells among them."""
    rng = np.random.default_rng(5)
    arrays = [np.arange(rows) * 5e-4, rng.normal(size=rows), rng.normal(size=rows) * 1e-6,
              np.full(rows, math.nan), np.floor(rng.random(rows) * 4)]
    return [row + "\n" for row in _integer_rows(arrays, (4,))]


def _short_row(lines):
    lines[400] = lines[400].rsplit(",", 1)[0] + "\n"
    return "".join(lines).encode()


def _non_ascii_digit(lines):
    # float() reads the Arabic-Indic digit three; the grammar's digits are ASCII
    lines[300] = "\u0663" + lines[300][lines[300].index(","):]
    return "".join(lines).encode()


def _crlf(lines):
    return "".join(lines).replace("\n", "\r\n").encode()


def _lone_cr_endings(lines):
    # a lone "\r" ends a line, as in text mode: the file holds fewer
    # newlines than rows until each "\r" becomes one
    return "".join(lines[:200] + [line.replace("\n", "\r") for line in lines[200:]]).encode()


def _no_final_newline(lines):
    return "".join(lines).rstrip("\n").encode()


def _undecodable_after_malformed_row(lines):
    # the byte lies 200 rows after the bad row, several blocks of 2000 bytes on
    lines[100] = "x" + lines[100]
    return "".join(lines[:300]).encode() + b"\xff\n" + "".join(lines[300:]).encode()


def _undecodable_in_the_chunk_of_a_malformed_row(lines):
    # the byte lies two rows after the bad row
    lines[100] = "x" + lines[100]
    return "".join(lines[:102]).encode() + b"\xff\n" + "".join(lines[102:]).encode()


def _blank_last_line(lines):
    return "".join(lines + ["\n"]).encode()


def _line_separator_in_a_row(lines):
    # U+2028 ends a line for str.splitlines, not for the reader; float() takes
    # it as white space before a cell, the grammar does not
    lines[300] = lines[300].replace(",", ",\u2028", 1)
    return "".join(lines).encode()


def _nul_byte(lines):
    lines[500] = lines[500].replace(",", "\0,", 1)
    return "".join(lines).encode()


def _character_cut_at_a_block_end(lines):
    # one column: two bytes of a three-byte character end the file's second
    # 16-byte block, and the byte that would end it follows an ASCII block
    return b"x\n1.5\n2.5\n3.\xe2\x82\n4.5\n5.5\n6.5\n7.\n\xac\n"


def _hostile(rows, columns="abcde", blocks=(csvfile._BLOCK, 2000), error=None):
    """A hostile case: its rows from a long trace's lines, its columns, blocks and error's start."""
    return pytest.param(rows, tuple(columns), blocks, error, id=rows.__name__)


HOSTILE = [*map(_hostile, [_short_row, _crlf, _lone_cr_endings, _no_final_newline,
                           _blank_last_line, _nul_byte]),
           _hostile(_non_ascii_digit, error="malformed trace row '\u0663,"),
           _hostile(_line_separator_in_a_row, error="malformed trace row '0.15,\\u2028"),
           # the bad row comes before the undecodable bytes, so it is named
           _hostile(_undecodable_after_malformed_row, error="malformed trace row 'x"),
           _hostile(_undecodable_in_the_chunk_of_a_malformed_row, error="malformed trace row 'x"),
           _hostile(_character_cut_at_a_block_end, "a", (16,), "malformed trace row 'x'")]


@pytest.mark.parametrize("hostile, columns, blocks, error", HOSTILE)
def test_hostile_long_files_are_the_per_row_read(tmp_path, hostile, columns, blocks, error):
    # each fault inside blocks that are otherwise parsed whole: one block of
    # the whole file, or blocks of about 40 rows, unless the case names its
    # own; from the file and a pipe
    path = tmp_path / "trace.csv"
    path.write_bytes(f"# twomass trace\n{','.join(columns)}\n".encode() + hostile(_long_trace()))
    expected = _read_outcome(read_oracle.read, path, columns)
    assert not error or expected[0] is ParseError and expected[1].startswith(f"{path}: {error}")
    for block in blocks:
        with mock.patch.object(csvfile, "_BLOCK", block):
            assert _read_outcome(csvfile.read, path, columns) == expected
            with piped(path) as name:
                assert _read_outcome(csvfile.read, name, columns) == _named(expected, path, name)


@settings(max_examples=100)
@given(rows=st.integers(2, 40), data=st.data(),
       block=st.one_of(st.integers(1, 300), st.just(csvfile._BLOCK)))
def test_the_earlier_of_a_bad_row_and_undecodable_bytes_is_named(tmp_path_factory, rows, data,
                                                                  block):
    # whichever comes first in row order, whatever the block size
    lines = [line.encode() for line in _long_trace(rows)]
    bad, undecodable = data.draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2,
                                          unique=True))
    lines[bad] = b"x" + lines[bad]
    lines[undecodable] = lines[undecodable].replace(b",", b",\xff", 1)
    path = tmp_path_factory.mktemp("order") / "trace.csv"
    path.write_bytes(b"# twomass trace\na,b,c,d,e\n" + b"".join(lines))
    error = (f"malformed trace row {lines[bad][:-1].decode()!r}" if bad < undecodable
             else "not UTF-8 text (invalid start byte)")
    expected = _read_outcome(read_oracle.read, path, tuple("abcde"))
    assert expected == (ParseError, f"{path}: {error}")
    with mock.patch.object(csvfile, "_BLOCK", block):
        assert _read_outcome(csvfile.read, path, tuple("abcde")) == expected


@pytest.mark.parametrize("block", [csvfile._BLOCK, 2000])
def test_rows_added_while_a_file_is_read_are_read(tmp_path, block):
    # the file gains rows after the scan that sizes the array, so the array grows
    lines = [line.encode() for line in _long_trace()]
    path = tmp_path / "trace.csv"
    path.write_bytes(b"# twomass trace\na,b,c,d,e\n" + b"".join(lines[:300]))
    scan = csvfile._scan

    def scan_then_grow(raw):
        counted = scan(raw)
        with open(path, "ab") as fh:
            fh.write(b"".join(lines[300:]))
        return counted

    with mock.patch.object(csvfile, "_scan", scan_then_grow), \
            mock.patch.object(csvfile, "_BLOCK", block):
        got = _read_outcome(csvfile.read, path, tuple("abcde"))
    expected = _read_outcome(read_oracle.read, path, tuple("abcde"))
    assert expected[1] == (700, 5)
    assert got == expected


@pytest.mark.parametrize("head, rows", [
    ("# twomass trace\n# label: \u03a9 \u0663 \U0001f642\na,b,c,d,e\n", 700),
    ("# twomass trace\n# status: completed\na,b,c,d,e\n", 0),
    ("# twomass trace\na,b,c,d,e", 0),
])
def test_named_headers_are_the_per_row_read(tmp_path, head, rows):
    # a label that is not ASCII, a file with no rows, a column line with no newline
    path = tmp_path / "trace.csv"
    path.write_bytes(head.encode() + "".join(_long_trace()[:rows]).encode())
    expected = _read_outcome(read_oracle.read, path, tuple("abcde"))
    assert expected[1] == (rows, 5)
    assert _read_outcome(csvfile.read, path, tuple("abcde")) == expected
    with piped(path) as name:
        assert _read_outcome(csvfile.read, name, tuple("abcde")) == _named(expected, path, name)


def test_a_pipe_reads_as_its_file_does(tmp_path):
    # a pipe cannot seek: it is read into memory, then as its file is;
    # 3,000 rows of 280 KiB fill the pipe
    path = tmp_path / "trace.csv"
    rng = np.random.default_rng(3)
    columns = _write_trace_of(path, [np.arange(3000) * 5e-4, *rng.normal(size=(4, 3000))])
    expected = _read_outcome(csvfile.read, path, columns)
    assert expected[1] == (3000, 5)
    with piped(path) as name:
        assert _read_outcome(csvfile.read, name, columns) == expected


def test_concurrent_reads_are_the_per_row_read(tmp_path):
    # two threads read three files over and over, switching as often as the
    # interpreter allows; the reader shares no state between calls
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
                    got = _read_outcome(csvfile.read, path, columns)
                    matches.append(got == want)
        except Exception as err:
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
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
