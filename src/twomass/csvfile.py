"""The one file format of the package: CSV under a ``#``-comment header.

Trace, feedforward-table and metrics files all follow one grammar::

    # twomass KIND
    # key: value            (any number of header lines)
    col_a,col_b,...
    1.5,,3                  (data rows)

A cell holds ``repr`` of a float, so every value reads back bit for bit; NaN
is an empty cell and integer columns hold ``int``.  The reader is laxer: it
takes any cell that ``float()`` takes, such as ``"1_0"``, ``" 1.5"``,
``"nan"`` or ``"infinity"``, which the writer never writes.  Config echoes sit
in header values as sorted ``key=value`` pairs joined by ``|``.  Files are
UTF-8 on both read and write, whatever the locale.

Both sides work on batches of rows, column by column, and reuse equal
cells within a batch: the writer formats a repeated or constant column
once, and the reader parses it once.  Both also remember the columns a
caller names (a sweep's tick times) from one file to the next, so that a
column repeated across files is formatted or parsed once: the writer keeps
the last read-only column met at each named position, the array itself and
its text, and the reader keeps each batch's floats under its text.  The
writer joins each batch's rows into one newline-terminated text block, so
no Python code runs per row between the cells and the file.
"""

from __future__ import annotations

import math
from array import array
from itertools import islice, repeat

import numpy as np

from .errors import ParseError, ValidationError

__all__ = ["format_echo", "parse_echo", "format_rows", "write", "read"]

# rows formatted per batch: bounds the strings alive at once while writing,
# one batch's cells, rows and text block
_BATCH = 1024
# rows parsed per batch: bounds the cell strings alive at once while reading
_READ_BATCH = 256


def format_echo(echo: dict) -> str:
    """One-line form of a config echo: sorted ``key=value`` pairs joined by ``|``."""
    return "|".join(f"{k}={v}" for k, v in sorted(echo.items()))


def parse_echo(text: str) -> dict:
    """Inverse of :func:`format_echo`; a value may itself hold ``=``."""
    return dict(chunk.split("=", 1) for chunk in text.split("|") if "=" in chunk)


def _cells(values: np.ndarray, as_int: bool) -> list[str]:
    fmt = (lambda x: str(int(x))) if as_int else repr
    return ["" if x != x else fmt(x) for x in values.tolist()]


# memo position -> (column, as_int, "\n"-joined cells of each of its batches):
# the last shared read-only column that format_rows formatted there in full
_memo: dict = {}


def _memo_bits(a: np.ndarray):
    """The bits of a read-only 8-byte column that is not one value throughout, else None."""
    if a.flags.writeable or a.itemsize != 8 or not len(a):
        return None
    bits = a.view(np.uint64)
    return None if (bits == bits[0]).all() else bits


def _kept_batches(i, a: np.ndarray, bits, as_int: bool):
    """The batches kept at memo position ``i`` if ``a`` hits there; else None, the entry dropped."""
    held, held_int, batches = _memo.get(i, (None, None, None))
    if (held_int == as_int and held.dtype == a.dtype and len(bits) <= len(held)
            and np.array_equal(bits, held[:len(bits)].view(np.uint64))):
        return batches
    _memo.pop(i, None)
    return None


def format_rows(arrays, int_columns=(), memo_columns=()):
    """Data rows in the cell format, one per index of the equally long ``arrays``.

    Yields one text block per batch of ``_BATCH`` rows, the batch's rows each
    ended by a newline, as :func:`write` takes them.

    ``int_columns`` holds the positions of the columns written as integers.
    Within a batch, a column whose values have the same kind, dtype and bits
    as an earlier column's reuses that column's cells (an ideal sensor's
    ``y_measured`` is its ``y_true``), and a column that holds one value
    throughout formats it once (``y_ref`` after ``tf``); equal bits make
    equal cells, so ``-0.0``, NaN payloads and integer columns are never
    confused.

    For each position in ``memo_columns``, the memo keeps the last read-only
    column formatted there in full: the array itself, with no copy, and the
    text of each of its batches.  So a column that repeats from file to file
    (the tick times of one grid, a table's tuned torque) is formatted once.
    A later read-only column of the same kind and dtype hits when it has the
    kept column's bits over its own length, so a truncated run's prefix hits
    too.  A miss drops the kept entry before formatting, so the old and the
    new text are never held at once.  A writable column, or one of one value
    throughout (an absent branch's NaN), neither hits nor displaces the
    entry.  A read-only column must not change while the memo holds it.
    """
    n = len(arrays[0])
    hits, fills = {}, {}  # position -> the kept batches it reads / the batches it keeps
    for i in memo_columns:
        bits = _memo_bits(arrays[i])
        if bits is not None:
            batches = _kept_batches(i, arrays[i], bits, i in int_columns)
            if batches is None:
                fills[i] = []
            else:
                hits[i] = batches
    for start in range(0, n, _BATCH):
        stop = start + _BATCH
        formatted = []  # (key, cells) of this batch's distinct columns
        columns = []
        for i, a in enumerate(arrays):
            chunk = a[start:stop]
            key = (i in int_columns, chunk.dtype, chunk.tobytes())
            cells = next((done for seen, done in formatted if seen == key), None)
            if cells is None:
                if i in hits:
                    cells = hits[i][start // _BATCH].split("\n", len(chunk))[:len(chunk)]
                else:
                    data = key[2]
                    if data == data[: chunk.itemsize] * len(chunk):
                        cells = _cells(chunk[:1], key[0]) * len(chunk)
                    else:
                        cells = _cells(chunk, key[0])
                formatted.append((key, cells))
            if i in fills:
                fills[i].append("\n".join(cells))
            columns.append(cells)
        yield "\n".join(map(",".join, zip(*columns))) + "\n"
    for i, batches in fills.items():
        _memo[i] = (arrays[i], i in int_columns, batches)


def write(path, kind: str, header, columns, pieces) -> None:
    """Write one file: ``header`` holds ``(key, value)`` pairs, ``pieces`` the data.

    ``pieces`` is an iterable of newline-terminated pieces of whole rows,
    written as they come: the blocks of :func:`format_rows`, or one row and
    its newline per piece.
    """
    head = [f"# twomass {kind}", *(f"# {key}: {value}" for key, value in header), ",".join(columns)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head) + "\n")
        fh.writelines(pieces)


def _floats(cells):
    """The floats of one column's cells: a column of one cell throughout parses it once."""
    first = cells[0]
    if cells.count(first) == len(cells):
        return float(first) if first else math.nan
    if "" in cells:
        return [float(c) if c else math.nan for c in cells]
    return array("d", map(float, cells))


# "\n"-joined cells -> [floats, stamp of the last call of read that met them]
# of a memoized column batch.  Entries are stamped in place, not moved into a
# new dict per call as format_rows does: moving them raised the peak RSS of
# 15 s of repeated analyze-traces passes by 3.5 MB, stamping by 0.5 MB.  The
# keys are the whole text on purpose: unlike the writer, the reader holds no
# column to compare bits with, so the text is its only exact hit test (after
# one table3-fb-sweep-2khz trace, 196 entries hold 0.62 MiB of key text
# beside 0.38 MiB of floats).
_read_memo: dict = {}


def _parse_batch(lines, n: int, memo_columns, stamp) -> bytes:
    """The data rows ``lines`` of ``n`` cells each as row-major float64 bytes.

    Parses column by column.  A column whose cells equal an earlier column's
    takes its floats (an ideal sensor's ``y_measured`` is its ``y_true``).
    Any other column at ``memo_columns`` that is not one cell throughout is
    looked up by its text in the memo, and stored there once parsed; either
    way its entry gets ``stamp``.  Raises ValueError on a row of the wrong
    length or a cell that is not a float, without naming it.
    """
    if any(map((n - 1).__ne__, map(str.count, lines, repeat(",")))):
        raise ValueError
    cells = ",".join(lines).replace("\n", "").split(",")
    block = np.empty((n, len(lines)))
    parsed = []  # (cells, index) of this batch's distinct columns
    for i in range(n):
        column = cells[i::n]
        j = next((j for seen, j in parsed if seen == column), None)
        if j is not None:
            block[i] = block[j]
            continue
        parsed.append((column, i))
        if i in memo_columns and column.count(column[0]) != len(column):
            # text keys: "-0.0" is not "0.0", and an empty cell is no number
            key = "\n".join(column)
            entry = _read_memo.get(key)
            if entry is None:
                block[i] = _floats(column)
                _read_memo[key] = [block[i].copy(), stamp]
            else:
                block[i] = entry[0]
                entry[1] = stamp
        else:
            block[i] = _floats(column)
    return block.T.tobytes()


def _parse_rows(lines, n: int, values, path, kind: str) -> None:
    """Append the data rows ``lines`` to ``values`` one by one, naming the first bad row."""
    for line in lines:
        row = line.rstrip("\n")
        cells = row.split(",")
        try:
            if len(cells) != n:
                raise ValueError
            values.extend([float(c) if c else math.nan for c in cells])
        except ValueError:
            raise ParseError(f"{path}: malformed {kind} row {row!r}") from None


def read(path, kind: str, columns, memo_columns=()) -> tuple[dict, np.ndarray]:
    """Read a file of ``kind`` with exactly ``columns``: its header dict and a float array.

    The array has one row per data row; empty cells read as NaN and any other
    cell as ``float()`` reads it, so ``"1_0"`` is 10.0 and ``"nan"`` NaN.  Rows are
    parsed in batches, column by column: within a batch, a column equal to an
    earlier one reuses its floats and a column of one cell throughout parses
    it once, as :func:`format_rows` formats them.  A batch with a bad row is
    parsed again row by row, so the error names the first bad row.

    The other batches of the columns at ``memo_columns`` are looked up by
    their text among those of the previous call, and kept for the next:
    columns that repeat from file to file (the tick times of one grid) are
    parsed once.  Equal text parses to equal bits, so a hit is exact.  When a
    call ends, by a return or an error, the memo holds that call's batches
    only.
    """
    stamp = object()
    column_line = ",".join(columns)
    n = len(columns)
    header: dict = {}
    values = array("d")
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != f"# twomass {kind}":
                raise ValidationError(f"{path}: not a twomass {kind} file")
            for line in fh:
                line = line.rstrip("\n")
                if line == column_line:
                    break
                if not line.startswith("#"):
                    raise ValidationError(f"{path}: unexpected {kind} columns {line!r}")
                key, sep, value = line[2:].partition(": ")
                if not (line.startswith("# ") and sep):
                    raise ParseError(f"{path}: malformed header line {line!r}")
                header[key] = value
            else:
                raise ValidationError(f"{path}: no column line {column_line!r}")
            while True:
                lines = []
                try:
                    lines.extend(islice(fh, _READ_BATCH))
                except UnicodeDecodeError:
                    # extend keeps the lines read before the undecodable one:
                    # a bad row among them is named first
                    _parse_rows(lines, n, values, path, kind)
                    raise
                if not lines:
                    break
                try:
                    values.frombytes(_parse_batch(lines, n, memo_columns, stamp))
                except ValueError:
                    _parse_rows(lines, n, values, path, kind)
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from None
    finally:
        # copy() runs no Python code, where items() may start the collector; pop: reads overlap
        for key in [key for key, entry in _read_memo.copy().items() if entry[1] is not stamp]:
            _read_memo.pop(key, None)
    return header, np.frombuffer(values).reshape(-1, n)
