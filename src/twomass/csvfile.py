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

The writer makes the float cells of a column chunk of 256 rows or more
together in numpy, byte for byte what ``repr`` writes: the shortest digits
that read back to the float, from a double-double product by a power of
ten.  ``repr`` itself writes a shorter chunk's cells and each cell that the
formatter cannot prove: within 1e-6 of a tie or of the rounding interval's
edge, an exact power of two, a NaN, an infinity, or a magnitude outside
``[1e-98, 1e7)``.

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


# The float cells of a column chunk are ``repr``'s shortest round-trip digits
# (Steele and White, PLDI 1990), found a whole chunk at a time.  For each
# cell, ``|x| * 10**(16 - e)`` with ``e = floor(log10|x|)`` is formed as a
# Dekker double-double and cut into the nearest 17-digit integer ``N`` and
# its fraction.  The nearest 15-digit and then 16-digit roundings of ``N``
# are kept when they lie within half an ulp of ``x`` (then no shorter
# string can, and trailing zeros are dropped); else ``N`` rounded is the
# 17-digit answer.  Digits become ASCII four at a time from a table, words
# from one row per exponent add the sign, the point, leading zeros and an
# exponent, and one pass deletes the NUL bytes between them.  The cells
# this cannot prove go to ``repr``, among them an exact power of two, whose
# rounding interval is lopsided, and a cell whose ``log10`` is off by one.

# decimal exponents laid out, from scientific ``d.ddde-99`` to ``ddddddd.d``
_EXP_MIN, _EXP_MAX = -99, 6
# shorter chunks go to repr: the vector set-up costs more than it saves there
_VECTOR_MIN = 256
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves


def _word(text: str) -> int:
    """Up to eight ASCII bytes as one little-endian word, NUL-padded."""
    return int.from_bytes(text.encode("ascii").ljust(8, b"\0"), "little")


def _tables():
    """Per decimal exponent ``e``: ``10**(16 - e)`` as a double-double, and its cells' layout.

    The float rows hold the power's nearest double, that double's two Dekker
    halves and the power's remainder, from Python ints.  The word rows hold
    the divisor and multiplier that split the 17 digits at the point, the
    mask of the integer digits, the point word's index base, its offset when
    no digit follows the point, and the word that ends the cell.
    """
    scale, layout = [], []
    for e in range(_EXP_MIN, _EXP_MAX + 1):
        power = 10 ** (16 - e)
        hi = float(power)
        c = hi * _SPLIT
        upper = c - (c - hi)
        scale.append((hi, upper, hi - upper, float(power - int(hi))))
        scientific = e < -4  # repr's switch: a decimal point position below -3
        before = 1 if scientific else max(e + 1, 0)  # digits before the point
        zeros = 0 if scientific else max(-1 - e, 0)  # zeros after it
        shown = max(before, 1)  # "0.001" shows one integer digit
        layout.append((
            10 ** (17 - before),
            10**before,
            ((1 << 8 * shown) - 1) << 8 * (8 - shown),
            10 * zeros,
            40 if scientific else 0,
            _word(f"e{e:+03d}\n" if scientific else "\n"),
        ))
    layout = np.array(layout, dtype=np.uint64).view(np.int64)
    return np.array(scale).T.copy(), layout.T.copy()


def _four_digits() -> np.ndarray:
    """The four ASCII digits of each of 0..9999 as one word, the first in the lowest byte."""
    pairs = np.array([_word(f"{i:02d}") for i in range(100)], dtype=np.uint32)
    return (pairs[:, None] | pairs << 16).ravel()


_SCALE, _LAYOUT = _tables()
_DIGITS = _four_digits()
_ASCII_ZEROS = 0x3030303030303030
# the first k bytes of a word, k = 0..8
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64).view(np.int64)
# the point word: "." then z zeros then the first fraction digit g at index
# 10 z + g; the ten words from 40 on are empty (scientific, one digit)
_POINT = np.array([_word("." + "0" * z + str(g)) for z in range(4) for g in range(10)]
                  + [0] * 10)


def _shortest(x: np.ndarray):
    """The 17-digit integer of each cell's shortest digits, its exponent's table row, and the unproven cells.

    The digits of an unproven cell are 0, as are a zero's.
    """
    ax = np.abs(x)
    tiny = ax < 1e-98
    ax[tiny] = 1.0
    e = np.log10(ax)
    np.floor(e, out=e)
    row = e.astype(np.intp)
    row -= _EXP_MIN
    hi, upper, lower, lo = _SCALE.take(row, axis=1, mode="clip")
    # y = ax * 10**(16 - e) = p + err, exact to double-double precision
    a_up = ax * _SPLIT
    a_lo = a_up - ax
    a_up -= a_lo
    np.subtract(ax, a_up, out=a_lo)
    p = ax * hi
    err = a_up * upper
    err -= p
    a_up *= lower
    err += a_up
    upper *= a_lo
    err += upper
    a_lo *= lower
    err += a_lo
    lo *= ax
    err += lo
    whole = np.floor(err, out=a_up)
    frac = err
    frac -= whole
    n17 = p.astype(np.int64)
    n17 += whole.astype(np.int64)
    bits = ax.view(np.int64)
    half_ulp = p.view(np.int64)  # 2**(E - 53) for ax in [2**E, 2**(E + 1))
    np.bitwise_and(bits, 0x7FF << 52, out=half_ulp)
    half_ulp -= 53 << 52
    half_ulp = p
    half_ulp *= hi
    # the distances to the 15- and 16-digit roundings less half an ulp, of
    # the 16-digit one from a tie, of the fraction from a tie: near 0 is unproven
    gap = np.empty((4, len(x)))
    n15 = n17 + 50
    n15 //= 100
    n15 *= 100
    np.subtract(n17, n15, out=gap[0], casting="unsafe")
    n16 = n17 + 5
    n16 //= 10
    n16 *= 10
    np.subtract(n17, n16, out=gap[1], casting="unsafe")
    gap[:2] += frac
    np.abs(gap[:2], out=gap[:2])
    np.subtract(gap[1], 5.0, out=gap[2])
    np.subtract(frac, 0.5, out=gap[3])
    gap[:2] -= half_ulp
    digits = n17 + (gap[3] >= 0.0)
    np.copyto(digits, n16, where=gap[1] < 0.0)
    np.copyto(digits, n15, where=gap[0] < 0.0)
    np.abs(gap, out=gap)
    unproven = gap.min(axis=0) <= 1e-6
    n17 -= 10**16  # not 17 digits (log10 off by one, out of range), or rounds up to 18
    unproven |= n17.view(np.uint64) >= 9 * 10**16 - 50
    unproven |= (bits & (2**52 - 1)) == 0
    unproven |= tiny
    np.copyto(digits, 0, where=unproven)
    unproven &= x != 0.0
    return digits, row, unproven


def _text(x: np.ndarray, digits: np.ndarray, row: np.ndarray) -> list[str]:
    """The cells of ``x`` from their 17 digits and table rows; 0 digits write a zero."""
    divide, multiply, int_mask, point, no_fraction, end = _LAYOUT.take(row, axis=1, mode="clip")
    n = len(x)
    words = np.empty((3, n), dtype=np.int64)  # integer digits, fraction digits 2-9 and 10-17
    np.floor_divide(digits, divide, out=words[0])
    fraction = words[0] * divide
    np.subtract(digits, fraction, out=fraction)
    fraction *= multiply
    first = fraction // 10**16
    fraction -= first * 10**16
    np.floor_divide(fraction, 10**8, out=words[1])
    np.multiply(words[1], 10**8, out=words[2])
    np.subtract(fraction, words[2], out=words[2])
    # each word as its two groups of four digits, the first in the low half
    high = words // 10**4
    words -= high * 10**4
    words <<= 32
    words |= high
    words = _DIGITS.take(words.view(np.int32)).view(np.int64)
    # the fraction up to its last non-zero digit: with "0" as 0, a byte is
    # below 16, so a word's bit length as a double never rounds across a byte
    kept = np.frexp((words[1:] ^ _ASCII_ZEROS).astype(np.float64))[1]
    kept += 7
    kept >>= 3
    np.copyto(kept[0], 8, where=kept[1] != 0)
    words[1:] &= _LOW_BYTES.take(kept)
    words[0] &= int_mask
    words[0] |= np.signbit(x) * ord("-")
    fraction += first
    point += first
    point += (fraction == 0) * no_fraction
    block = np.empty((n, 5), dtype=np.int64)  # per cell: integer, point, fraction, end
    block[:, 0] = words[0]
    block[:, 1] = _POINT.take(point)
    block[:, 2:4] = words[1:].T
    block[:, 4] = end
    cells = block.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    cells.pop()
    return cells


def _cells(values: np.ndarray, as_int: bool) -> list[str]:
    """The cells of one column chunk: ``repr`` of each float, ``int`` if ``as_int``, NaN empty."""
    if as_int or values.dtype != np.float64 or len(values) < _VECTOR_MIN:
        fmt = (lambda x: str(int(x))) if as_int else repr
        return ["" if x != x else fmt(x) for x in values.tolist()]
    with np.errstate(all="ignore"):  # NaN, inf and zero cells compute garbage, then repr
        digits, row, unproven = _shortest(values)
        cells = _text(values, digits, row)
    for i in np.flatnonzero(unproven).tolist():
        x = values[i].item()
        cells[i] = "" if x != x else repr(x)
    return cells


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
