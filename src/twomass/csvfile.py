"""The one file format of the package: CSV under a ``#``-comment header.

Trace, feedforward-table and metrics files all follow one grammar::

    # twomass KIND
    # key: value            (any number of header lines)
    col_a,col_b,...
    1.5,,3                  (data rows)

A cell holds ``repr`` of a float, so every value reads back bit for bit; NaN
is an empty cell.  The reader takes these cells and no others: empty, or an
optional ``-`` and then ``inf`` or ASCII digits with at most one point and
at least one digit, then maybe ``e``, a sign and digits.  So it also takes
the integer cells (``0``, ``1``) of the ``newton_iterations`` column of
trace files written while that column had a cell rule of its own.  Config
echoes sit in header values as sorted ``key=value`` pairs joined by ``|``.
A header key, or a key within an echo, appears once: a second copy is a
parse error naming the key, never a value that replaces the first.  Files
are UTF-8 on both read and write, whatever the locale.

The writer takes float64 columns only and writes every cell by one rule:
``repr``, and NaN empty.  It makes the cells of every column chunk together
in numpy, byte for byte what ``repr`` writes: the shortest digits that read
back to the float, from a double-double product by a power of ten.  The
scalar rule itself writes a constant column's one cell and each cell that
the formatter cannot prove: within 1e-6 of a tie or of the rounding
interval's edge, an exact power of two, a NaN, an infinity, or a magnitude
outside ``[1e-98, 1e7)``.

The writer works on batches of rows and formats a repeated or constant
column of a batch once.  The batch's other columns that it does not
remember go to the formatter end to end, in calls of at most 5,120 cells,
so its fixed cost is paid once for every five columns.  The formatter works
in one arena that a write holds from its first batch to its last and drops
when it ends, is closed or raises, so no batch hands memory back to the
system only to touch it again.  It also remembers read-only columns (a
sweep's tick times) from one file to the next: it keeps the last one of
more than one value met at each position, the array itself and its text,
for a later column of the same bits.  It joins each batch's rows into one
newline-terminated text block, so no Python code runs per row between the
cells and the file, and ends every line with ``"\\n"`` on every platform.

The reader first scans a file's bytes: it counts the newlines and finds
whether any ``"\\r"`` is there.  A file with one is read into memory, as a
pipe is, and its ``"\\r\\n"`` and lone ``"\\r"`` become ``"\\n"``, as in
text mode.  The rows are read 64 KiB at a time straight into one buffer
and cut after the last newline, and every cell of a block is parsed
together in numpy, bit for bit what ``float()`` reads: the digits and the
exponent of each cell, then one rounding of their double-double product.
No line or cell string is made, and the rows fill one array sized by the
newline count, so the array is never moved or copied as it grows; the
reader keeps nothing between files.  ``float()`` itself reads each cell of
the grammar that the parser cannot prove: any but ``-ddd.ddde-dd`` (sign,
point and repr's two-digit exponent optional, fewer than 24 bytes before
the exponent besides the sign, at most 19 digits), so ``inf``, a
three-digit exponent, a product within 1e-6 of a tie, or an exact power
of two.  A block with a byte that is not ASCII, a row not ``n`` cells long
or a cell off the grammar is an error, and only then are its rows checked
one by one.  Each header line and each such row is decoded from UTF-8 on
its own, as a ``"\\n"`` byte never lies inside a character; so the first
bad row or undecodable byte in row order is named.
"""

from __future__ import annotations

import io
import math
import os
import re

import numpy as np

from .errors import ParseError, ValidationError

__all__ = ["format_echo", "parse_echo", "format_rows", "write", "read"]

# rows formatted per batch: bounds the strings alive at once while writing,
# one batch's cells, rows and text block
_BATCH = 1024
# cells per formatter call, five columns of a batch (the new columns of most
# of a controller comparison's batches), and the words a cell of the
# formatter's arena, which one write holds for all its calls
_CELLS, _ARENA_ROWS = 5 * _BATCH, 17
# bytes read and parsed per block: bounds the text and the arrays alive at once while reading
_BLOCK = 1 << 16


def format_echo(echo: dict) -> str:
    """One-line form of a config echo: sorted ``key=value`` pairs joined by ``|``."""
    return "|".join(f"{k}={v}" for k, v in sorted(echo.items()))


def parse_echo(text: str, where) -> dict:
    """Inverse of :func:`format_echo`; a value may itself hold ``=``.

    ``where`` names the file in parse errors: a pair without ``=`` or a
    repeated key is one.  An empty text is the empty echo.
    """
    echo: dict = {}
    for pair in text.split("|") if text else ():
        key, sep, value = pair.partition("=")
        if not sep:
            raise ParseError(f"{where}: malformed config echo pair {pair!r}")
        if key in echo:
            raise ParseError(f"{where}: duplicate config echo key {key!r}")
        echo[key] = value
    return echo


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
# this cannot prove go to ``_cell``, among them an exact power of two, whose
# rounding interval is lopsided, a cell whose ``log10`` is off by one, and
# one outside ``[1e-98, 1e7)`` (its 17 digits could overflow an int64), which
# the arithmetic takes as 1.0, so no cell raises a floating-point error.

# decimal exponents laid out, from scientific ``d.ddde-99`` to ``ddddddd.d``
_EXP_MIN, _EXP_MAX = -99, 6
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves


def _word(text: str) -> int:
    """Up to eight ASCII bytes as one little-endian word, NUL-padded."""
    return int.from_bytes(text.encode("ascii").ljust(8, b"\0"), "little")


def _layout():
    """Per decimal exponent ``e``: the layout of its cells.

    Each row holds the divisor and multiplier that split the 17 digits at
    the point, the mask of the integer digits, the point word's index base,
    its offset when no digit follows the point, and the word that ends the
    cell.
    """
    rows = []
    for e in range(_EXP_MIN, _EXP_MAX + 1):
        scientific = e < -4  # repr's switch: a decimal point position below -3
        before = 1 if scientific else max(e + 1, 0)  # digits before the point
        zeros = 0 if scientific else max(-1 - e, 0)  # zeros after it
        shown = max(before, 1)  # "0.001" shows one integer digit
        rows.append((
            10 ** (17 - before),
            10**before,
            ((1 << 8 * shown) - 1) << 8 * (8 - shown),
            10 * zeros,
            40 if scientific else 0,
            _word(f"e{e:+03d}\n" if scientific else "\n"),
        ))
    return np.array(rows, dtype=np.uint64).view(np.int64).T.copy()


def _powers():
    """Per q in [_Q_MIN, _Q_MAX], one column: ``10**q``'s nearest double, that double's Dekker halves and the remainder."""
    rows = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        hi = num / den  # int / int rounds correctly
        m, e = math.frexp(hi)  # hi = a / b exactly
        a, b = int(m * 2**53) << max(e - 53, 0), 1 << max(53 - e, 0)
        c = hi * _SPLIT
        upper = c - (c - hi)
        rows.append((hi, upper, hi - upper, (num * b - a * den) / (den * b)))
    return np.array(rows).T.copy()


def _two_product(a: np.ndarray, hi, upper, lower):
    """``a * hi`` as ``p + err``, exact but for underflow (Dekker); ``upper`` and ``lower`` are ``hi``'s halves, and are spent."""
    up = a * _SPLIT
    dn = up - a
    up -= dn
    np.subtract(a, up, out=dn)
    p = a * hi
    err = up * upper
    err -= p
    up *= lower
    err += up
    upper *= dn
    err += upper
    lower *= dn
    err += lower
    return p, err


def _four_digits() -> np.ndarray:
    """The four ASCII digits of each of 0..9999 as one word, the first in the lowest byte."""
    pairs = np.array([_word(f"{i:02d}") for i in range(100)], dtype=np.uint32)
    return (pairs[:, None] | pairs << 16).ravel()


# the exponents of the powers of ten held: a read cell has fewer than 24 digits
# after its point and an exponent of -99 or more; the writer scales by 10**(16 - e)
_Q_MIN, _Q_MAX = -122, 16 - _EXP_MIN
_POWERS = _powers()
# the writer's columns of it, 10**(16 - e) for e = _EXP_MIN.._EXP_MAX, in
# one block that a cell's layout row indexes
_SCALE = _POWERS[:, 16 - _EXP_MIN - _Q_MIN:15 - _EXP_MAX - _Q_MIN:-1].copy()
_LAYOUT = _layout()
_DIGITS = _four_digits()
_ASCII_ZEROS = 0x3030303030303030
# the first k bytes of a word, k = 0..8
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64).view(np.int64)
# the point word: "." then z zeros then the first fraction digit g at index
# 10 z + g; the ten words from 40 on are empty (scientific, one digit)
_POINT = np.array([_word("." + "0" * z + str(g)) for z in range(4) for g in range(10)]
                  + [0] * 10)


def _shortest(x: np.ndarray, arena: np.ndarray):
    """The 17-digit integer of each cell's shortest digits, its exponent's table row, and the unproven cells.

    The digits of an unproven cell are 0, as are a zero's.  The scale and gap
    rows are the first 8 rows of ``len(x)`` words of the write's ``arena``.
    """
    ax = np.abs(x)
    outside = ~((ax >= 1e-98) & (ax < 1e7))  # zero, NaN and inf among them
    ax[outside] = 1.0
    e = np.log10(ax)
    np.floor(e, out=e)
    row = e.astype(np.intp)
    row -= _EXP_MIN
    # y = ax * 10**(16 - e) = p + err, exact to double-double precision
    work = arena[:8 * len(x)].view(np.float64).reshape(8, len(x))
    hi, upper, lower, lo = _SCALE.take(row, axis=1, mode="clip", out=work[:4])
    p, err = _two_product(ax, hi, upper, lower)
    lo *= ax
    err += lo
    whole = np.floor(err, out=lo)
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
    gap = work[4:]
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
    n17 -= 10**16  # not 17 digits (log10 off by one), or rounds up to 18
    unproven |= n17.view(np.uint64) >= 9 * 10**16 - 50
    unproven |= (bits & (2**52 - 1)) == 0
    unproven |= outside
    np.copyto(digits, 0, where=unproven)
    unproven &= x != 0.0
    return digits, row, unproven


def _cell(x: float) -> str:
    """One cell: ``repr`` of ``x``, NaN empty."""
    return "" if x != x else repr(x)


def _cells(x: np.ndarray, arena: np.ndarray) -> list[str]:
    """The cells of one float64 column chunk, each what :func:`_cell` writes.

    Its large arrays are rows of ``len(x)`` words in ``arena``, which a write
    holds for all its calls of at most ``_CELLS`` cells: ``_shortest``'s, then
    the layout, the digit words, their halves and then ASCII, and the block.
    The cells that ``_shortest`` cannot prove go to :func:`_cell`.
    """
    n = len(x)
    work = arena[:_ARENA_ROWS * n].reshape(_ARENA_ROWS, n)
    digits, row, unproven = _shortest(x, arena)
    # words: the integer digits, fraction digits 2-9 and 10-17
    layout, words, high = work[:6], work[6:9], work[9:12]
    divide, multiply, int_mask, point, no_fraction, end = _LAYOUT.take(row, axis=1, mode="clip", out=layout)
    del row
    np.floor_divide(digits, divide, out=words[0])
    divide *= words[0]
    fraction = np.subtract(digits, divide, out=digits)
    fraction *= multiply
    first = fraction // 10**16
    fraction -= first * 10**16
    np.floor_divide(fraction, 10**8, out=words[1])
    np.multiply(words[1], 10**8, out=words[2])
    np.subtract(fraction, words[2], out=words[2])
    # each word as its two groups of four digits, the first in the low half,
    # then as their ASCII in the rows of the spent high halves
    np.floor_divide(words, 10**4, out=high)
    words -= np.multiply(high, 10**4, out=work[12:15])
    words <<= 32
    words |= high
    _DIGITS.take(words.view(np.int32), out=high.view(np.uint32), mode="clip")
    spent, words = words, high
    # the fraction up to its last non-zero digit: with "0" as 0, a byte is
    # below 16, so a word's bit length as a double never rounds across a byte
    kept = np.frexp((words[1:] ^ _ASCII_ZEROS).astype(np.float64))[1]
    kept += 7
    kept >>= 3
    np.copyto(kept[0], 8, where=kept[1] != 0)
    words[1:] &= _LOW_BYTES.take(kept, out=spent[1:], mode="clip")
    words[0] &= int_mask
    words[0] |= np.signbit(x) * ord("-")
    fraction += first
    point += first
    point += (fraction == 0) * no_fraction
    del digits, fraction, first, kept
    block = work[12:].reshape(n, 5)  # per cell: integer, point, fraction, end
    block[:, 0] = words[0]
    block[:, 1] = _POINT.take(point)
    block[:, 2:4] = words[1:].T
    block[:, 4] = end
    cells = block.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    cells.pop()
    for i in np.flatnonzero(unproven).tolist():
        cells[i] = _cell(x[i].item())
    return cells


# position -> (column, "\n"-joined cells of each of its batches): the last
# read-only column of more than one value that format_rows formatted there
_memo: dict = {}


def _kept_batches(i, bits):
    """The batches kept at memo position ``i`` if its column has ``bits``, all of them; else None, the entry dropped."""
    held, batches = _memo.get(i, (None, None))
    if held is not None and np.array_equal(bits, held.view(np.uint64)):
        return batches
    _memo.pop(i, None)
    return None


def format_rows(arrays):
    """Data rows in the cell format, one per index of the equally long float64 ``arrays``.

    Yields one text block per batch of ``_BATCH`` rows, the batch's rows each
    ended by a newline, as :func:`write` takes them.  A column that is not
    float64 raises TypeError before the first block.

    Every cell is what :func:`_cell` writes.  Within a batch, a column whose
    values have the same bits as an earlier column's reuses that column's
    cells (an ideal sensor's ``y_measured`` is its ``y_true``), and a column
    that holds one value throughout formats it once with :func:`_cell`
    (``y_ref`` after ``tf``); equal bits make equal cells, so ``-0.0`` and
    NaN payloads are never confused.  The batch's other chunks that the memo
    below does not hold go through the vector formatter end to end, in calls
    of at most ``_CELLS`` cells.  Every call works in one arena that this
    generator holds until it ends, is closed or raises.

    At each position, the memo keeps the last read-only column formatted
    there in full: the array itself, with no copy, and the text of each of
    its batches.  So a column that repeats from file to file (the tick times
    of one grid, a table's tuned torque) is formatted once.  A later
    read-only column hits only when it has the kept column's bits, all of
    them: a truncated run's prefix is formatted anew.  A miss drops the kept
    entry before formatting, so the old and the new text are never held at
    once.  A writable column, or one of one value throughout (an absent
    branch's NaN), neither hits nor displaces the entry.  A read-only column
    must not change while the memo holds it.
    """
    n = len(arrays[0])
    hits, fills = {}, {}  # position -> the kept batches it reads / the batches it keeps
    for i, a in enumerate(arrays):
        if a.dtype != np.float64:
            raise TypeError(f"column {i} is {a.dtype}, not float64")
        bits = a.view(np.uint64)
        if a.flags.writeable or not n or (bits == bits[0]).all():
            continue
        batches = _kept_batches(i, bits)
        if batches is None:
            fills[i] = []
        else:
            hits[i] = batches
    arena = np.empty(_ARENA_ROWS * _CELLS, dtype=np.int64)
    for start in range(0, n, _BATCH):
        chunks = [a[start:start + _BATCH] for a in arrays]
        m = len(chunks[0])
        keys = [chunk.tobytes() for chunk in chunks]
        columns, new = [], []  # per column its cells, or its place among the new chunks
        for i, (chunk, key) in enumerate(zip(chunks, keys)):
            first = keys.index(key)
            if first < i:
                cells = columns[first]
            elif i in hits:
                cells = hits[i][start // _BATCH].split("\n")
            elif key == key[:8] * m:  # one float's bytes throughout
                cells = [_cell(chunk[0].item())] * m
            else:
                cells = len(new)
                new.append(chunk)
            columns.append(cells)
        if new:
            values, cells = np.concatenate(new), []
            for at in range(0, len(values), _CELLS):
                cells += _cells(values[at:at + _CELLS], arena)
            columns = [cells[c * m:c * m + m] if type(c) is int else c for c in columns]
        for i, batches in fills.items():
            batches.append("\n".join(columns[i]))
        yield "\n".join(map(",".join, zip(*columns))) + "\n"
    for i, batches in fills.items():
        _memo[i] = (arrays[i], batches)


def write(path, kind: str, header, columns, pieces) -> None:
    """Write one file: ``header`` holds ``(key, value)`` pairs, ``pieces`` the data.

    ``pieces`` is an iterable of newline-terminated pieces of whole rows,
    written as they come: the blocks of :func:`format_rows`, or one row and
    its newline per piece.  If anything raises while the file is written (a
    column that ``format_rows`` rejects, a ``pieces`` that fails partway),
    the file is removed before the error goes on, so no partial file is
    left; a symlink or a device named by ``path`` is left in place.
    """
    head = [f"# twomass {kind}", *(f"# {key}: {value}" for key, value in header), ",".join(columns)]
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write("\n".join(head) + "\n")
            fh.writelines(pieces)
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)
        raise


# The reader parses a block's cells together in numpy, each to the float
# that ``float()`` reads: the digits ``w`` and the exponent ``q`` of
# ``w * 10**q``, then one rounding of their product (Clinger, "How to read
# floating point numbers accurately", PLDI 1990; Lemire, "Number parsing at
# a gigabyte per second", Softw. Pract. Exp. 2021).  Each cell's mantissa
# is gathered as the three little-endian words of the 24 bytes that end
# where it ends; the bytes before it, its sign among them, become 0 digits.
# The point is cut out by moving the bytes below it up one place, and each
# word of eight digits becomes its integer in three multiply-shift steps.
# ``w`` times ``10**q`` is a Dekker double-double (``_two_product``), and
# its rounding to a double is kept unless what the rounding left out lies
# within 1e-6 of half an ulp (a tie) or the double is an exact power of two
# (its lower ulp is half the upper).  The module docstring lists the cells
# that go to ``float()`` instead.

# a cell of the grammar that the module docstring states
_CELL = re.compile(rb"(?:-?(?:inf|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[-+][0-9]+)?))?")
_WINDOW = 24  # mantissa bytes parsed in numpy: three words of eight digits
_ALL = np.uint64(2**64 - 1)
# per word of a window, the most significant first: the bit count that,
# less 8 per mantissa byte, shifts its mask of the mantissa
_KEEP_SHIFTS = np.array([[192], [128], [64]])
_EXPONENT_DIGITS = np.array([[-2], [-1]])  # from the end of "e-05"


def _windows(buf: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The ``_WINDOW`` bytes of ``buf`` that end at each of ``stops``: (3, cells) little-endian words, the first bytes in the first.

    Each word is shifted out of the two aligned words that hold it,
    gathered through one base word index per cell; ``buf`` spans whole
    words.  Spends ``stops``.
    """
    base = stops
    base -= _WINDOW
    shift = (base & 7).view(np.uint64)
    shift <<= 3
    base >>= 3
    words = buf.view(np.uint64)
    x = np.empty((3, len(base)), dtype=np.uint64)
    words.take(base, out=x[0], mode="clip")
    x[0] >>= shift
    up = np.subtract(64, shift)
    spill = np.empty_like(shift)
    for k in (1, 2, 3):
        base += 1
        words.take(base, out=spill, mode="clip")
        if k < 3:
            np.right_shift(spill, shift, out=x[k])
        spill <<= up  # by 64: 0
        x[k - 1] |= spill
    return x


def _significands(x: np.ndarray, size: np.ndarray):
    """The integer of each mantissa of ``size`` bytes that ends its window ``x``, its digits after the point, and the mantissas that are not ``ddd.ddd``.

    Also not proven: no digit, more than 19 digits, or ``_WINDOW`` bytes or
    more.  Spends ``x`` and ``size``: the digits after the point are
    returned in ``size``'s place.
    """
    bad = size < 1
    bad |= size >= _WINDOW
    lone = size == 1  # no digit if it is the point
    # bytes to digits ("." to 0x1E), and the bytes before the mantissa to 0
    x ^= 0x3030303030303030
    size <<= 3
    t = np.subtract(_KEEP_SHIFTS, size)
    np.maximum(t, 0, out=t)
    t = t.view(np.uint64)
    np.left_shift(_ALL, t, out=t)
    x &= t
    del t
    # the point: 0x01 in its byte by haszero on x ^ 0x1E (each byte is below
    # 0x80; a false hit lies above a true one), then the bytes below it, as
    # one 192-bit number less one
    below = x ^ 0x1E1E1E1E1E1E1E1E
    below -= 0x0101010101010101
    below &= 0x8080808080808080
    below >>= 7
    no_point = below == 0
    no_point[1] &= no_point[0]
    no_point[2] &= no_point[1]
    below[0] -= 1
    below[1:] -= no_point[:2]
    point = ~no_point[2]
    del no_point
    below *= point
    # the bytes below the point: their low bits summed over the three words
    # (at most 3 a byte), then over the bytes of the sum; a false hit's byte
    # counts too, but only a "/" makes one, and the digit check rejects it
    t = below & 0x0101010101010101
    t[0] += t[1]
    after = size.view(np.uint64)
    np.add(t[0], t[2], out=after)
    del t
    after *= 0x0101010101010101
    after >>= 56
    after = after.view(np.int64)
    np.subtract(_WINDOW - 1, after, out=after)
    after *= point
    # cut the point out: the bytes below it move up one place, over the 0
    # that the window's first byte holds; from the last word down, so that
    # each reads its lower neighbour as it was
    moved = np.empty_like(below[0])
    carry = np.empty_like(moved)
    for k in (2, 1, 0):
        np.bitwise_and(x[k], below[k], out=moved)
        moved <<= 8
        below[k] <<= 8
        if k:
            np.bitwise_and(x[k - 1], below[k - 1], out=carry)
            carry >>= 56
            moved |= carry
            np.right_shift(below[k - 1], 56, out=carry)
            below[k] |= carry
        np.invert(below[k], out=below[k])
        x[k] &= below[k]
        x[k] |= moved
    del below, moved, carry
    # each byte 0 to 9, then eight digits a word
    t = x + 0x7676767676767676
    t &= 0x8080808080808080
    t[0] |= t[1]
    t[0] |= t[2]
    bad |= t[0] != 0
    del t
    x *= 2561
    x >>= 8
    x &= 0x00FF00FF00FF00FF
    x *= 6553601
    x >>= 16
    x &= 0x0000FFFF0000FFFF
    x *= 42949672960001
    x >>= 32
    bad |= x[0] > 921  # below 9.22e18 < 2**63: at most 19 digits
    lone &= point
    bad |= lone
    w = x[0] * 10**16
    x[1] *= 10**8
    w += x[1]
    w += x[2]
    return w, after, bad


def _scaled(w: np.ndarray, q: np.ndarray):
    """``w * 10**q`` rounded once, and the products that rounding cannot prove.

    ``q`` holds ``q - _Q_MIN``, and is spent.  A ``q`` out of the table's
    range computes garbage, unproven.  Within it, with ``0 < w < 2**63``, every
    product lies in [1e-122, 1e134], where every term below stays normal.
    Each row of the table is gathered when it is needed.
    """
    unproven = q.view(np.uint64) > _Q_MAX - _Q_MIN
    a = w.astype(np.float64)
    hi = _POWERS[0].take(q, mode="clip")
    r, rem = _two_product(a, hi, _POWERS[1].take(q, mode="clip"),
                          _POWERS[2].take(q, mode="clip"))
    err = (w - a.astype(np.uint64)).view(np.int64).astype(np.float64)  # w - a, exact
    err *= hi
    del hi
    lo = _POWERS[3].take(q, mode="clip")
    lo *= a
    err += lo
    del lo
    err += rem
    del rem
    # round r + err once; err becomes what the rounding left out
    up = np.add(r, err, out=a)
    r -= up
    err += r
    r = up
    bits = r.view(np.int64)
    ulp = bits & 0x7FF << 52
    ulp -= 52 << 52
    np.abs(err, out=err)
    inexact = err >= (0.5 - 1e-6) * ulp.view(np.float64)  # near a tie
    inexact |= (bits & 2**52 - 1) == 0  # a power of two: its lower ulp is half
    # an exact product needs none of these: a zero, or w and 10**q both
    # doubles, as in Clinger's fast path (an older trace's integer cells)
    q += _Q_MIN
    exact = q.view(np.uint64) <= 22
    exact &= w <= 2**53
    exact |= w == 0
    np.greater(inexact, exact, out=inexact)
    unproven |= inexact
    return r, unproven


def _parse_block(buf: np.ndarray, stop: int, n: int) -> np.ndarray:
    """The cells of the rows ``buf[_WINDOW:stop]``, ``n`` to a row, as row-major float64s.

    ``buf`` starts with one window of ``"0"`` (the first cell's), its last
    row ends in ``"\n"`` at ``stop - 1``, and it spans whole words past
    ``stop``.  Raises ValueError on a byte that is not ASCII, a row of the
    wrong length or a cell off the grammar, without naming it.  Each
    array is dropped once spent: what a block holds at once is what the
    reader holds beside its result.
    """
    text = buf[:stop]
    if text.max() >= 0x80:
        raise ValueError
    ends = text == ord("\n")
    rows = np.count_nonzero(ends)
    ends |= text == ord(",")
    ends = np.flatnonzero(ends)
    if len(ends) != n * rows or (text[ends[n - 1::n]] != ord("\n")).any():
        raise ValueError
    size = np.empty_like(ends)  # the cells' starts, until they become their sizes
    size[0] = _WINDOW
    np.add(ends[:-1], 1, out=size[1:])
    negative = text[size] == ord("-")
    empty = size == ends
    # repr's two-digit exponent, "e-05": the mantissa ends before it.  A
    # cell of fewer than four bytes reads the "e" of the cell before it
    # ("0" after "1e5"), so only an "e" inside the cell counts
    scientific = np.flatnonzero(text[ends - 4] == ord("e"))
    scientific = scientific[ends[scientific] - 4 >= size[scientific]]
    stops = ends.copy()
    if len(scientific):
        at = ends[scientific]
        sign = text[at - 3]
        digits = text[at + _EXPONENT_DIGITS].astype(np.intp)
        digits -= ord("0")
        exponent = digits[0] * 10 + digits[1]
        np.negative(exponent, out=exponent, where=sign == ord("-"))
        # a wrong exponent leaves no mantissa
        wrong = ((digits < 0) | (digits > 9)).any(axis=0) | (
            (sign != ord("-")) & (sign != ord("+")))
        stops[scientific] = np.where(wrong, size[scientific], at - 4)
        del at, sign, digits, wrong
    np.subtract(stops, size, out=size)
    size -= negative  # the window reads the sign as a leading 0
    x = _windows(buf, stops)
    del stops
    w, q, unproven = _significands(x, size)
    del x, size
    # q holds the digits after the point, then the power of ten less _Q_MIN
    np.negative(q, out=q)
    if len(scientific):
        q[scientific] += exponent
    q -= _Q_MIN
    with np.errstate(all="ignore"):
        r, inexact = _scaled(w, q)
    del w, q
    unproven |= inexact
    np.greater(unproven, empty, out=unproven)
    bits = r.view(np.int64)
    bits |= np.left_shift(negative, 63, dtype=np.int64)  # the sign
    np.putmask(r, empty, math.nan)
    for i in np.flatnonzero(unproven).tolist():
        start = ends[i - 1] + 1 if i else _WINDOW
        cell = text[start:ends[i]].tobytes()
        if not _CELL.fullmatch(cell):
            raise ValueError
        r[i] = float(cell.decode())
    return r


def _bad_row(lines, n: int, path, kind: str) -> None:
    """Raise ParseError on the first row of ``lines`` (bytes, no ``"\\n"``, each decoded on its own) not of ``n`` grammar cells."""
    for line in lines:
        row = line.decode()
        cells = line.split(b",")
        if len(cells) != n or not all(map(_CELL.fullmatch, cells)):
            raise ParseError(f"{path}: malformed {kind} row {row!r}") from None


def _scan(raw) -> tuple[int, bool]:
    """The lines of binary file ``raw`` split at ``"\\n"``, whether it holds a ``"\\r"``, and ``raw`` back at its start."""
    count, last, cr = 0, b"\n", False
    while block := raw.read(_BLOCK):
        count += np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
        last = block[-1:]
        cr = cr or b"\r" in block
    raw.seek(0)
    return count + (last != b"\n"), cr


def _header(raw, path, kind: str, column_line: str) -> tuple[dict, int]:
    """The header of binary file ``raw``, read through its column line, and the lines read."""
    lines = (line.rstrip(b"\n").decode() for line in raw)
    if next(lines, "") != f"# twomass {kind}":
        raise ValidationError(f"{path}: not a twomass {kind} file")
    header: dict = {}
    seen = 2  # the kind line and the column line
    for line in lines:
        if line == column_line:
            return header, seen
        if not line.startswith("#"):
            raise ValidationError(f"{path}: unexpected {kind} columns {line!r}")
        key, sep, value = line[2:].partition(": ")
        if not (line.startswith("# ") and sep):
            raise ParseError(f"{path}: malformed header line {line!r}")
        if key in header:
            raise ParseError(f"{path}: duplicate header key {key!r}")
        header[key] = value
        seen += 1
    raise ValidationError(f"{path}: no column line {column_line!r}")


def _read_blocks(raw, n: int, rows: int, path, kind: str) -> np.ndarray:
    """The data rows of binary file ``raw`` from where it stands, in an array sized for ``rows``.

    Reads up to ``_BLOCK`` bytes at a time into one buffer, after the
    partial row that the last block left, and parses the rows up to the
    last ``"\\n"``.  The buffer doubles while one row fills it.  A block
    that does not parse is searched for its first bad row, which raises.
    """
    data = np.empty((rows, n))
    done = 0
    # the first window, then the block in whole words and one word to spare
    text = bytearray(b"0" * _WINDOW + bytes((_BLOCK + 15) // 8 * 8))
    held = _WINDOW  # the end of the partial row carried over
    while True:
        got = raw.readinto(memoryview(text)[held:len(text) - 8])
        end = held + got
        cut = text.rfind(b"\n", held, end) + 1
        if not got:
            if held == _WINDOW:
                return data[:done]
            text[held] = ord("\n")  # the last row, not ended by a newline
            end = cut = held + 1
        elif not cut:
            if end == len(text) - 8:  # a row longer than the buffer
                text += bytes(len(text))
            held = end
            continue
        buf = np.frombuffer(text, dtype=np.uint8)
        try:
            block = _parse_block(buf, cut, n)
        except ValueError:
            _bad_row(text[_WINDOW:cut - 1].split(b"\n"), n, path, kind)
            raise
        del buf
        stop = done + len(block) // n
        if stop > len(data):  # the file grew while read
            data = np.concatenate((data[:done], np.empty((2 * stop - done, n))))
        data[done:stop] = np.reshape(block, (-1, n))
        done = stop
        text[_WINDOW:_WINDOW + end - cut] = text[cut:end]
        held = _WINDOW + end - cut


def read(path, kind: str, columns) -> tuple[dict, np.ndarray]:
    """Read a file of ``kind`` with exactly ``columns``: its header dict and a float array.

    The array has one row per data row, each cell read bit for bit, an empty
    one as NaN; a cell off the module docstring's grammar raises.  A first
    pass counts the file's newlines and finds whether it holds a
    ``"\\r"``.  A pipe, or a file with a ``"\\r"``, is read into memory
    first; there ``"\\r\\n"`` and a lone ``"\\r"`` become ``"\\n"``, as text
    mode reads them, and the newlines are counted again.  The rows are
    read ``_BLOCK`` bytes at a time, every cell of a block parsed together
    in numpy (the module docstring says which cells go to ``float()``),
    into one array of that many rows.  A ParseError names the first bad
    row or undecodable byte.
    """
    column_line = ",".join(columns)
    n = len(columns)
    try:
        with open(path, "rb") as raw:
            if not raw.seekable():
                raw = io.BytesIO(raw.read())
            count, cr = _scan(raw)
            if cr:
                raw = io.BytesIO(raw.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
                count, _ = _scan(raw)
            header, seen = _header(raw, path, kind, column_line)
            data = _read_blocks(raw, n, max(count - seen, 0), path, kind)
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from None
    return header, data
