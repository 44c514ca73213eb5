"""The one file format of the package: CSV under a ``#``-comment header.

Trace, feedforward-table and metrics files all follow one grammar::

    # twomass KIND
    # key: value            (any number of header lines)
    col_a,col_b,...
    1.5,,3                  (data rows)

A cell holds ``repr`` of a float, so every value reads back bit for bit; NaN
is an empty cell and integer columns hold ``int``.  Config echoes sit in
header values as sorted ``key=value`` pairs joined by ``|``.  Files are
UTF-8 on both read and write, whatever the locale.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .errors import ParseError, ValidationError

__all__ = ["format_echo", "parse_echo", "format_rows", "write", "read"]

# rows formatted per batch: bounds the strings alive at once while writing
_BATCH = 1024


def format_echo(echo: dict) -> str:
    """One-line form of a config echo: sorted ``key=value`` pairs joined by ``|``."""
    return "|".join(f"{k}={v}" for k, v in sorted(echo.items()))


def parse_echo(text: str) -> dict:
    """Inverse of :func:`format_echo`; a value may itself hold ``=``."""
    return dict(chunk.split("=", 1) for chunk in text.split("|") if "=" in chunk)


def _cells(values: np.ndarray, as_int: bool) -> list[str]:
    fmt = (lambda x: str(int(x))) if as_int else repr
    return ["" if x != x else fmt(x) for x in values.tolist()]


def format_rows(arrays, int_columns=()):
    """Data rows in the cell format, one per index of the equally long ``arrays``.

    ``int_columns`` holds the positions of the columns written as integers.
    Within a batch, a column whose values have the same kind, dtype and bits
    as an earlier column's reuses that column's cells (an ideal sensor's
    ``y_measured`` is its ``y_true``), and a column that holds one value
    throughout formats it once (``y_ref`` after ``tf``); equal bits make
    equal cells, so ``-0.0``, NaN payloads and integer columns are never
    confused.
    """
    n = len(arrays[0])
    for start in range(0, n, _BATCH):
        stop = start + _BATCH
        formatted = []  # (key, cells) of this batch's distinct columns
        columns = []
        for i, a in enumerate(arrays):
            chunk = a[start:stop]
            key = (i in int_columns, chunk.dtype, chunk.tobytes())
            cells = next((done for seen, done in formatted if seen == key), None)
            if cells is None:
                data = key[2]
                if data == data[: chunk.itemsize] * len(chunk):
                    cells = _cells(chunk[:1], key[0]) * len(chunk)
                else:
                    cells = _cells(chunk, key[0])
                formatted.append((key, cells))
            columns.append(cells)
        yield from map(",".join, zip(*columns))


def write(path, kind: str, header, columns, rows) -> None:
    """Write one file: ``header`` holds ``(key, value)`` pairs, ``rows`` the row strings."""
    head = [f"# twomass {kind}", *(f"# {key}: {value}" for key, value in header), ",".join(columns)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head) + "\n")
        fh.writelines(f"{row}\n" for row in rows)


def read(path, kind: str, columns) -> tuple[dict, np.ndarray]:
    """Read a file of ``kind`` with exactly ``columns``: its header dict and a float array.

    The array has one row per data row; empty cells read as NaN.
    """
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
            for line in fh:
                row = line.rstrip("\n")
                cells = row.split(",")
                try:
                    if len(cells) != n:
                        raise ValueError
                    values.extend([float(c) if c else math.nan for c in cells])
                except ValueError:
                    raise ParseError(f"{path}: malformed {kind} row {row!r}") from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from None
    return header, np.frombuffer(values).reshape(-1, n)
