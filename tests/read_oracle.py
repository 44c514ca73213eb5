"""Test oracle for the trace reader: the per-row loop that ``csvfile.read``'s
batched numpy parse replaced.

The file's bytes are read whole, ``"\\r\\n"`` and a lone ``"\\r"`` become
``"\\n"`` as in text mode, and the bytes are split into lines at ``"\\n"``.
Each line is decoded from UTF-8 on its own and each data row is split on
its own.  A cell must be what the writer writes, checked character by
character here: empty (NaN), or an optional ``-`` and then ``inf`` or a
number; a number is ASCII digits with at most one point and at least one
digit, then maybe ``e``, a sign and ASCII digits.  Such a cell goes through
``float``; any other makes its row malformed.  So the header, the array bits
and the error of any file must equal this oracle's.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from twomass.errors import ParseError, ValidationError


DIGITS = frozenset("0123456789")


def _digits(text: str) -> bool:
    """Whether ``text`` is one or more ASCII digits."""
    return bool(text) and set(text) <= DIGITS


def _cell(text: str) -> float:
    """The value of one cell; ValueError if the writer would not write it."""
    if not text:
        return math.nan
    body = text[1:] if text[0] == "-" else text
    mantissa, e, exponent = body.partition("e")
    whole, _, fraction = mantissa.partition(".")
    if body != "inf" and not (_digits(whole + fraction) and (
            not e or exponent[:1] in ("+", "-") and _digits(exponent[1:]))):
        raise ValueError(text)
    return float(text)


def read(path, kind: str, columns) -> tuple[dict, np.ndarray]:
    """Read a file of ``kind`` with exactly ``columns``, one data row at a time."""
    column_line = ",".join(columns)
    n = len(columns)
    header: dict = {}
    values = array("d")
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    lines = data.split(b"\n")
    if lines[-1] == b"":  # the last line's newline, or an empty file
        lines.pop()
    lines = iter(lines)
    try:
        if next(lines, b"").decode() != f"# twomass {kind}":
            raise ValidationError(f"{path}: not a twomass {kind} file")
        for line in lines:
            line = line.decode()
            if line == column_line:
                break
            if not line.startswith("#"):
                raise ValidationError(f"{path}: unexpected {kind} columns {line!r}")
            key, sep, value = line[2:].partition(": ")
            if not (line.startswith("# ") and sep):
                raise ParseError(f"{path}: malformed header line {line!r}")
            if key in header:
                raise ParseError(f"{path}: duplicate header key {key!r}")
            header[key] = value
        else:
            raise ValidationError(f"{path}: no column line {column_line!r}")
        for line in lines:
            row = line.decode()
            cells = row.split(",")
            try:
                if len(cells) != n:
                    raise ValueError
                values.extend(map(_cell, cells))
            except ValueError:
                raise ParseError(f"{path}: malformed {kind} row {row!r}") from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from None
    return header, np.frombuffer(values).reshape(-1, n)
