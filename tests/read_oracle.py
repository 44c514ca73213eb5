"""Test oracle for the trace reader: the per-row loop that ``csvfile.read``'s
batched numpy parse replaced.

The file's bytes are read whole, ``"\\r\\n"`` and a lone ``"\\r"`` become
``"\\n"`` as in text mode, and the bytes are split into lines at ``"\\n"``.
Each line is decoded from UTF-8 on its own, each data row is split on its
own and every cell goes through ``float`` (an empty cell reads as NaN), so
the header, the array bits and the error of any file must equal this
oracle's.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from twomass.errors import ParseError, ValidationError


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
            header[key] = value
        else:
            raise ValidationError(f"{path}: no column line {column_line!r}")
        for line in lines:
            row = line.decode()
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
