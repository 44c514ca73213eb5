"""Test oracle for the cell writer: the per-cell ``repr`` that the vector formatter replaced.

Each float goes through ``repr`` on its own (``int`` for an integer column)
and NaN is an empty cell.  The writer sends every float column chunk
through its vector formatter, ``csvfile._cells``, and ``csvfile._cell``
writes a constant column's cell, every integer cell and each float cell that
the formatter cannot prove; so the writer's cells must equal this oracle's
for every chunk, bit pattern and length.
"""

from __future__ import annotations

import numpy as np


def cells(values: np.ndarray, as_int: bool) -> list[str]:
    """The cells of one column chunk, one ``repr`` (or ``int``) call per cell."""
    fmt = (lambda x: str(int(x))) if as_int else repr
    return ["" if x != x else fmt(x) for x in values.tolist()]
