"""Test oracle for the cell writer: the per-cell ``repr`` that the vector formatter replaced.

Each float goes through ``repr`` on its own and NaN is an empty cell.  The
writer sends every column chunk through its vector formatter,
``csvfile._cells``, and ``csvfile._cell`` writes a constant column's cell
and each cell that the formatter cannot prove; so the writer's cells must
equal this oracle's for every chunk, bit pattern and length.
"""

from __future__ import annotations

import numpy as np


def cells(values: np.ndarray) -> list[str]:
    """The cells of one column chunk, one ``repr`` call per cell."""
    return ["" if x != x else repr(x) for x in values.tolist()]
