"""Test oracle for the funnel: the band width and the law as scalar functions.

The package evaluates the width once per sweep as a column
(``closedloop._psi_column``) and writes the law once, in the tick loop of
``closedloop.run_simulation``; these are the plain forms that both must
equal.  :func:`funnel_law` is the law in one frame, raising
:class:`FunnelViolation` where it is undefined; ``tests/loop_oracle.py``
runs it per tick.
"""

from __future__ import annotations

import math


class FunnelViolation(RuntimeError):
    """The tracking error reached or left the performance funnel."""

    def __init__(self, error: float, width: float):
        self.error = error
        self.width = width
        super().__init__(f"tracking error {error:.6g} outside funnel width {width:.6g}")


def psi(spec, t: float) -> float:
    """Half-width of the error band at time ``t`` (rad/s)."""
    return spec.s * math.exp(-spec.q_decay * t) + spec.c


def funnel_law(y: float, y_ref: float, psi_t: float) -> float:
    """Feedback input ``-psi^2 e / (psi^2 - e^2)``, factored as -gain*e.

    The gain ``psi^2 / (psi^2 - e^2)`` is >= 1 inside the band.  The two
    comparisons reject what ``abs(e) >= psi_t`` rejects, and pass NaN as it does.
    """
    e = y - y_ref
    if e >= psi_t or -e >= psi_t:
        raise FunnelViolation(e, psi_t)
    p2 = psi_t * psi_t
    return -(p2 / (p2 - e * e)) * e


def funnel_gain(y: float, y_ref: float, psi_t: float) -> float:
    """Dimensionless gain ``psi^2 / (psi^2 - e^2)``; >= 1 inside the band."""
    e = y - y_ref
    if abs(e) >= psi_t:
        raise FunnelViolation(e, psi_t)
    p2 = psi_t * psi_t
    return p2 / (p2 - e * e)


def composed_funnel_law(y: float, y_ref: float, psi_t: float) -> float:
    """The law as the gain, with ``abs`` at the band, times the error."""
    return -funnel_gain(y, y_ref, psi_t) * (y - y_ref)
