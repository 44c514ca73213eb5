"""Test oracle for the funnel: the band width and the gain as scalar functions.

The package evaluates the width once per sweep as a column
(``closedloop._psi_column``) and the law in one frame
(``feedback.funnel_law``); these are the plain forms that both must equal.
"""

from __future__ import annotations

import math

from twomass.errors import FunnelViolation


def psi(spec, t: float) -> float:
    """Half-width of the error band at time ``t`` (rad/s)."""
    return spec.s * math.exp(-spec.q_decay * t) + spec.c


def funnel_gain(y: float, y_ref: float, psi_t: float) -> float:
    """Dimensionless gain ``psi^2 / (psi^2 - e^2)``; >= 1 inside the band."""
    e = y - y_ref
    if abs(e) >= psi_t:
        raise FunnelViolation(math.nan, e, psi_t)
    p2 = psi_t * psi_t
    return p2 / (p2 - e * e)


def composed_funnel_law(y: float, y_ref: float, psi_t: float) -> float:
    """The law as the gain, with ``abs`` at the band, times the error."""
    return -funnel_gain(y, y_ref, psi_t) * (y - y_ref)
