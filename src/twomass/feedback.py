"""Funnel feedback: a model-free high-gain law with a prescribed error bound.

The controller confines the tracking error ``e = y - y_ref`` to the time
varying band ``|e(t)| < psi(t)``.  It uses no plant parameters; the gain grows
without bound as the error approaches the band, which is what pushes the
error back.  Outside the band the law is undefined; evaluation there raises
:class:`~twomass.errors.FunnelViolation` and the caller decides what a
violation means (the closed-loop simulator stops the run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FunnelViolation, ValidationError

__all__ = ["FunnelSpec", "funnel_law"]


@dataclass(frozen=True)
class FunnelSpec:
    """Exponentially shrinking error band ``psi(t) = s*exp(-q_decay*t) + c``.

    ``c > 0`` and ``s >= 0`` keep the band's infimum positive, as the feedback
    law requires, and ``q_decay >= 0`` keeps it bounded, as the funnel class
    requires.  (``q_decay`` is named apart from the generalized coordinates ``q``.)
    The law squares the width, so ``(s + c)**2``, the square of the widest
    band, must be finite and ``c*c``, that of the narrowest, must be positive.
    """

    s: float
    q_decay: float
    c: float

    def __post_init__(self):
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValidationError(f"funnel offset c must be > 0, got {self.c}")
        if not (self.s >= 0.0 and math.isfinite(self.s)):
            raise ValidationError(f"funnel surplus s must be >= 0, got {self.s}")
        if not (self.q_decay >= 0.0 and math.isfinite(self.q_decay)):
            raise ValidationError(f"funnel decay rate q_decay must be >= 0, got {self.q_decay}")
        widest = self.s + self.c
        if not math.isfinite(widest * widest):
            raise ValidationError(
                f"funnel width s + c must have a finite square, got s={self.s}, c={self.c}"
            )
        if not self.c * self.c > 0.0:
            raise ValidationError(f"funnel offset c must have a positive square, got c={self.c}")


def funnel_law(y: float, y_ref: float, psi_t: float) -> float:
    """Feedback input ``-psi^2 e / (psi^2 - e^2)``, factored as -gain*e.

    The gain ``psi^2 / (psi^2 - e^2)`` is >= 1 inside the band.  The two
    comparisons reject what ``abs(e) >= psi_t`` rejects, and pass NaN as it does.
    """
    e = y - y_ref
    if e >= psi_t or -e >= psi_t:
        raise FunnelViolation(math.nan, e, psi_t)
    p2 = psi_t * psi_t
    return -(p2 / (p2 - e * e)) * e
