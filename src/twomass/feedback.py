"""Funnel feedback: a model-free high-gain law with a prescribed error bound.

The controller confines the tracking error ``e = y - y_ref`` to the time
varying band ``|e(t)| < psi(t)`` with the law ``u = -psi^2 e / (psi^2 - e^2)``
(Berger, Ilchmann and Ryan, "Funnel control of nonlinear systems", MCSS
2021).  It uses no plant parameters; the gain grows without bound as the
error approaches the band, which is what pushes the error back.  The law is
defined where its denominator ``psi^2 - e^2`` is positive, so nowhere with
``|e| >= psi``.  This module holds the band; the law is written once, in the
tick loop of :func:`twomass.closedloop.run_simulation`, which tests that
denominator before it divides by it and stops the run where it is not
positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["FunnelSpec"]


@dataclass(frozen=True)
class FunnelSpec:
    """Exponentially shrinking error band ``psi(t) = s*exp(-q_decay*t) + c``.

    ``c > 0`` and ``s >= 0`` keep the band's infimum positive, as the feedback
    law requires, and ``q_decay >= 0`` keeps it bounded, as the funnel class
    requires.  (``q_decay`` is named apart from the generalized coordinates ``q``.)
    The law squares the width, so ``(s + c)**2``, the square of the widest
    band, must be finite and ``c*c``, that of the narrowest, must be positive.
    That check keeps the narrowest band meaningful, since with ``c*c == 0`` it
    would admit no error, not even 0.  It does not keep the loop from a
    crash: the loop stops wherever ``psi^2 - e^2 <= 0``.
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

