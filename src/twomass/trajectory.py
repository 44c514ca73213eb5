"""Rest-to-rest velocity reference built from a degree-15 smooth step.

The reference holds ``y0`` before ``t0``, ramps to ``yf`` over ``[t0, tf]``
along the polynomial timing law ``sigma``, and holds ``yf`` afterwards.
``sigma`` rises from 0 to 1 with seven vanishing derivatives at both ends,
so the ramp joins the constant segments C7-smoothly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "SMOOTH_STEP_COEFFICIENTS",
    "TrajectorySpec",
    "sigma",
    "sigma_samples",
    "y_ref_at",
    "y_ref_samples",
    "y_ref_derivative",
]

# Monomial coefficients of the timing law in descending degree 15..8.  They sum
# to exactly 1, and the absent degrees 0..7 give the eight-fold flat start.
# The law satisfies p(u) + p(1-u) = 1 exactly, so the upper half of the window
# is evaluated by reflection about the midpoint: that kills the cancellation
# the large alternating coefficients would otherwise cause near 1 (error floor
# ~1e-11).
SMOOTH_STEP_COEFFICIENTS = (
    -3432.0,
    25740.0,
    -83160.0,
    150150.0,
    -163800.0,
    108108.0,
    -40040.0,
    6435.0,
)


@dataclass(frozen=True)
class TrajectorySpec:
    """Parameters of the piecewise velocity reference.

    y0, yf  initial and final output (rad/s)
    t0, tf  start and end of the transition window (s)
    """

    y0: float
    yf: float
    t0: float
    tf: float

    def __post_init__(self):
        for name in ("y0", "yf", "t0", "tf"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"trajectory field {name} must be finite")
        if not self.tf > self.t0:
            raise ValidationError(f"tf must exceed t0, got t0={self.t0}, tf={self.tf}")
        if not math.isfinite(self.yf - self.y0):
            raise ValidationError(
                f"trajectory span yf - y0 must be finite, got y0={self.y0}, yf={self.yf}"
            )


def _polynomial(u):
    # Nested evaluation: the coefficients reach 1.6e5 with alternating signs,
    # so naive monomial summation would lose digits to cancellation.  ``u`` is
    # a float or a float array; each element takes the same operations.
    acc = 0.0
    for c in SMOOTH_STEP_COEFFICIENTS:
        acc = acc * u + c
    u2 = u * u
    u4 = u2 * u2
    return acc * u4 * u4


def _polynomial_derivative(u: float) -> float:
    acc = 0.0
    degree = 15
    for c in SMOOTH_STEP_COEFFICIENTS:
        acc = acc * u + degree * c
        degree -= 1
    return acc * u**7


def sigma(spec: TrajectorySpec, t: float) -> float:
    """Timing law on the transition window; dimensionless in [0, 1].

    The argument is normalized as ``(t - t0) / (tf - t0)`` so a nonzero start
    time is supported.  Callers outside the window should use :func:`y_ref_at`,
    which clamps; here an out-of-window ``t`` is a contract violation.
    """
    if not (spec.t0 <= t <= spec.tf):
        raise ValueError(f"sigma evaluated outside [{spec.t0}, {spec.tf}]: t={t}")
    u = (t - spec.t0) / (spec.tf - spec.t0)
    if u > 0.5:
        return 1.0 - _polynomial(1.0 - u)
    return _polynomial(u)


def sigma_samples(spec: TrajectorySpec, times: np.ndarray) -> np.ndarray:
    """Vectorized :func:`sigma` over an array of in-window times.

    Same reflection rule and polynomial as the scalar path, so the two agree
    bitwise.  The closed loop builds its whole reference column from it
    (through :func:`y_ref_samples`) once per run.
    """
    times = np.asarray(times, dtype=float)
    if times.size and (times.min() < spec.t0 or times.max() > spec.tf):
        raise ValueError(f"sigma evaluated outside [{spec.t0}, {spec.tf}]")
    u = (times - spec.t0) / (spec.tf - spec.t0)
    mirrored = u > 0.5
    values = _polynomial(np.where(mirrored, 1.0 - u, u))
    return np.where(mirrored, 1.0 - values, values)


def y_ref_at(spec: TrajectorySpec, t: float) -> float:
    """Velocity reference at time ``t`` (rad/s); continuous at the seams."""
    if t < spec.t0:
        return spec.y0
    if t > spec.tf:
        return spec.yf
    return spec.y0 + sigma(spec, t) * (spec.yf - spec.y0)


def y_ref_samples(spec: TrajectorySpec, times: np.ndarray) -> np.ndarray:
    """Vectorized :func:`y_ref_at`; agrees with it bitwise at every time."""
    times = np.asarray(times, dtype=float)
    values = np.where(times < spec.t0, spec.y0, spec.yf)
    window = (times >= spec.t0) & (times <= spec.tf)
    values[window] = spec.y0 + sigma_samples(spec, times[window]) * (spec.yf - spec.y0)
    return values


def y_ref_derivative(spec: TrajectorySpec, t: float) -> float:
    """Exact rate of the reference (rad/s^2); zero outside the window."""
    if t < spec.t0 or t > spec.tf:
        return 0.0
    width = spec.tf - spec.t0
    u = (t - spec.t0) / width
    if u > 0.5:
        u = 1.0 - u  # the rate of a symmetric step is even about the midpoint
    return _polynomial_derivative(u) / width * (spec.yf - spec.y0)
