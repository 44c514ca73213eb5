"""Two-flywheel torsional oscillator model and its input-output analysis.

The rig consists of two rigid flywheels (inertias ``I1``, ``I2``) joined by an
elastic shaft modelled as a linear torsional spring-damper (``k``, ``d``).  A
motor torque ``u`` acts on flywheel 1, which also carries a Coulomb friction
torque.  The controlled output is the angular velocity of flywheel 1.

Equations of motion (angles ``phi1``, ``phi2``)::

    I1*ddphi1 = -d*(dphi1 - dphi2) - k*(phi1 - phi2) + F_fric(dphi1) + u
    I2*ddphi2 =  d*(dphi1 - dphi2) + k*(phi1 - phi2)

This module holds the parameters; the motion in time is the mode series in
:mod:`closedloop`.  It also certifies that high-gain output feedback is
applicable: after removing the rigid-body mode, the frictionless dynamics
split into the output channel and a two-dimensional internal subsystem
(shaft deflection and second-flywheel speed), ``ydot = R y + S eta + Gamma u``
and ``etadot = Q eta + P y``.  That split, on plain floats, is the module's
one description of the linear rig: the verdict reads its eigenvalues from
``Q``, which must have negative real part.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import ValidationError

__all__ = [
    "FrictionModel",
    "FRICTIONLESS",
    "OscillatorParams",
    "ReducedRealization",
    "MinimumPhaseReport",
    "reduced_realization",
    "check_minimum_phase",
]


@dataclass(frozen=True)
class FrictionModel:
    """Coulomb friction torque acting on flywheel 1.

    A magnitude of zero disables friction.  Static and kinetic levels are
    equal: while flywheel 1 slips the torque is ``-magnitude sign(v1)``; at
    rest it is whatever holds the flywheel, as long as that needs at most
    ``magnitude`` (the Filippov solution of the Coulomb law).  So the
    simulator does dwell exactly at ``v1 = 0`` while the flywheel sticks.
    """

    magnitude: float = 0.0

    def __post_init__(self):
        if not (self.magnitude >= 0.0 and math.isfinite(self.magnitude)):
            raise ValidationError(f"Coulomb friction magnitude must be >= 0, got {self.magnitude}")

    @property
    def is_none(self) -> bool:
        return self.magnitude == 0.0


FRICTIONLESS = FrictionModel(0.0)


@dataclass(frozen=True)
class OscillatorParams:
    """Physical constants of the rig.

    I1, I2  rotational inertias (kg*m^2), strictly positive
    k       torsional stiffness of the shaft (N*m per rad of twist)
    d       torsional damping of the shaft (N*m*s per rad)
    friction  Coulomb model for flywheel 1

    The data sheet for the rig labels ``k`` in N*m and ``d`` in N*m/s;
    dimensional analysis of the equations of motion requires the per-radian
    units above.  The numeric values are used as-is.
    """

    I1: float
    I2: float
    k: float
    d: float
    friction: FrictionModel = field(default_factory=FrictionModel)

    def __post_init__(self):
        if not (self.I1 > 0.0 and math.isfinite(self.I1)):
            raise ValidationError(f"I1 must be > 0, got {self.I1}")
        if not (self.I2 > 0.0 and math.isfinite(self.I2)):
            raise ValidationError(f"I2 must be > 0, got {self.I2}")
        if not (self.k >= 0.0 and math.isfinite(self.k)):
            raise ValidationError(f"k must be >= 0, got {self.k}")
        if not (self.d >= 0.0 and math.isfinite(self.d)):
            raise ValidationError(f"d must be >= 0, got {self.d}")


@dataclass(frozen=True)
class ReducedRealization:
    """The rig's input-output split after removing the rigid-body mode.

    With the output ``y = dphi1`` and the internal state ``eta = (-dphi,
    dphi2)``, where ``dphi = phi1 - phi2`` is the shaft twist::

        ydot = R y + S eta + Gamma u,   etadot = Q eta + P y

    in plain floats: ``S`` and ``P`` are pairs, ``Q`` is a 2x2 tuple of rows.
    ``Gamma = 1/I1 != 0``, so the input acts directly on the output rate.
    """

    R: float
    S: tuple[float, float]
    Q: tuple[tuple[float, float], tuple[float, float]]
    P: tuple[float, float]
    Gamma: float


def reduced_realization(params: OscillatorParams) -> ReducedRealization:
    """The input-output blocks of the rigid-body-free rig."""
    i1, i2, k, d = params.I1, params.I2, params.k, params.d
    return ReducedRealization(
        R=-d / i1,
        S=(k / i1, d / i1),
        Q=((0.0, 1.0), (-k / i2, -d / i2)),
        P=(-1.0, d / i2),
        Gamma=1.0 / i1,
    )


@dataclass(frozen=True)
class MinimumPhaseReport:
    """Eigenvalues of the internal dynamics and the resulting verdict."""

    eigenvalues: tuple[complex, complex]
    is_minimum_phase: bool


def check_minimum_phase(params: OscillatorParams) -> MinimumPhaseReport:
    """Decide whether the internal dynamics ``etadot = Q eta`` is exponentially stable.

    ``Q`` of :func:`reduced_realization` is 2x2, so its eigenvalues are the
    roots of ``lambda^2 + b lambda + c`` with ``b = -trace(Q) = d/I2`` and
    ``c = det(Q) = k/I2``, from the quadratic formula (no general eigensolver
    needed).  A marginal case (zero real part, e.g. d = 0) is reported as not
    minimum phase: the feedback concept needs bounded-input bounded-output
    internal dynamics.
    """
    (q00, q01), (q10, q11) = reduced_realization(params).Q
    b = -q00 - q11  # not -(q00 + q11): that is -0.0 at d = 0
    c = q00 * q11 - q01 * q10
    disc = cmath.sqrt(b * b - 4.0 * c)
    lam1, lam2 = (-b + disc) / 2.0, (-b - disc) / 2.0
    stable = lam1.real < 0.0 and lam2.real < 0.0
    return MinimumPhaseReport(eigenvalues=(lam1, lam2), is_minimum_phase=stable)
