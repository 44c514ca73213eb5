"""Two-flywheel torsional oscillator model and its input-output analysis.

The rig consists of two rigid flywheels (inertias ``I1``, ``I2``) joined by an
elastic shaft modelled as a linear torsional spring-damper (``k``, ``d``).  A
motor torque ``u`` acts on flywheel 1, which also carries a Coulomb friction
torque.  The controlled output is the angular velocity of flywheel 1.

Equations of motion (angles ``phi1``, ``phi2``)::

    I1*ddphi1 = -d*(dphi1 - dphi2) - k*(phi1 - phi2) + F_fric(dphi1) + u
    I2*ddphi2 =  d*(dphi1 - dphi2) + k*(phi1 - phi2)

Beyond simulation, this module certifies that high-gain output feedback is
applicable: after removing the rigid-body mode, the dynamics split into the
output channel and a two-dimensional internal subsystem (shaft deflection and
second-flywheel speed) whose eigenvalues must have negative real part.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "FrictionModel",
    "FRICTIONLESS",
    "OscillatorParams",
    "ReducedRealization",
    "MinimumPhaseReport",
    "accelerations",
    "reduced_realization",
    "check_minimum_phase",
]


@dataclass(frozen=True)
class FrictionModel:
    """Coulomb friction torque acting on flywheel 1.

    A magnitude of zero disables friction.  The torque opposes motion and is
    defined as zero at rest (no set-valued force; the simulator never dwells
    exactly at zero velocity except at the initial instant).
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


def accelerations(
    i1: float,
    i2: float,
    stiffness: float,
    damping: float,
    coulomb: float,
    q1: float,
    q2: float,
    v1: float,
    v2: float,
    u: float,
) -> tuple[float, float]:
    """Angular accelerations of both flywheels, scalar form.

    This is the single source of truth for the rig dynamics; the closed-loop
    integrator calls it per stage, so it deliberately works on plain floats.
    """
    shaft = stiffness * (q1 - q2) + damping * (v1 - v2)
    if v1 > 0.0:
        fric = -coulomb
    elif v1 < 0.0:
        fric = coulomb
    else:
        fric = 0.0
    return (u + fric - shaft) / i1, shaft / i2


@dataclass(frozen=True)
class ReducedRealization:
    """State-space form after removing the rigid-body mode.

    With ``x = (dphi, dphi1, dphi2)`` where ``dphi = phi1 - phi2``::

        xdot = A x + B u,   y = C x

    and the input-output split ``ydot = R y + S eta + Gamma u``,
    ``etadot = Q eta + P y`` with internal state ``eta = (-dphi, dphi2)``.
    ``Gamma = C B = 1/I1 != 0``, so the input acts directly on the output rate.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    R: float
    S: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    Gamma: float

    def __post_init__(self):
        for name in ("A", "B", "C", "S", "Q", "P"):
            array = np.asarray(getattr(self, name), dtype=float)
            array.setflags(write=False)
            object.__setattr__(self, name, array)


def reduced_realization(params: OscillatorParams) -> ReducedRealization:
    """Assemble the rigid-body-free realization and its input-output blocks."""
    i1, i2, k, d = params.I1, params.I2, params.k, params.d
    mass = np.diag([1.0, i1, i2])
    a_tilde = np.array([[0.0, 1.0, -1.0], [-k, -d, d], [k, d, -d]])
    b_tilde = np.array([0.0, 1.0, 0.0])
    m_inv = np.diag(1.0 / np.diag(mass))
    return ReducedRealization(
        A=m_inv @ a_tilde,
        B=m_inv @ b_tilde,
        C=np.array([0.0, 1.0, 0.0]),
        R=-d / i1,
        S=np.array([k / i1, d / i1]),
        Q=np.array([[0.0, 1.0], [-k / i2, -d / i2]]),
        P=np.array([-1.0, d / i2]),
        Gamma=1.0 / i1,
    )


@dataclass(frozen=True)
class MinimumPhaseReport:
    """Eigenvalues of the internal dynamics and the resulting verdict."""

    eigenvalues: tuple[complex, complex]
    is_minimum_phase: bool


def check_minimum_phase(params: OscillatorParams) -> MinimumPhaseReport:
    """Decide whether the internal dynamics is exponentially stable.

    The internal subsystem is a damped oscillator with characteristic
    polynomial ``lambda^2 + (d/I2) lambda + k/I2``; the roots come from the
    quadratic formula (the block is always 2x2 here, no general eigensolver
    needed).  A marginal case (zero real part, e.g. d = 0) is reported as not
    minimum phase: the feedback concept needs bounded-input bounded-output
    internal dynamics.
    """
    b = params.d / params.I2
    c = params.k / params.I2
    disc = cmath.sqrt(b * b - 4.0 * c)
    lam1 = (-b + disc) / 2.0
    lam2 = (-b - disc) / 2.0
    stable = lam1.real < 0.0 and lam2.real < 0.0
    return MinimumPhaseReport(eigenvalues=(lam1, lam2), is_minimum_phase=stable)
