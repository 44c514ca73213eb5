"""Test oracles for the plant: the rig's equations of motion on scalars, as
the matrices of one slip mode and as the rigid-body-free state space that
``plant.reduced_realization`` splits into output and internal dynamics, and
the fixed-step 4th-order scheme that ``plant.integrate_plant_tick``
replaced.

RK4 with ``sign(0) = 0`` never sticks: at ``v1 = 0`` it chatters with an
amplitude of about ``cf h / I1``, so it converges to the stick-slip solution
only to first order in the substep ``h``.  Tests compare the exact step with
RK4 at a fine and a coarse substep, never bit for bit.
"""

from __future__ import annotations

import numpy as np


def accelerations(i1, i2, stiffness, damping, coulomb, q1, q2, v1, v2, u):
    """Angular accelerations of both flywheels; friction is zero at ``v1 = 0``."""
    shaft = stiffness * (q1 - q2) + damping * (v1 - v2)
    if v1 > 0.0:
        fric = -coulomb
    elif v1 < 0.0:
        fric = coulomb
    else:
        fric = 0.0
    return (u + fric - shaft) / i1, shaft / i2


def system_matrices(params):
    """``A`` (4x4) and ``B`` (4,) of ``xdot = A x + B (u + f)``, ``x = (q1, q2, v1, v2)``.

    The rig's equations of motion, with the Coulomb torque ``f`` taken as an
    input: it is constant while ``sign(v1)`` holds, and then the rig is linear.
    ``expm([[A, B], [0, 0]] dt)`` holds ``[Phi | Gam]`` in its top rows (Van
    Loan, "Computing integrals involving the matrix exponential", IEEE TAC
    1978).
    """
    i1, i2, k, d = params.I1, params.I2, params.k, params.d
    a = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-k / i1, k / i1, -d / i1, d / i1],
            [k / i2, -k / i2, d / i2, -d / i2],
        ]
    )
    return a, np.array([0.0, 0.0, 1.0 / i1, 0.0])


def reduced_matrices(params):
    """``A`` (3x3), ``B`` and ``C`` of ``xdot = A x + B u``, ``y = C x``, ``x = (q1 - q2, v1, v2)``.

    The frictionless rig without its rigid-body mode: the twist and the two
    speeds.  ``C B = 1/I1`` is the high-frequency gain ``Gamma``.
    """
    i1, i2, k, d = params.I1, params.I2, params.k, params.d
    a = np.array(
        [
            [0.0, 1.0, -1.0],
            [-k / i1, -d / i1, d / i1],
            [k / i2, d / i2, -d / i2],
        ]
    )
    return a, np.array([0.0, 1.0 / i1, 0.0]), np.array([0.0, 1.0, 0.0])


def rk4_plant_tick(params, state, u, h, substeps):
    """Advance the rig by ``substeps`` RK4 steps of size ``h`` under the held torque ``u``."""
    q1, q2, v1, v2 = state
    i1, i2, k, d = params.I1, params.I2, params.k, params.d
    cf = params.friction.magnitude
    h2 = 0.5 * h
    h6 = h / 6.0
    for _ in range(substeps):
        a1, b1 = accelerations(i1, i2, k, d, cf, q1, q2, v1, v2, u)
        q1b = q1 + h2 * v1
        q2b = q2 + h2 * v2
        v1b = v1 + h2 * a1
        v2b = v2 + h2 * b1
        a2, b2 = accelerations(i1, i2, k, d, cf, q1b, q2b, v1b, v2b, u)
        q1c = q1 + h2 * v1b
        q2c = q2 + h2 * v2b
        v1c = v1 + h2 * a2
        v2c = v2 + h2 * b2
        a3, b3 = accelerations(i1, i2, k, d, cf, q1c, q2c, v1c, v2c, u)
        q1d = q1 + h * v1c
        q2d = q2 + h * v2c
        v1d = v1 + h * a3
        v2d = v2 + h * b3
        a4, b4 = accelerations(i1, i2, k, d, cf, q1d, q2d, v1d, v2d, u)
        q1 += h6 * (v1 + 2.0 * (v1b + v1c) + v1d)
        q2 += h6 * (v2 + 2.0 * (v2b + v2c) + v2d)
        v1 += h6 * (a1 + 2.0 * (a2 + a3) + a4)
        v2 += h6 * (b1 + 2.0 * (b2 + b3) + b4)
    return q1, q2, v1, v2
