"""Test oracles for the plant: the rig's equations of motion on scalars, as
the matrices of one slip mode and as the rigid-body-free state space that
``plant.reduced_realization`` splits into output and internal dynamics, the
fixed-step 4th-order scheme that ``plant.integrate_plant_tick`` replaced,
and the exact tick on tuples that its flat form replaced.

:func:`integrate_plant_tick` here takes the state as a tuple and the rig,
the step matrices and ``dt`` apart, and reads the rig's constants from
``params`` on every call.  The package's flat step must equal it bit for
bit, on the next state and the tick's kind.

RK4 with ``sign(0) = 0`` never sticks: at ``v1 = 0`` it chatters with an
amplitude of about ``cf h / I1``, so it converges to the stick-slip solution
only to first order in the substep ``h``.  Tests compare the exact step with
RK4 at a fine and a coarse substep, never bit for bit.
"""

from __future__ import annotations

import numpy as np

from twomass.plant import EVENT, SLIP, STUCK, _event_tick, tick_constants


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


def step_matrices(params, dt):
    """``zoh`` (``[Phi | Gam]``, 20 floats) and ``stick`` (``S``, 4 floats), row-major,
    as :func:`plant.tick_constants` holds them after its six scalars."""
    constants = tick_constants(params, dt)
    return constants[6:26], constants[26:30]


def integrate_plant_tick(params, zoh, stick, state, u, dt):
    """The exact tick on tuples: the next state and the tick's kind."""
    q1, q2, v1, v2 = state
    cf = params.friction.magnitude
    if v1 != 0.0 or cf == 0.0:
        (p00, p01, p02, p03, g0, p10, p11, p12, p13, g1,
         p20, p21, p22, p23, g2, p30, p31, p32, p33, g3) = zoh
        w = u - cf if v1 > 0.0 else u + cf
        v1n = p20 * q1 + p21 * q2 + p22 * v1 + p23 * v2 + g2 * w
        reach = v1 + (w - (params.k * (q1 - q2) + params.d * (v1 - v2))) * dt / params.I1
        if cf == 0.0 or ((v1n > 0.0 < reach) if v1 > 0.0 else (v1n < 0.0 > reach)):
            return (
                p00 * q1 + p01 * q2 + p02 * v1 + p03 * v2 + g0 * w,
                p10 * q1 + p11 * q2 + p12 * v1 + p13 * v2 + g1 * w,
                v1n,
                p30 * q1 + p31 * q2 + p32 * v1 + p33 * v2 + g3 * w,
            ), SLIP
    elif abs(u - (params.k * (q1 - q2) + params.d * (v1 - v2))) <= cf:
        s00, s01, s10, s11 = stick
        z = q2 - q1
        q2n = q1 + (s00 * z + s01 * v2)
        v2n = s10 * z + s11 * v2
        if abs(u - (params.k * (q1 - q2n) + params.d * (v1 - v2n))) <= cf:
            return (q1, q2n, v1, v2n), STUCK
    state, events = _event_tick(params, state, u, dt)
    return state, (EVENT if events or v1 == 0.0 else SLIP)
