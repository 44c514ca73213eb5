"""Test oracle for the inverse-model step: the generic tuple Newton that
``InverseModelStepper.advance`` replaced.

``TupleStepper`` keeps ``z = (q1, q2, v1, v2, u)`` as a 5-tuple, builds the
residual in ``_residual``, takes the scaled infinity norm as a ``max`` over a
generator and the correction ``z - J^-1 r`` as a tuple over the rows of
``_jac_inv``.  It builds its model coefficients and its inverse Jacobian
itself, from :func:`analytic_jacobian`, so it shares no constant with the
stepper.  The stepper writes the same operations out on five local floats in
the same order, from the same expressions, with one shortcut: below the
iteration cap it stops the norm after a first term over the tolerance.  That
cannot change a bit, since ``max`` keeps the norm at least that term (a later
NaN term is passed over), so a correction follows either way, and every
iteration whose norm is reported, one that converges or meets the cap, forms
all five terms in order.  So states, torques, Newton counts, the last
residual and the residual of a ``NewtonDiverged`` must equal this oracle's
bit for bit.  A failed step, as a converged one, leaves its count and
residual in ``last_iterations`` and ``last_residual``.
"""

from __future__ import annotations

import numpy as np

from twomass import trajectory
from twomass.errors import NewtonDiverged
from twomass.feedforward import InverseModelState, InverseModelStepper, NewtonOptions


def analytic_jacobian(params, dt):
    """Jacobian of the discrete residual in the unknowns (q1, q2, v1, v2, u)."""
    i1, i2, k, d = params.I1, params.I2, params.k, params.d
    return np.array(
        [
            [1.0, 0.0, -dt, 0.0, 0.0],
            [0.0, 1.0, 0.0, -dt, 0.0],
            [dt * k / i1, -dt * k / i1, 1.0 + dt * d / i1, -dt * d / i1, -dt / i1],
            [-dt * k / i2, dt * k / i2, -dt * d / i2, 1.0 + dt * d / i2, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
        ]
    )


class TupleStepper(InverseModelStepper):
    """The inverse-model stepper with the generic tuple Newton step."""

    def __init__(self, params, spec, dt, opts=NewtonOptions()):
        super().__init__(params, spec, dt, opts)
        self.dt = dt
        i1, i2, k, d = params.I1, params.I2, params.k, params.d
        self._coeffs = (k / i1, d / i1, k / i2, d / i2, 1.0 / i1)
        self._jac_inv = tuple(map(tuple, np.linalg.inv(analytic_jacobian(params, dt)).tolist()))

    def _residual(self, z: tuple, prev: tuple, y_ref_next: float) -> tuple:
        q1, q2, v1, v2, u = z
        ki1, di1, ki2, di2, inv_i1 = self._coeffs
        dt = self.dt
        twist = q1 - q2
        slip = v1 - v2
        return (
            q1 - prev[0] - dt * v1,
            q2 - prev[1] - dt * v2,
            v1 - prev[2] - dt * (-di1 * slip - ki1 * twist + inv_i1 * u),
            v2 - prev[3] - dt * (di2 * slip + ki2 * twist),
            v1 - y_ref_next,
        )

    def advance(self, t_next: float) -> InverseModelState:
        (q1, q2), (v1, v2), u, _ = self.state
        prev = (q1, q2, v1, v2)
        z = (q1, q2, v1, v2, u)
        y_next = trajectory.y_ref_at(self.spec, t_next)
        opts = self.opts
        iterations = 0
        while True:
            r = self._residual(z, prev, y_next)
            # scaled infinity norm: equation i over max(1, |z_i|)
            norm = max(abs(ri) / max(1.0, abs(zi)) for ri, zi in zip(r, z))
            if not norm > opts.residual_tolerance:
                break
            if iterations >= opts.max_iterations:
                self.last_iterations = iterations
                self.last_residual = norm
                raise NewtonDiverged(t_next, norm, iterations)
            # z - J^-1 r, written out: sum() rounds differently across Python versions
            r1, r2, r3, r4, r5 = r
            z = tuple(
                zi - (a1 * r1 + a2 * r2 + a3 * r3 + a4 * r4 + a5 * r5)
                for zi, (a1, a2, a3, a4, a5) in zip(z, self._jac_inv)
            )
            iterations += 1
        self.last_iterations = iterations
        self.last_residual = norm
        # a non-finite end point raises, even one the norm passed over; the
        # sum is the stepper's, so an overflowing one raises on both sides
        c = z[0] + z[1] + z[2] + z[3] + z[4]
        if c - c != 0.0:
            raise NewtonDiverged(t_next, norm, iterations)
        self.state = InverseModelState((z[0], z[1]), (z[2], z[3]), z[4], t_next)
        return self.state
