import numpy as np
import pytest

from conftest import assert_close
from twomass.errors import ValidationError
from twomass.plant import (
    FRICTIONLESS,
    FrictionModel,
    OscillatorParams,
    accelerations,
    check_minimum_phase,
    reduced_realization,
)


def state(q1=0.0, q2=0.0, v1=0.0, v2=0.0):
    return (q1, q2, v1, v2)


def eval_dynamics(params, state, u):
    """Accelerations ``(ddphi1, ddphi2)`` of ``params`` at ``state`` as an array."""
    p = params
    return np.array(accelerations(p.I1, p.I2, p.k, p.d, p.friction.magnitude, *state, u))


class TestEvalDynamics:
    def test_equilibrium(self, rig):
        assert np.all(eval_dynamics(rig, state(), 0.0) == 0.0)

    def test_pure_torque_accelerates_first_flywheel(self, rig):
        # from rest, u = I1 gives unit acceleration on flywheel 1 only
        acc = eval_dynamics(rig, state(), 0.136)
        assert acc[0] == 1.0
        assert acc[1] == 0.0

    def test_unit_twist(self, rig):
        # phi1 = 1, rest: spring pulls flywheel 1 back and flywheel 2 forward
        acc = eval_dynamics(rig, state(q1=1.0), 0.0)
        assert_close(acc[0], -33.6 / 0.136)  # -247.0588...
        assert_close(acc[1], 33.6 / 0.12)  # 280.0

    def test_friction_opposes_motion(self, rig_with_friction):
        p = rig_with_friction
        forward = eval_dynamics(p, state(v1=1.0, v2=1.0), 0.0)
        backward = eval_dynamics(p, state(v1=-1.0, v2=-1.0), 0.0)
        assert forward[0] < 0.0 < backward[0]
        # friction vanishes at rest by convention
        assert np.all(eval_dynamics(p, state(), 0.0) == 0.0)

    def test_affine_in_state_and_input(self, rig):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s1 = rng.normal(size=4) * 5.0
            s2 = rng.normal(size=4) * 5.0
            u1, u2 = rng.normal(size=2)
            lhs = eval_dynamics(rig, state(*(s1 + s2)), u1 + u2)
            rhs = (
                eval_dynamics(rig, state(*s1), u1)
                + eval_dynamics(rig, state(*s2), u2)
                - eval_dynamics(rig, state(), 0.0)
            )
            assert_close(lhs, rhs, rel=1e-12, floor=1.0)

    def test_internal_torques_balance(self, rig):
        # with no friction and no input the shaft torque is internal:
        # I1*a1 + I2*a2 = 0
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = rng.normal(size=4) * 10.0
            acc = eval_dynamics(rig, state(*s), 0.0)
            assert abs(rig.I1 * acc[0] + rig.I2 * acc[1]) <= 1e-12 * max(
                1.0, abs(rig.I1 * acc[0])
            )


class TestReducedRealization:
    def test_gain_block(self, rig):
        real = reduced_realization(rig)
        assert_close(real.Gamma, 1.0 / 0.136)  # 7.35294...
        assert abs(real.Gamma * rig.I1 - 1.0) <= 4 * np.finfo(float).eps

    def test_internal_block_values(self, rig):
        real = reduced_realization(rig)
        assert_close(real.Q, np.array([[0.0, 1.0], [-280.0, -0.016 / 0.12]]))
        assert_close(real.R, -0.016 / 0.136)
        assert_close(real.S, np.array([33.6 / 0.136, 0.016 / 0.136]))
        assert_close(real.P, np.array([-1.0, 0.016 / 0.12]))

    def test_decoupled_rigid_bodies(self):
        p = OscillatorParams(I1=1.0, I2=1.0, k=0.0, d=0.0)
        real = reduced_realization(p)
        assert real.R == 0.0
        assert np.all(real.S == 0.0)
        assert np.all(real.A[1:, :1] == 0.0)  # no twist feedback into speeds

    def test_matches_eval_dynamics(self, rig):
        # d/dt (twist, v1, v2) from A x + B u must equal the direct dynamics
        rng = np.random.default_rng(3)
        real = reduced_realization(rig)
        for _ in range(50):
            q1, q2, v1, v2 = rng.normal(size=4) * 3.0
            u = rng.normal() * 2.0
            x = np.array([q1 - q2, v1, v2])
            xdot = real.A @ x + real.B * u
            acc = eval_dynamics(rig, state(q1, q2, v1, v2), u)
            assert_close(xdot, np.array([v1 - v2, acc[0], acc[1]]), rel=1e-12)

    def test_io_split_consistent_with_full_matrix(self, rig):
        # [R S; P Q] in (y, eta) coordinates is a similarity transform of A
        real = reduced_realization(rig)
        rng = np.random.default_rng(5)
        for _ in range(20):
            twist, v1, v2 = rng.normal(size=3)
            y, eta = v1, np.array([-twist, v2])
            ydot = real.R * y + real.S @ eta + real.Gamma * 0.0
            etadot = real.Q @ eta + real.P * y
            xdot = real.A @ np.array([twist, v1, v2])
            assert_close(ydot, xdot[1], rel=1e-12)
            assert_close(etadot, np.array([-xdot[0], xdot[2]]), rel=1e-12)


class TestMinimumPhase:
    def test_rig_is_minimum_phase(self, rig):
        # frozen oracle: quadratic formula on lambda^2 + (d/I2) lambda + k/I2
        report = check_minimum_phase(rig)
        lam1, lam2 = report.eigenvalues
        expected = complex(-0.06666666666666667, 16.733067726975694)
        assert abs(lam1 - expected) < 1e-12
        assert abs(lam2 - expected.conjugate()) < 1e-12
        assert report.is_minimum_phase

    def test_undamped_is_marginal_not_minimum_phase(self):
        report = check_minimum_phase(OscillatorParams(I1=1.0, I2=1.0, k=1.0, d=0.0))
        lams = sorted(report.eigenvalues, key=lambda z: z.imag)
        assert abs(lams[0] - (-1j)) < 1e-12 and abs(lams[1] - 1j) < 1e-12
        assert not report.is_minimum_phase

    def test_critically_damped_double_root(self):
        report = check_minimum_phase(OscillatorParams(I1=1.0, I2=1.0, k=1.0, d=2.0))
        for lam in report.eigenvalues:
            assert abs(lam - (-1.0)) < 1e-12
        assert report.is_minimum_phase

    def test_eigenvalue_residuals(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            p = OscillatorParams(
                I1=rng.uniform(0.05, 2.0),
                I2=rng.uniform(0.05, 2.0),
                k=rng.uniform(0.0, 100.0),
                d=rng.uniform(0.0, 5.0),
            )
            for lam in check_minimum_phase(p).eigenvalues:
                residual = lam * lam + (p.d / p.I2) * lam + p.k / p.I2
                assert abs(residual) <= 1e-9


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(I1=0.0, I2=0.12, k=33.6, d=0.016),
            dict(I1=0.136, I2=-1.0, k=33.6, d=0.016),
            dict(I1=0.136, I2=0.12, k=-0.1, d=0.016),
            dict(I1=0.136, I2=0.12, k=33.6, d=-0.5),
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            OscillatorParams(**kwargs)

    def test_negative_friction_rejected(self):
        with pytest.raises(ValidationError):
            FrictionModel(-0.1)

    def test_frictionless_constant(self):
        assert FRICTIONLESS.is_none
        # a twist-free steady spin keeps spinning: no friction torque acts
        p = OscillatorParams(I1=1.0, I2=1.0, k=1.0, d=1.0, friction=FRICTIONLESS)
        assert np.all(eval_dynamics(p, state(v1=5.0, v2=5.0), 0.0) == 0.0)
