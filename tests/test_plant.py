import ast
import cmath
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twomass
from conftest import assert_close
from plant_oracle import accelerations, reduced_matrices, step_matrices, system_matrices
from twomass.errors import ValidationError
from twomass.plant import (
    FRICTIONLESS,
    FrictionModel,
    OscillatorParams,
    check_minimum_phase,
    reduced_realization,
)
from twomass.presets import NOMINAL_PLANT

# I1, I2 in [0.05, 5], k in [0, 500] and d in [0, 2], exact zeros included
drawn_rigs = st.builds(
    OscillatorParams,
    I1=st.floats(0.05, 5.0),
    I2=st.floats(0.05, 5.0),
    k=st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
    d=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)
drawn_dts = st.floats(1e-5, 1.0)


def state(q1=0.0, q2=0.0, v1=0.0, v2=0.0):
    return (q1, q2, v1, v2)


def step(params, dt):
    """``[Phi | Gam]`` (4x5) and ``S`` (2x2) of :func:`plant.tick_constants` as arrays."""
    zoh, stick = step_matrices(params, dt)
    return np.array(zoh).reshape(4, 5), np.array(stick).reshape(2, 2)


def scipy_step(linalg, params, dt):
    """The same two matrices from scipy's Pade ``expm``: of the Van Loan block and of ``Q``.

    While flywheel 1 sticks, ``(q2 - q1, v2)`` is the internal state ``eta`` of
    :func:`reduced_realization` and moves by ``etadot = Q eta``.
    """
    a, b = system_matrices(params)
    block = np.zeros((5, 5))
    block[:4, :4] = a
    block[:4, 4] = b
    stick = np.array(reduced_realization(params).Q)
    return linalg.expm(block * dt)[:4], linalg.expm(stick * dt)


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
        assert real.S == (0.0, 0.0)
        a, _, _ = reduced_matrices(p)
        assert np.all(a[1:, :1] == 0.0)  # no twist feedback into speeds

    def test_matches_eval_dynamics(self, rig):
        # d/dt (twist, v1, v2) from the oracle's A x + B u must equal the direct dynamics
        rng = np.random.default_rng(3)
        a, b, _ = reduced_matrices(rig)
        for _ in range(50):
            q1, q2, v1, v2 = rng.normal(size=4) * 3.0
            u = rng.normal() * 2.0
            x = np.array([q1 - q2, v1, v2])
            xdot = a @ x + b * u
            acc = eval_dynamics(rig, state(q1, q2, v1, v2), u)
            assert_close(xdot, np.array([v1 - v2, acc[0], acc[1]]), rel=1e-12)

    def test_io_split_consistent_with_full_matrix(self, rig):
        # [R S; P Q] in (y, eta) coordinates is a similarity transform of the
        # oracle's A, and Gamma u is its B u on the output channel
        real = reduced_realization(rig)
        a, b, c = reduced_matrices(rig)
        assert_close(real.Gamma, c @ b, rel=1e-15)
        rng = np.random.default_rng(5)
        for _ in range(20):
            twist, v1, v2 = rng.normal(size=3)
            u = rng.normal() * 2.0
            y, eta = v1, np.array([-twist, v2])
            ydot = real.R * y + np.array(real.S) @ eta + real.Gamma * u
            etadot = np.array(real.Q) @ eta + np.array(real.P) * y
            xdot = a @ np.array([twist, v1, v2]) + b * u
            assert_close(ydot, xdot[1], rel=1e-12)
            assert_close(etadot, np.array([-xdot[0], xdot[2]]), rel=1e-12)

    @given(params=drawn_rigs)
    def test_fields_are_python_floats(self, params):
        # check-plant formats these fields: no numpy scalar may stand in for a
        # float (np.float64 passes isinstance(x, float), so compare types)
        def leaves(value):
            if type(value) is tuple:
                assert len(value) == 2
                return [x for item in value for x in leaves(item)]
            return [value]

        for p in (NOMINAL_PLANT, params):
            real = reduced_realization(p)
            values = [x for f in dataclasses.fields(real) for x in leaves(getattr(real, f.name))]
            assert len(values) == 10  # R, Gamma, S and P, the four of Q
            assert all(type(x) is float for x in values)


class TestZohStepMatrix:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_system_matrix_reproduces_accelerations(self, rig_with_friction, sign):
        # with the friction torque f = -cf sign(v1) as an input, A x + B (u + f)
        # is the state derivative that accelerations gives
        p = rig_with_friction
        a, b = system_matrices(p)
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.normal(size=4) * 3.0
            x[2] = sign * (abs(x[2]) + 0.1)
            u = rng.normal() * 2.0
            xdot = a @ x + b * (u - p.friction.magnitude * sign)
            expected = np.r_[x[2:], eval_dynamics(p, state(*x), u)]
            assert_close(xdot, expected, rel=1e-13)

    @pytest.mark.parametrize("dt", [1e-4, 5e-4, 1e-3, 1e-2, 0.5])
    def test_matches_scipy_expm(self, rig, dt):
        # independent route: scipy's Pade expm of the Van Loan block matrix;
        # 1e-13 relative to the largest entry of [Phi | Gam] (about 1)
        linalg = pytest.importorskip("scipy.linalg")
        expected, _ = scipy_step(linalg, rig, dt)
        assert_close(step(rig, dt)[0], expected, rel=1e-13, floor=np.abs(expected).max())

    def test_rigid_rotation_is_exact(self):
        # with no shaft the flywheels coast: Phi holds q += v dt, Gam the
        # torque's ramp u dt^2 / (2 I1) and u dt / I1
        i1, dt = 0.5, 0.01
        p = OscillatorParams(I1=i1, I2=2.0, k=0.0, d=0.0)
        expected = np.array([
            [1.0, 0.0, dt, 0.0, dt * dt / (2.0 * i1)],
            [0.0, 1.0, 0.0, dt, 0.0],
            [0.0, 0.0, 1.0, 0.0, dt / i1],
            [0.0, 0.0, 0.0, 1.0, 0.0],
        ])
        assert_close(step(p, dt)[0], expected, rel=1e-15)

    @settings(max_examples=300)
    @given(params=drawn_rigs, dt=drawn_dts)
    def test_both_matrices_match_scipy_expm(self, params, dt):
        # 1e-12 relative to each matrix's largest entry; at dt near 1 s most
        # of that gap is scipy's own error (an mpmath expm at 40 digits puts
        # the series within 1e-14 where scipy is up to 5e-13 off)
        linalg = pytest.importorskip("scipy.linalg")
        zoh, stick = step(params, dt)
        expected_zoh, expected_stick = scipy_step(linalg, params, dt)
        assert_close(zoh, expected_zoh, rel=1e-12, floor=np.abs(expected_zoh).max())
        assert_close(stick, expected_stick, rel=1e-12, floor=np.abs(expected_stick).max())


class TestStickStepMatrix:
    @pytest.mark.parametrize("dt", [1e-4, 5e-4, 1e-3, 1e-2, 0.5])
    def test_matches_scipy_expm(self, rig, dt):
        # flywheel 2 alone on the shaft: z' = v2, I2 v2' = -k z - d v2
        linalg = pytest.importorskip("scipy.linalg")
        _, expected = scipy_step(linalg, rig, dt)
        assert_close(step(rig, dt)[1], expected, rel=1e-13, floor=np.abs(expected).max())

    def test_is_the_zoh_step_with_flywheel_one_held(self):
        # an infinitely heavy flywheel 1 at rest cannot move: the ZOH step of
        # (q1, q2, v1, v2) then moves (q2 - q1, v2) by the stick matrix
        dt = 1e-3
        p = OscillatorParams(I1=1e12, I2=0.12, k=33.6, d=0.016)
        zoh, s = step(p, dt)
        assert_close(zoh[[1, 3]][:, [1, 3]], s, rel=1e-9)

    @settings(max_examples=300)
    @given(params=drawn_rigs, dt=drawn_dts)
    def test_has_the_internal_dynamics_of_check_minimum_phase(self, params, dt):
        # with flywheel 1 held, (q2 - q1, v2) is the internal state eta of
        # reduced_realization, so S = expm(Q dt) has the eigenvalues exp(l dt)
        # for Q's eigenvalues l: both those numpy finds in Q and the roots
        # check_minimum_phase reports give S's trace and determinant
        _, s = step(params, dt)
        q = np.array(reduced_realization(params).Q)
        for l1, l2 in (np.linalg.eigvals(q), check_minimum_phase(params).eigenvalues):
            trace = cmath.exp(l1 * dt) + cmath.exp(l2 * dt)
            det = cmath.exp((l1 + l2) * dt)
            for got, want in ((np.trace(s), trace), (s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0], det)):
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


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

    @given(params=drawn_rigs)
    def test_roots_are_the_quadratic_formula_on_d_and_k_bitwise(self, params):
        # read from Q, b = d/I2 and c = k/I2 exactly, signed zeros included,
        # so the roots of lambda^2 + (d/I2) lambda + k/I2 come out bit for bit
        b, c = params.d / params.I2, params.k / params.I2
        disc = cmath.sqrt(b * b - 4.0 * c)
        expected = ((-b + disc) / 2.0, (-b - disc) / 2.0)
        got = check_minimum_phase(params).eigenvalues
        assert [repr(z) for z in got] == [repr(z) for z in expected]

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


def test_package_imports_no_scipy():
    # scipy is a test-only dependency: the CLI's import must not pull it in
    code = "import sys, twomass, twomass.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(twomass.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_plant_module_imports_no_numpy():
    # the rig's parameters, split and motion are computed on plain floats
    tree = ast.parse(Path(twomass.plant.__file__).read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    assert modules and not [m for m in modules if m.split(".")[0] == "numpy"]
