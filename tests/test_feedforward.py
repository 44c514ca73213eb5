import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twomass.feedforward as ffw
from conftest import assert_close
from newton_oracle import TupleStepper, analytic_jacobian
from test_trajectory import windows_on_tick_grids
from twomass.errors import InconsistentStart, NewtonDiverged, ValidationError
from twomass.feedforward import (
    InverseModelState,
    InverseModelStepper,
    NewtonOptions,
    TuningFactors,
    apply_tuning,
    consistent_initialization,
    read_table_csv,
    solve_feedforward,
    write_table_csv,
)
from twomass.plant import OscillatorParams
from twomass.presets import NOMINAL_PLANT
from twomass.trajectory import TrajectorySpec, y_ref_at, y_ref_derivative, y_ref_samples


def rest_spec(level=0.0):
    return TrajectorySpec(y0=level, yf=level, t0=0.0, tf=10.0)


def step_from(prev, t_next, dt, params, spec, opts=NewtonOptions()):
    stepper = InverseModelStepper(params, spec, dt, opts)
    stepper.state = prev
    return stepper.advance(t_next)


def fd_jacobian(stepper, z, prev, y_ref_next, h=1e-7):
    """Forward-difference Jacobian of a ``TupleStepper``'s discrete residual."""
    base = np.array(stepper._residual(z, prev, y_ref_next))
    cols = []
    for j in range(5):
        bumped = z.copy()
        bumped[j] += h
        cols.append((np.array(stepper._residual(bumped, prev, y_ref_next)) - base) / h)
    return np.column_stack(cols)


class NumpyStepper:
    """Oracle: the inverse-model step on numpy arrays, ``z - inv(J) @ r``.

    Same discretization, tolerance and iteration cap as the stepper, written
    with a 5x5 matrix inverse and vector norms instead of unrolled floats.
    """

    def __init__(self, params, spec, dt, opts=NewtonOptions()):
        init = consistent_initialization(params, spec)
        self.z = np.array([*init.q, *init.v, init.u])
        self.params, self.spec, self.dt, self.opts = params, spec, dt, opts
        self.jac_inv = np.linalg.inv(analytic_jacobian(params, dt))

    def residual(self, z, prev, y_ref_next):
        p, dt = self.params, self.dt
        q1, q2, v1, v2, u = z
        twist, slip = q1 - q2, v1 - v2
        return np.array(
            [
                q1 - prev[0] - dt * v1,
                q2 - prev[1] - dt * v2,
                v1 - prev[2] - dt * (-p.d / p.I1 * slip - p.k / p.I1 * twist + 1.0 / p.I1 * u),
                v2 - prev[3] - dt * (p.d / p.I2 * slip + p.k / p.I2 * twist),
                v1 - y_ref_next,
            ]
        )

    def advance(self, t_next):
        """Returns the Newton iteration count; the new point lands in ``z``."""
        prev, z = self.z[:4].copy(), self.z.copy()
        y_next = y_ref_at(self.spec, t_next)

        def norm(r, z):
            return float(np.max(np.abs(r) / np.maximum(1.0, np.abs(z))))

        r = self.residual(z, prev, y_next)
        iterations = 0
        while norm(r, z) > self.opts.residual_tolerance:
            if iterations >= self.opts.max_iterations:
                raise NewtonDiverged(t_next, norm(r, z), iterations)
            z = z - self.jac_inv @ r
            iterations += 1
            r = self.residual(z, prev, y_next)
        self.z = z
        return iterations


class TestConsistentInitialization:
    def test_rest_to_rest_start(self, rig, reference):
        init = consistent_initialization(rig, reference)
        assert init.q == (0.0, 0.0) and init.v == (0.0, 0.0)
        assert init.u == 0.0 and init.t == 0.0

    def test_steady_spin_start(self, rig):
        # both flywheels spinning at y0 with no twist needs no torque
        init = consistent_initialization(rig, rest_spec(2.0))
        assert init.v == (2.0, 2.0)
        assert init.q == (0.0, 0.0)
        assert init.u == 0.0

    def test_initial_acceleration_needs_torque(self, rig, reference, monkeypatch):
        # the stock timing law always starts flat; force a nonzero initial
        # reference rate to exercise the torque branch: u = I1 * a
        monkeypatch.setattr(ffw.trajectory, "y_ref_derivative", lambda spec, t: 3.0)
        init = consistent_initialization(rig, reference)
        assert_close(init.u, rig.I1 * 3.0)
        assert init.q == (0.0, 0.0)

    def test_inconsistent_start_detected(self, rig, reference, monkeypatch):
        monkeypatch.setattr(ffw.trajectory, "y_ref_at", lambda spec, t: math.nan)
        with pytest.raises(InconsistentStart):
            consistent_initialization(rig, reference)

    def test_friction_in_nominal_model_rejected(self, rig_with_friction, reference):
        with pytest.raises(ValidationError):
            consistent_initialization(rig_with_friction, reference)


class TestImplicitEulerStep:
    def test_rest_is_fixed_point(self, rig):
        spec = rest_spec(0.0)
        prev = consistent_initialization(rig, spec)
        new = step_from(prev, 1e-3, 1e-3, rig, spec)
        assert new.q == (0.0, 0.0) and new.v == (0.0, 0.0) and new.u == 0.0

    def test_steady_spin_step(self, rig):
        # spinning solution: angles advance, velocities and torque stay put,
        # so the discrete residual is zero at the advanced point
        spec = rest_spec(3.0)
        prev = consistent_initialization(rig, spec)
        new = step_from(prev, 1e-3, 1e-3, rig, spec)
        assert_close(new.v, [3.0, 3.0])
        assert abs(new.u) <= 1e-10
        assert_close(new.q, [3e-3, 3e-3], rel=1e-10, floor=1e-3)
        assert abs(new.q[0] - new.q[1]) <= 1e-12

    def test_a_cap_of_one_raises_with_the_full_norm(self, rig, reference):
        # the spinning start's first term, dt * |v1|, is far above the
        # tolerance, and so is the next iteration's: the cap, not that term,
        # must end the step, with the five-term norm the oracle reports
        prev = InverseModelState((0.0, 0.0), (5.0, 5.0), 0.0, 2.0)
        opts = NewtonOptions(max_iterations=1, residual_tolerance=1e-300)
        oracle = TupleStepper(rig, reference, 1e-3, opts)
        oracle.state = prev
        with pytest.raises(NewtonDiverged) as expected:
            oracle.advance(2.001)
        assert expected.value.iterations == 1
        with pytest.raises(NewtonDiverged) as err:
            step_from(prev, 2.001, 1e-3, rig, reference, opts)
        assert err.value.iterations == 1
        assert _exact(err.value.residual) == _exact(expected.value.residual)

    def test_newton_diverges_on_impossible_tolerance(self, rig, reference):
        # the solve is exact to rounding, so a sub-rounding tolerance must
        # exhaust the iteration cap and surface as a divergence
        prev = ffw.InverseModelState(
            q=np.array([0.7, 0.69]), v=np.array([6.2, 6.1]), u=1.0, t=4.999
        )
        opts = NewtonOptions(residual_tolerance=1e-300)
        with pytest.raises(NewtonDiverged) as err:
            step_from(prev, 5.0, 1e-3, rig, reference, opts)
        assert err.value.iterations == 10

    def test_fd_jacobian_matches_analytic(self, rig, reference):
        stepper = TupleStepper(rig, reference, 1e-3)
        jac = analytic_jacobian(rig, 1e-3)
        rng = np.random.default_rng(13)
        for _ in range(10):
            z = rng.normal(size=5) * 4.0
            prev = rng.normal(size=4) * 4.0
            fd = fd_jacobian(stepper, z, prev, 1.0)
            assert np.max(np.abs(fd - jac)) <= 1e-5
        # the package stepper's inverse, among its step constants, is the inverse of that Jacobian
        jac_inv = np.reshape(InverseModelStepper(rig, reference, 1e-3)._constants[6:], (5, 5))
        assert np.max(np.abs(jac_inv @ jac - np.eye(5))) <= 1e-12

    def test_fd_and_analytic_give_same_step(self, rig, reference):
        # Newton with the finite-difference Jacobian as an independent oracle
        oracle = TupleStepper(rig, reference, 5e-3)
        prev = oracle.state
        prev_vec = (*prev.q, *prev.v)
        y_next = y_ref_at(reference, 5e-3)
        z = np.array([*prev.q, *prev.v, prev.u])
        for _ in range(NewtonOptions().max_iterations):
            r = np.array(oracle._residual(z, prev_vec, y_next))
            z = z - np.linalg.solve(fd_jacobian(oracle, z, prev_vec, y_next), r)
        a = InverseModelStepper(rig, reference, 5e-3).advance(5e-3)
        assert_close(z, np.r_[a.q, a.v, a.u], rel=1e-7, floor=1e-3)

    def test_matches_the_numpy_oracle_step_by_step(self, rig, reference):
        # tolerance: 1e-12 absolute on u against a largest |u| of 1.01; over
        # the 10 s transition at 1 kHz the worst seen is 4.4e-16.  Newton
        # iteration counts match exactly.
        stepper = InverseModelStepper(rig, reference, 1e-3)
        oracle = NumpyStepper(rig, reference, 1e-3)
        for i in range(1, 10001):
            state = stepper.advance(i * 1e-3)
            assert stepper.last_iterations == oracle.advance(i * 1e-3)
            assert abs(state.u - oracle.z[4]) <= 1e-12
            assert_close((*state.q, *state.v), oracle.z[:4], rel=1e-12)


def _bits(state):
    return tuple(float(x).hex() for x in (*state.q, *state.v, state.u, state.t))


def _exact(x):
    """The bytes of float ``x``: unlike ``float.hex``, they tell a NaN's sign."""
    return struct.pack("<d", x)


# where a written-out abs or max can part from the builtins: signed zeros,
# infinities, NaN, subnormals and values whose products overflow
EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
               -2.2250738585072014e-308, 1e300, -1e300)


START_POINTS = st.tuples(
    *[st.floats(-10.0, 10.0) | st.floats(-1e4, 1e4) | st.sampled_from(EDGE_FLOATS)] * 5
)
# a tolerance under rounding level or a cap of one forces NewtonDiverged
NEWTON_OPTIONS = st.builds(
    NewtonOptions,
    max_iterations=st.integers(1, 10),
    residual_tolerance=st.just(1e-10) | st.floats(1e-300, 1e-3),
)


class TestStraightLineStep:
    """``advance`` against the generic tuple Newton of ``newton_oracle``, bit for bit."""

    @settings(max_examples=300)
    @given(
        params=st.builds(
            OscillatorParams,
            I1=st.floats(0.05, 5.0), I2=st.floats(0.05, 5.0),
            k=st.floats(0.0, 500.0), d=st.floats(0.0, 2.0),
        ),
        dt=st.sampled_from([5e-4, 1e-3]) | st.floats(1e-5, 1e-2),
        y0=st.floats(-1e3, 1e3), yf=st.floats(-1e3, 1e3),
        t0=st.floats(0.0, 5.0), span=st.floats(0.1, 10.0),
        start=START_POINTS,
        t_start=st.floats(0.0, 16.0),
        steps=st.integers(1, 20),
        opts=NEWTON_OPTIONS,
        # before which step a new state and new options are assigned, if at all
        restart=st.none() | st.tuples(st.integers(2, 20), START_POINTS),
        reopt=st.none() | st.tuples(st.integers(2, 20), NEWTON_OPTIONS),
    )
    def test_bit_identical_to_the_tuple_oracle(
        self, params, dt, y0, yf, t0, span, start, t_start, steps, opts, restart, reopt
    ):
        # a failed step keeps the state, and the steps after it start from there
        spec = TrajectorySpec(y0=y0, yf=yf, t0=t0, tf=t0 + span)
        stepper = InverseModelStepper(params, spec, dt, opts)
        oracle = TupleStepper(params, spec, dt, opts)
        q1, q2, v1, v2, u = start
        stepper.state = oracle.state = InverseModelState((q1, q2), (v1, v2), u, t_start)
        for i in range(1, steps + 1):
            t_next = t_start + i * dt
            if restart is not None and restart[0] == i:
                q1, q2, v1, v2, u = restart[1]
                point = InverseModelState((q1, q2), (v1, v2), u, t_next - dt)
                stepper.state = oracle.state = point
                assert stepper.state is point
            if reopt is not None and reopt[0] == i:
                stepper.opts = oracle.opts = reopt[1]
            before = stepper.state
            try:
                expected = oracle.advance(t_next)
            except NewtonDiverged as oracle_err:
                with pytest.raises(NewtonDiverged) as err:
                    stepper.advance(t_next)
                assert err.value.time == oracle_err.time
                assert _exact(err.value.residual) == _exact(oracle_err.residual)
                assert err.value.iterations == oracle_err.iterations
                assert stepper.state is before
                assert _exact(stepper.last_residual) == _exact(oracle.last_residual)
                continue
            assert _bits(stepper.advance(t_next)) == _bits(expected)
            assert stepper.last_iterations == oracle.last_iterations
            assert _exact(stepper.last_residual) == _exact(oracle.last_residual)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


class TestNonFiniteStart:
    """The scaled norm passes over NaN terms, so a NaN point must not end a step as converged."""

    @pytest.mark.parametrize(
        "q, v, residual",
        [
            # the NaN first term of the norm ends the iteration at once
            ((math.nan, 0.0), (0.0, 0.0), math.nan),
            # the NaN terms of r2, r3 and r4 are passed over, and r1 and r5 are zero
            ((0.0, 0.0), (0.0, math.nan), 0.0),
        ],
        ids=["q1-nan", "v2-nan"],
    )
    def test_nan_start_raises_after_no_iteration(self, rig, q, v, residual):
        prev = InverseModelState(q, v, 0.0, 1.0)
        stepper = InverseModelStepper(rig, rest_spec(0.0), 1e-3)
        stepper.state = prev
        with pytest.raises(NewtonDiverged) as err:
            stepper.advance(1.001)
        assert err.value.iterations == 0 and _exact(err.value.residual) == _exact(residual)
        assert stepper.state is prev

    @settings(max_examples=300)
    @given(
        params=st.builds(
            OscillatorParams,
            I1=st.floats(0.05, 5.0), I2=st.floats(0.05, 5.0),
            k=st.floats(0.0, 500.0), d=st.floats(0.0, 2.0),
        ),
        dt=st.sampled_from([5e-4, 1e-3]) | st.floats(1e-5, 1e-2),
        level=st.floats(-10.0, 10.0),
        start=st.lists(st.floats(-10.0, 10.0) | st.sampled_from(EDGE_FLOATS),
                       min_size=5, max_size=5),
        bad=st.dictionaries(st.integers(0, 4), NON_FINITE, min_size=1),
    )
    def test_a_non_finite_start_raises_or_ends_finite(self, params, dt, level, start, bad):
        for i, x in bad.items():
            start[i] = x
        q1, q2, v1, v2, u = start
        prev = InverseModelState((q1, q2), (v1, v2), u, 1.0)
        stepper = InverseModelStepper(params, rest_spec(level), dt)
        stepper.state = prev
        try:
            state = stepper.advance(1.0 + dt)
        except NewtonDiverged:
            assert stepper.state is prev
            return
        assert all(math.isfinite(x) for x in (*state.q, *state.v, state.u))


class TestFailedStep:
    """A step that raises NewtonDiverged keeps the state and records its own count and residual."""

    @pytest.mark.parametrize("start, opts", [
        # a tolerance under rounding level exhausts the iteration cap
        (((0.7, 0.69), (6.2, 6.1), 1.0), NewtonOptions(residual_tolerance=1e-300)),
        # the norm passes over the NaN terms, and the end point is not finite
        (((0.0, 0.0), (0.0, math.nan), 0.0), NewtonOptions()),
    ], ids=["iteration-cap", "non-finite-end-point"])
    def test_last_step_values_are_the_failed_steps(self, rig, reference, start, opts):
        stepper = InverseModelStepper(rig, reference, 1e-3)
        stepper.advance(5.0)  # mid-transition: one correction
        converged = stepper.last_iterations, stepper.last_residual
        assert converged[0] == 1
        stepper.opts = opts
        prev = stepper.state = InverseModelState(*start, 1.0)
        with pytest.raises(NewtonDiverged) as err:
            stepper.advance(1.001, 0.0)
        assert stepper.state is prev
        assert stepper.last_iterations == err.value.iterations
        assert stepper.last_residual.hex() == err.value.residual.hex()
        assert (stepper.last_iterations, stepper.last_residual) != converged


class TestHandedReference:
    """``advance(t, y)`` with the run's reference column is ``advance(t)``, bit for bit."""

    @settings(max_examples=60)
    @given(case=windows_on_tick_grids())
    def test_column_sample_steps_as_the_evaluated_reference(self, case):
        spec, dt, n_rows = case
        column = y_ref_samples(spec, np.arange(n_rows) * dt)
        evaluating, handed = (InverseModelStepper(NOMINAL_PLANT, spec, dt) for _ in range(2))
        for k in range(1, n_rows):
            try:
                expected = evaluating.advance(k * dt)
            except NewtonDiverged as evaluated_err:
                with pytest.raises(NewtonDiverged) as err:
                    handed.advance(k * dt, column[k].item())
                assert err.value.residual.hex() == evaluated_err.residual.hex()
                return
            assert _bits(handed.advance(k * dt, column[k].item())) == _bits(expected)
            assert handed.last_iterations == evaluating.last_iterations


class TestSolveFeedforward:
    def test_degenerate_reference_gives_zero_table(self, rig):
        table = solve_feedforward(rig, rest_spec(0.0), dt=1e-3, horizon=2.0)
        assert len(table) == 2001
        assert np.all(table.u == 0.0)

    def test_grid_shape(self, rig, reference):
        table = solve_feedforward(rig, reference, dt=1e-3, horizon=15.0)
        assert len(table) == 15001
        assert table.t[0] == 0.0 and abs(table.t[-1] - 15.0) <= 1e-9

    def test_against_exact_inversion_oracle(self, rig, reference):
        # Independent oracle: with the output pinned to the reference, the
        # twist and the second flywheel speed obey a driven linear ODE and the
        # torque follows algebraically.  Integrated with tight-tolerance RK45,
        # values frozen:
        #   u*(2.5) = 0.13441741769444826
        #   u*(5.0) = 1.0117599823112209
        #   u*(7.5) = 0.13441733537375494
        # A dense implicit Euler reference (dt = 1 us) gives u(5.0) =
        # 1.0117601653818433, bracketing the scheme error at ~2e-7 there.
        scipy_integrate = pytest.importorskip("scipy.integrate")
        frozen = {2.5: 0.13441741769444826, 5.0: 1.0117599823112209, 7.5: 0.13441733537375494}

        def rhs(t, x):
            twist, w = x
            y = y_ref_at(reference, t)
            return [y - w, (rig.d * (y - w) + rig.k * twist) / rig.I2]

        sol = scipy_integrate.solve_ivp(
            rhs, (0.0, 7.5), [0.0, 0.0], rtol=1e-12, atol=1e-14, dense_output=True
        )
        table = solve_feedforward(rig, reference, dt=1e-3, horizon=7.5)
        for t, frozen_value in frozen.items():
            twist, w = sol.sol(t)
            u_star = (
                rig.I1 * y_ref_derivative(reference, t)
                + rig.d * (y_ref_at(reference, t) - w)
                + rig.k * twist
            )
            assert abs(u_star - frozen_value) <= 1e-9
            # first-order scheme error, measured ~1.3e-4 at dt = 1 ms
            assert abs(table.u[int(round(t * 1000))] - u_star) <= 5e-4
        # the midpoint is superconvergent (the error term is odd about it)
        assert abs(table.u[5000] - frozen[5.0]) <= 1e-5

    def test_first_order_convergence(self, rig, reference):
        # successive dt halvings shrink the table difference by ~2
        coarse = solve_feedforward(rig, reference, dt=2e-3, horizon=12.0)
        mid = solve_feedforward(rig, reference, dt=1e-3, horizon=12.0)
        fine = solve_feedforward(rig, reference, dt=5e-4, horizon=12.0)
        d_coarse = np.abs(coarse.u - mid.u[::2]).max()
        d_fine = np.abs(mid.u - fine.u[::2]).max()
        assert 1.7 <= d_coarse / d_fine <= 2.3

    def test_constraint_satisfied_at_every_step(self, rig, reference):
        opts = NewtonOptions()
        stepper = InverseModelStepper(rig, reference, 1e-3, opts)
        for i in range(1, 3001):
            state = stepper.advance(i * 1e-3)
            scale = max(1.0, abs(state.u))
            assert abs(state.v[0] - y_ref_at(reference, state.t)) <= opts.residual_tolerance * scale
            assert stepper.last_iterations <= opts.max_iterations

    def test_torque_settles_after_transition(self, rig, reference):
        # Rest-to-rest: the post-transition steady spin needs no torque.  The
        # discrete solution keeps a residual ringing of the lightly damped
        # shaft mode excited at the seams; its measured floor is ~7e-9, so
        # the tail is checked against 1e-8 (nine decades under the 1 N*m
        # working scale), not against the Newton tolerance.
        table = solve_feedforward(rig, reference, dt=1e-3, horizon=15.0)
        tail = table.u[12000:]
        assert np.abs(tail).max() <= 1e-8

    def test_determinism(self, rig, reference):
        a = solve_feedforward(rig, reference, dt=1e-3, horizon=3.0)
        b = solve_feedforward(rig, reference, dt=1e-3, horizon=3.0)
        assert np.array_equal(a.u, b.u)

    @settings(max_examples=40)
    @given(case=windows_on_tick_grids())
    def test_the_table_steps_the_reference_column(self, case):
        # the solve evaluates y_ref_at once, for the start; its table and
        # iteration counts are those of stepping with y_ref_at, bit for bit
        spec, dt, n_rows = case
        evaluating = InverseModelStepper(NOMINAL_PLANT, spec, dt)
        torques, iterations = [evaluating.state.u], [0]
        try:
            for k in range(1, n_rows):
                torques.append(evaluating.advance(k * dt).u)
                iterations.append(evaluating.last_iterations)
            diverged = None
        except NewtonDiverged as err:
            diverged = err
        with mock.patch.object(ffw.trajectory, "y_ref_at", wraps=y_ref_at) as evaluated:
            try:
                table = solve_feedforward(NOMINAL_PLANT, spec, dt, (n_rows - 1) * dt)
            except NewtonDiverged as err:
                assert diverged is not None
                assert (err.time, err.residual.hex()) == (diverged.time, diverged.residual.hex())
                table = None
        assert evaluated.call_args_list == [mock.call(spec, 0.0)]
        if table is not None:
            assert diverged is None
            assert np.array_equal(table.u.view(np.int64), np.array(torques).view(np.int64))
            assert table.newton_iterations.tolist() == iterations

    def test_newton_failure_names_its_grid_step(self, rig, reference):
        with pytest.raises(NewtonDiverged) as err:
            solve_feedforward(
                rig, reference, dt=1e-3, horizon=1.0,
                opts=NewtonOptions(residual_tolerance=1e-300),
            )
        i = round(err.value.time / 1e-3)
        assert i >= 1 and err.value.time == i * 1e-3


class TestApplyTuning:
    def test_pure_offset(self):
        assert apply_tuning(0.0, TuningFactors(0.08, 0.16)) == 0.16

    def test_identity(self):
        assert apply_tuning(1.234, TuningFactors(1.0, 0.0)) == 1.234

    def test_pure_scale(self):
        assert apply_tuning(2.0, TuningFactors(0.3, 0.0)) == 0.6


class TestTableCsv:
    def test_round_trip(self, rig, reference, tmp_path):
        table = solve_feedforward(rig, reference, dt=1e-3, horizon=1.0)
        path = tmp_path / "table.csv"
        write_table_csv(table, path)
        loaded = read_table_csv(path)
        assert loaded.dt == table.dt
        assert np.array_equal(loaded.t, table.t)
        assert np.array_equal(loaded.u, table.u)
        assert loaded.meta == table.meta

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValidationError):
            ffw.FeedforwardTable(dt=0.1, t=np.array([0.0, 0.1, 0.3]), u=np.zeros(3))

    @pytest.mark.parametrize("t", [np.arange(3) * 0.1 + 5.0, np.array([0.1]), np.array([np.nan]),
                                   np.arange(3) * 0.1 - 2e-10])
    def test_grid_off_zero_rejected(self, t):
        # the run applies sample k at tick k, so the grid starts at 0
        with pytest.raises(ValidationError, match="table grid starts at t = .*, not 0"):
            ffw.FeedforwardTable(dt=0.1, t=t, u=np.zeros(len(t)))

    @pytest.mark.parametrize("dt", [math.nan, 0.0, -0.1, math.inf])
    def test_spacing_that_is_not_a_positive_number_rejected(self, dt):
        # the grid checks take their tolerance from dt
        with pytest.raises(ValidationError, match="table spacing dt must be finite and > 0"):
            ffw.FeedforwardTable(dt=dt, t=np.zeros(1), u=np.zeros(1))

    @pytest.mark.parametrize("t, u", [(np.zeros(3), np.zeros(2)),
                                      (np.zeros((2, 2)), np.zeros((2, 2)))])
    def test_table_arrays_of_another_shape_rejected(self, t, u):
        with pytest.raises(ValidationError, match="1-D and equally long"):
            ffw.FeedforwardTable(dt=0.1, t=t, u=u)

    def test_missing_dt_header_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("# twomass feedforward table\nt,u_ffw\n0.0,0.0\n")
        with pytest.raises(ValidationError, match="dt"):
            read_table_csv(path)
