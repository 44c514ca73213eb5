import math

import numpy as np
import pytest

import twomass.feedforward as ffw
from conftest import assert_close
from twomass.errors import InconsistentStart, NewtonDiverged, ValidationError
from twomass.feedforward import (
    InverseModelStepper,
    NewtonOptions,
    TuningFactors,
    apply_tuning,
    consistent_initialization,
    read_table_csv,
    solve_feedforward,
    write_table_csv,
)
from twomass.trajectory import TrajectorySpec, y_ref_at, y_ref_derivative


def rest_spec(level=0.0):
    return TrajectorySpec(y0=level, yf=level, t0=0.0, tf=10.0)


def step_from(prev, t_next, dt, params, spec, opts=NewtonOptions()):
    stepper = InverseModelStepper(params, spec, dt, opts)
    stepper.state = prev
    return stepper.advance(t_next)


def fd_jacobian(stepper, z, prev, y_ref_next, h=1e-7):
    """Forward-difference Jacobian of the stepper's discrete residual."""
    base = stepper._residual(z, prev, y_ref_next)
    cols = []
    for j in range(5):
        bumped = z.copy()
        bumped[j] += h
        cols.append((stepper._residual(bumped, prev, y_ref_next) - base) / h)
    return np.column_stack(cols)


class TestConsistentInitialization:
    def test_rest_to_rest_start(self, rig, reference):
        init = consistent_initialization(rig, reference)
        assert np.all(init.q == 0.0) and np.all(init.v == 0.0)
        assert init.u == 0.0 and init.t == 0.0

    def test_steady_spin_start(self, rig):
        # both flywheels spinning at y0 with no twist needs no torque
        init = consistent_initialization(rig, rest_spec(2.0))
        assert np.all(init.v == 2.0)
        assert np.all(init.q == 0.0)
        assert init.u == 0.0

    def test_initial_acceleration_needs_torque(self, rig, reference, monkeypatch):
        # the stock timing law always starts flat; force a nonzero initial
        # reference rate to exercise the torque branch: u = I1 * a
        monkeypatch.setattr(ffw.trajectory, "y_ref_derivative", lambda spec, t: 3.0)
        init = consistent_initialization(rig, reference)
        assert_close(init.u, rig.I1 * 3.0)
        assert np.all(init.q == 0.0)

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
        assert np.all(new.q == 0.0) and np.all(new.v == 0.0) and new.u == 0.0

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
        stepper = InverseModelStepper(rig, reference, 1e-3)
        rng = np.random.default_rng(13)
        for _ in range(10):
            z = rng.normal(size=5) * 4.0
            prev = rng.normal(size=4) * 4.0
            fd = fd_jacobian(stepper, z, prev, 1.0)
            assert np.max(np.abs(fd - stepper._jac)) <= 1e-5

    def test_fd_and_analytic_give_same_step(self, rig, reference):
        # Newton with the finite-difference Jacobian as an independent oracle
        stepper = InverseModelStepper(rig, reference, 5e-3)
        prev = stepper.state
        prev_vec = np.r_[prev.q, prev.v]
        y_next = y_ref_at(reference, 5e-3)
        z = np.r_[prev.q, prev.v, prev.u]
        for _ in range(NewtonOptions().max_iterations):
            r = stepper._residual(z, prev_vec, y_next)
            z = z - np.linalg.solve(fd_jacobian(stepper, z, prev_vec, y_next), r)
        a = stepper.advance(5e-3)
        assert_close(z, np.r_[a.q, a.v, a.u], rel=1e-7, floor=1e-3)


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

    def test_newton_failure_carries_step_index(self, rig, reference):
        with pytest.raises(NewtonDiverged) as err:
            solve_feedforward(
                rig, reference, dt=1e-3, horizon=1.0,
                opts=NewtonOptions(residual_tolerance=1e-300),
            )
        assert err.value.step_index >= 1


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
        assert loaded.provenance == "precomputed"

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValidationError):
            ffw.FeedforwardTable(dt=0.1, t=np.array([0.0, 0.1, 0.3]), u=np.zeros(3))

    def test_missing_dt_header_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("# twomass feedforward table\nt,u_ffw\n0.0,0.0\n")
        with pytest.raises(ValidationError, match="dt"):
            read_table_csv(path)
