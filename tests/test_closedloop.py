import contextlib
import dataclasses
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import plant_oracle
from conftest import assert_close, labels
from funnel_oracle import psi
from loop_oracle import run_simulation_per_tick
from plant_oracle import accelerations, rk4_plant_tick
from twomass import trajectory
from twomass.closedloop import (
    RunStatus,
    Trace,
    _psi_column,
    run_simulation,
    run_sweep,
    read_trace_csv,
    write_trace_csv,
)
from twomass.config import (
    ControllerMode,
    FeedforwardSource,
    MeasurementModel,
    SimulationConfig,
    config_echo,
)
from twomass.errors import NewtonDiverged, ValidationError
from twomass.feedback import FunnelSpec
from twomass.feedforward import (
    FeedforwardTable,
    InverseModelStepper,
    NewtonOptions,
    TuningFactors,
    solve_feedforward,
)
from twomass.metrics import funnel_margin
from twomass.plant import (
    EVENT,
    SLIP,
    STUCK,
    FrictionModel,
    OscillatorParams,
    integrate_plant_tick,
    tick_constants,
)
from twomass.presets import DEFAULT_TRUE_PLANT, NOMINAL_PLANT, REFERENCE_TRAJECTORY, build_preset
from twomass.trajectory import TrajectorySpec, y_ref_at

FUNNEL_2 = FunnelSpec(1.0, 0.1, 0.5)
UNIT_TUNING = TuningFactors(1.0, 0.0)
ENCODER_QUANTUM = 2.0 * math.pi / 4096.0  # rad: 4096 counts per revolution


def encoder(noise_std):
    """An incremental encoder: 4096 counts per revolution, filtered over 5 ms.

    These constants are synthetic desk-scale defaults, not identified hardware.
    """
    return MeasurementModel(ENCODER_QUANTUM, 5e-3, noise_std)


def base_config(**overrides):
    defaults = dict(
        label="test",
        true_params=DEFAULT_TRUE_PLANT,
        nominal_params=NOMINAL_PLANT,
        trajectory=REFERENCE_TRAJECTORY,
        mode=ControllerMode.feedback_only(FUNNEL_2),
        control_frequency=1000.0,
        duration=2.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestFineIntegrator:
    """The RK4 oracle of ``plant_oracle``, which the exact tick is checked against."""

    def test_matches_generic_rk4_on_dynamics(self, rig_with_friction):
        # dual route: the inlined scalar loop against a straightforward RK4
        # on the state vector, built on accelerations
        def generic_rk4(p, state, u, h, n):
            x = np.array(state)

            def f(x):
                acc = accelerations(p.I1, p.I2, p.k, p.d, p.friction.magnitude, *x, u)
                return np.r_[x[2:], acc]

            for _ in range(n):
                k1 = f(x)
                k2 = f(x + 0.5 * h * k1)
                k3 = f(x + 0.5 * h * k2)
                k4 = f(x + h * k3)
                x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            return x

        rng = np.random.default_rng(21)
        for _ in range(20):
            state = tuple(rng.normal(size=4) * 3.0)
            u = rng.normal()
            ours = rk4_plant_tick(rig_with_friction, state, u, 1e-4, 10)
            ref = generic_rk4(rig_with_friction, state, u, 1e-4, 10)
            assert_close(np.array(ours), ref, rel=1e-13, floor=1e-6)

    def test_fourth_order_in_the_substep(self, rig):
        # same tick grid and held input everywhere; only the substep count
        # changes, so halving the fine step cuts the error ~16x
        def run(substeps):
            state = (0.0, 0.0, 0.0, 0.0)
            dt = 1e-2
            for k in range(100):
                u = math.sin(2.5 * k * dt)
                state = rk4_plant_tick(rig, state, u, dt / substeps, substeps)
            return np.array(state)

        dense = run(160)
        err10 = np.linalg.norm(run(10) - dense)
        err20 = np.linalg.norm(run(20) - dense)
        assert 12.0 <= err10 / err20 <= 20.0

    def test_tick_is_its_substeps_under_one_held_input(self, rig_with_friction):
        # the input is held over the whole tick: N substeps in one call are
        # bitwise the same as N single-substep calls with the same input
        state = (0.3, -0.2, 1.5, 1.1)
        u, h = 0.7, 1e-4
        stepped = state
        for _ in range(10):
            stepped = rk4_plant_tick(rig_with_friction, stepped, u, h, 1)
        assert rk4_plant_tick(rig_with_friction, state, u, h, 10) == stepped


def tick(params, state, u, dt):
    """One exact plant tick, with the per-run constants built here: the next state and the kind."""
    *stepped, kind = integrate_plant_tick(tick_constants(params, dt), *state, u)
    return tuple(stepped), kind


def shaft_torque(params, state):
    q1, q2, v1, v2 = state
    return params.k * (q1 - q2) + params.d * (v1 - v2)


def oracle_distance(a, b, dt):
    """Largest state difference in velocity units: angles count divided by ``dt``."""
    return max(abs(a[0] - b[0]) / dt, abs(a[1] - b[1]) / dt, abs(a[2] - b[2]), abs(a[3] - b[3]))


class TestExactStep:
    """The exact tick: slip, stuck and event ticks against the RK4 oracle."""

    DT = 1e-3

    @pytest.mark.parametrize("state, u", [
        ((0.0, 0.0, 0.0, 0.0), 0.5),      # starts at rest and breaks away
        ((0.1, 0.0, 1e-4, 0.2), -2.0),    # v1 > 0 reverses within the tick
        ((0.0, 0.1, -1e-4, -0.2), 2.0),   # v1 < 0 reverses within the tick
    ])
    def test_sign_change_tick_converges_to_the_rk4_oracle(self, rig_with_friction, state, u):
        # RK4 is first order at a friction switch: its distance to the event
        # tick shrinks in proportion to the substep
        p = rig_with_friction
        stepped, kind = tick(p, state, u, self.DT)
        assert kind == EVENT
        distances = [
            oracle_distance(stepped, rk4_plant_tick(p, state, u, self.DT / n, n), self.DT)
            for n in (160, 640, 2560)
        ]
        assert distances[2] < distances[1] < distances[0]
        assert distances[2] <= 2.0 * p.friction.magnitude / p.I1 * self.DT / 2560

    def test_smooth_tick_matches_fine_rk4(self, rig_with_friction):
        # tolerance: 1e-13 relative (floor 1); the worst seen on the rig is 2.4e-15.
        # |v1| >= 1 with a small twist cannot reverse within one tick
        p = rig_with_friction
        rng = np.random.default_rng(4)
        for _ in range(50):
            q1, q2, v1, v2 = rng.normal(size=4).tolist()
            state = (0.3 * q1, 0.3 * q2, math.copysign(1.0 + 3.0 * abs(v1), v1), 3.0 * v2)
            u = float(rng.normal())
            stepped, kind = tick(p, state, u, self.DT)
            assert kind == SLIP
            assert_close(stepped, rk4_plant_tick(p, state, u, self.DT / 160, 160), rel=1e-13)

    @settings(max_examples=200)
    @given(
        i1=st.floats(0.05, 5.0), i2=st.floats(0.05, 5.0),
        k=st.floats(0.0, 500.0), d=st.floats(0.0, 2.0), cf=st.floats(0.0, 1.0),
        state=st.tuples(*[st.floats(-10.0, 10.0)] * 4), u=st.floats(-5.0, 5.0),
        dt=st.sampled_from([5e-4, 1e-3]),
    )
    def test_agrees_with_fine_rk4_across_params(self, i1, i2, k, d, cf, state, u, dt):
        # on every slip tick, the exact step equals RK4 with 160 substeps to
        # 1e-12 relative (floor 1) over these parameter ranges
        p = OscillatorParams(I1=i1, I2=i2, k=k, d=d, friction=FrictionModel(cf))
        stepped, kind = tick(p, state, u, dt)
        assume(kind == SLIP)
        assert_close(stepped, rk4_plant_tick(p, state, u, dt / 160, 160), rel=1e-12)

    @settings(max_examples=200)
    @given(
        i1=st.floats(0.05, 5.0), i2=st.floats(0.05, 5.0),
        k=st.floats(0.0, 500.0), d=st.floats(0.0, 2.0), cf=st.floats(0.0, 1.0),
        q1=st.floats(-1.0, 1.0),
        twist=st.floats(-1e-3, 1e-3) | st.floats(-1.0, 1.0),
        v1=st.just(0.0) | st.floats(-1e-2, 1e-2) | st.floats(-10.0, 10.0),
        v2=st.floats(-1e-2, 1e-2) | st.floats(-10.0, 10.0),
        near=st.booleans(), torque=st.floats(-5.0, 5.0),
        dt=st.sampled_from([5e-4, 1e-3]),
    )
    def test_no_farther_from_fine_rk4_than_coarse_rk4(
        self, i1, i2, k, d, cf, q1, twist, v1, v2, near, torque, dt
    ):
        # Slip, stuck and event ticks, starts from rest included: the exact
        # tick is no farther from RK4 with 640 substeps than RK4 with 10 is.
        # RK4 itself is first order at a friction switch (and chatters about
        # a stuck v1): a switch inside a substep h leaves up to
        # (2 cf / I1) h in v1.  So distances are in velocity units, and the
        # bound adds that error of the 640-substep oracle and a floor of
        # 1e-12 relative (floor 1).
        p = OscillatorParams(I1=i1, I2=i2, k=k, d=d, friction=FrictionModel(cf))
        state = (q1, q1 - twist, v1, v2)
        # a held torque near the band edge |u - shaft| = cf, or anywhere
        u = shaft_torque(p, state) + 0.4 * cf * torque if near else torque
        stepped, _ = tick(p, state, u, dt)
        fine = rk4_plant_tick(p, state, u, dt / 640, 640)
        coarse = rk4_plant_tick(p, state, u, dt / 10, 10)
        oracle_error = 2.0 * cf / i1 * dt / 640
        floor = 1e-12 * max(1.0, *map(abs, fine)) / dt
        assert (
            oracle_distance(stepped, fine, dt)
            <= oracle_distance(coarse, fine, dt) + oracle_error + floor
        )

    @settings(max_examples=100)
    @given(
        i1=st.floats(0.05, 5.0), i2=st.floats(0.05, 5.0),
        k=st.floats(0.0, 500.0), d=st.floats(0.0, 2.0), cf=st.floats(0.1, 1.0),
        q1=st.floats(-10.0, 10.0), twist=st.floats(-1e-3, 1e-3),
        v1=st.sampled_from([0.0, -0.0]), v2=st.floats(-1e-3, 1e-3),
        hold=st.floats(-0.5, 0.5), dt=st.sampled_from([5e-4, 1e-3]),
    )
    def test_stuck_tick_holds_flywheel_one_bitwise(
        self, i1, i2, k, d, cf, q1, twist, v1, v2, hold, dt
    ):
        # At rest with the holding torque u - shaft inside half the band, the
        # shaft torque -k z - d v2 moves by at most 0.026 < cf / 2 in a tick
        # here (|v2'| <= 10, so |v2| <= 0.011), and flywheel 1 stays stuck.
        # Its angle and speed come back bit for bit, and |u - shaft| <= cf
        # at both ends.
        p = OscillatorParams(I1=i1, I2=i2, k=k, d=d, friction=FrictionModel(cf))
        state = (q1, q1 - twist, v1, v2)
        u = shaft_torque(p, state) + hold * cf
        stepped, kind = tick(p, state, u, dt)
        assert kind == STUCK
        assert (stepped[0].hex(), stepped[2].hex()) == (q1.hex(), v1.hex())
        assert abs(u - shaft_torque(p, state)) <= cf
        assert abs(u - shaft_torque(p, stepped)) <= cf

    def test_double_sign_change_within_a_tick_is_an_event(self):
        # v1 starts slightly negative, is pushed through zero, and the
        # fast-swinging shaft pulls it back below zero before the tick ends:
        # the sign at both ends agrees, yet friction switched twice
        p = OscillatorParams(
            I1=0.6064, I2=4.0105, k=412.0, d=1.0579, friction=FrictionModel(0.6966)
        )
        state = (0.2158, -0.2654, -5.48e-4, -9.641)
        u = 209.63
        stepped, kind = tick(p, state, u, self.DT)
        fine = rk4_plant_tick(p, state, u, self.DT / 2560, 2560)
        assert stepped[2] < 0.0 and fine[2] < 0.0
        assert kind == EVENT
        assert oracle_distance(stepped, fine, self.DT) <= 2.0 * 0.6966 / p.I1 * self.DT / 2560

    def test_flat_step_is_the_tuple_oracle_bit_for_bit(self):
        # The step on flat floats and per-run constants against
        # plant_oracle's step on tuples, which reads the rig's constants on
        # every call: the next state's bits and the kind.  Rigs without
        # friction and starts from rest of either sign are drawn, and the
        # torque is anywhere, near the band edge |u - shaft| = cf, or such
        # that the start acceleration brings v1 near zero at the tick's end
        # (the reach test), so that slip, stuck and event ticks all come.
        # The draws change with the modules loaded, so one pinned example of
        # each kind makes every kind come in any test selection.
        seen = [0, 0, 0]  # examples per SLIP, STUCK, EVENT

        @settings(max_examples=300)
        @given(
            i1=st.floats(0.05, 5.0), i2=st.floats(0.05, 5.0),
            k=st.just(0.0) | st.floats(0.0, 500.0), d=st.just(0.0) | st.floats(0.0, 2.0),
            cf=st.just(0.0) | st.floats(0.0, 1.0),
            q1=st.floats(-10.0, 10.0),
            twist=st.floats(-1e-3, 1e-3) | st.floats(-1.0, 1.0),
            v1=(st.sampled_from([0.0, -0.0]) | st.floats(-1e-4, 1e-4) | st.floats(-1e-2, 1e-2)
                | st.floats(-10.0, 10.0)),
            v2=st.floats(-1e-2, 1e-2) | st.floats(-10.0, 10.0),
            aim=st.sampled_from(["any", "band", "reach"]), torque=st.floats(-5.0, 5.0),
            dt=st.sampled_from([5e-4, 1e-3]) | st.floats(1e-5, 1e-2),
        )
        @example(1.0, 1.0, 100.0, 0.5, 0.0, 0.5, 1e-2, 1.0, -1.0, "any", 1.0, 1e-3)  # slip
        @example(1.0, 1.0, 100.0, 0.5, 0.5, 0.5, 1e-4, 0.0, 1e-3, "band", 0.5, 1e-3)  # stuck
        @example(1.0, 1.0, 100.0, 0.5, 0.5, 0.5, 1e-4, 1e-2, 1e-3, "reach", 0.5, 1e-3)  # event
        def check(i1, i2, k, d, cf, q1, twist, v1, v2, aim, torque, dt):
            p = OscillatorParams(I1=i1, I2=i2, k=k, d=d, friction=FrictionModel(cf))
            state = (q1, q1 - twist, v1, v2)
            u = {
                "any": torque,
                "band": shaft_torque(p, state) + 0.4 * cf * torque,
                # v1 + v1' dt = v1 (1 - f) with f in [0.5, 1.5]
                "reach": (shaft_torque(p, state) + math.copysign(cf, v1)
                          - (1.0 + 0.1 * torque) * v1 * i1 / dt),
            }[aim]
            *stepped, kind = integrate_plant_tick(tick_constants(p, dt), *state, u)
            expected, expected_kind = plant_oracle.integrate_plant_tick(
                p, *plant_oracle.step_matrices(p, dt), state, u, dt)
            assert _bits(stepped).tolist() == _bits(expected).tolist()
            assert kind == expected_kind
            seen[kind] += 1

        check()
        assert all(seen), seen

    def test_frictionless_tick_is_the_zoh_step_bitwise(self, rig):
        # no friction, no switch: starts from rest and v1 reversals included
        zoh, _ = plant_oracle.step_matrices(rig, self.DT)
        for state, u in (((0.0, 0.0, 0.0, 0.0), 0.5), ((0.1, 0.0, 1e-4, 0.2), -2.0)):
            q1, q2, v1, v2 = state
            stepped, kind = tick(rig, state, u, self.DT)
            assert kind == SLIP
            assert stepped == tuple(
                r[0] * q1 + r[1] * q2 + r[2] * v1 + r[3] * v2 + r[4] * u
                for r in (zoh[i:i + 5] for i in range(0, 20, 5))
            )


class TestRunSimulation:
    def test_feedback_run_completes_inside_funnel(self):
        cfg = base_config(control_frequency=2000.0, duration=15.0)
        trace = run_simulation(cfg)
        assert trace.status.completed
        assert len(trace.t) == 30001
        assert np.all(np.abs(trace.e) < trace.psi)
        assert np.all(np.isnan(trace.u_ffw))
        assert trace.u[0] == trace.u_fb[0]

    def test_table_feedforward_tracks_nominal_plant(self, rig):
        table = solve_feedforward(rig, REFERENCE_TRAJECTORY, dt=1e-3, horizon=12.0)
        cfg = base_config(
            true_params=rig,
            mode=ControllerMode.feedforward_only(UNIT_TUNING),
            feedforward_source=FeedforwardSource(table=table),
            duration=12.0,
        )
        trace = run_simulation(cfg)
        assert trace.status.completed
        assert np.abs(trace.y_true - trace.y_ref).max() < 0.01
        assert np.all(np.isnan(trace.u_fb))

    def test_zoh_halving_is_first_order(self, rig):
        errors = {}
        for dt, freq in ((1e-3, 1000.0), (5e-4, 2000.0)):
            table = solve_feedforward(rig, REFERENCE_TRAJECTORY, dt=dt, horizon=12.0)
            cfg = base_config(
                true_params=rig,
                mode=ControllerMode.feedforward_only(UNIT_TUNING),
                feedforward_source=FeedforwardSource(table=table),
                control_frequency=freq,
                duration=12.0,
            )
            trace = run_simulation(cfg)
            errors[dt] = np.abs(trace.y_true - trace.y_ref).max()
        assert errors[5e-4] <= 0.65 * errors[1e-3]

    def test_online_equals_table_feedforward(self, rig):
        table = solve_feedforward(rig, REFERENCE_TRAJECTORY, dt=1e-3, horizon=2.0)
        online = base_config(
            true_params=rig,
            mode=ControllerMode.feedforward_only(UNIT_TUNING),
            feedforward_source=FeedforwardSource(),
        )
        lookup = base_config(
            true_params=rig,
            mode=ControllerMode.feedforward_only(UNIT_TUNING),
            feedforward_source=FeedforwardSource(table=table),
        )
        a, b = run_simulation(online), run_simulation(lookup)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.y_true, b.y_true)
        assert np.all(a.newton_iterations[1:] <= 10)

    def test_combined_with_zero_tuning_equals_feedback_only(self):
        fb = base_config(duration=3.0)
        combined = base_config(
            duration=3.0,
            mode=ControllerMode.combined(TuningFactors(0.0, 0.0), FUNNEL_2),
        )
        a, b = run_simulation(fb), run_simulation(combined)
        assert np.array_equal(a.y_true, b.y_true)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.e, b.e)

    def test_combined_with_huge_funnel_equals_feedforward_on_rest_reference(self, rig):
        # with the rig at rest and a rest reference the feedback term is
        # exactly zero, so the traces agree exactly; on a moving reference the
        # funnel law keeps unit small-error gain no matter how wide the
        # funnel, so exact agreement is only available here
        rest = TrajectorySpec(y0=0.0, yf=0.0, t0=0.0, tf=10.0)
        ffw_only = base_config(
            true_params=rig,
            trajectory=rest,
            mode=ControllerMode.feedforward_only(UNIT_TUNING),
        )
        combined = base_config(
            true_params=rig,
            trajectory=rest,
            mode=ControllerMode.combined(UNIT_TUNING, FunnelSpec(0.0, 0.0, 1e6)),
        )
        a, b = run_simulation(ffw_only), run_simulation(combined)
        assert np.abs(a.y_true - b.y_true).max() <= 1e-6
        assert np.array_equal(a.y_true, b.y_true)

    def test_deterministic_given_seed(self):
        cfg = base_config(measurement=MeasurementModel(noise_std=0.05), seed=42, duration=3.0)
        a, b = run_simulation(cfg), run_simulation(cfg)
        for name in ("t", "y_measured", "y_true", "e", "u"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_funnel_violation_truncates_and_stamps(self):
        # a funnel sliver cannot contain the mid-transient demand under ZOH
        cfg = base_config(
            mode=ControllerMode.feedback_only(FunnelSpec(0.0, 0.0, 0.05)), duration=8.0
        )
        trace = run_simulation(cfg)
        assert trace.status.kind == "funnel_violated"
        assert trace.status.at is not None and trace.status.at < 8.0
        assert len(trace.t) < 8001
        assert math.isnan(trace.u[-1])  # the violating tick has no input
        assert abs(trace.e[-1]) >= trace.psi[-1]

    def test_newton_divergence_stamps_status(self):
        cfg = base_config(
            mode=ControllerMode.feedforward_only(UNIT_TUNING),
            feedforward_source=FeedforwardSource(
                newton=NewtonOptions(residual_tolerance=1e-300)
            ),
        )
        trace = run_simulation(cfg)
        assert trace.status.kind == "newton_diverged"
        assert len(trace.t) >= 1

    def test_saturation_hook(self):
        cfg = base_config(u_max=0.01, duration=1.0)
        trace = run_simulation(cfg)
        valid = ~np.isnan(trace.u)
        assert np.abs(trace.u[valid]).max() <= 0.01 + 1e-15

    def test_initial_error_outside_funnel_is_config_error(self):
        cfg = base_config(initial_state=(0.0, 0.0, 100.0, 100.0))
        with pytest.raises(ValidationError):
            run_simulation(cfg)

    def test_wall_time_recorded(self):
        trace = run_simulation(base_config(duration=0.5))
        assert trace.wall_us is not None and np.all(trace.wall_us >= 0.0)


    def test_frictionless_rig_has_neither_stuck_nor_event_ticks(self, rig):
        # without friction every tick is the exact ZOH step, from rest too
        trace = run_simulation(base_config(true_params=rig, duration=1.0))
        assert trace.y_true[0] == 0.0
        assert (trace.plant_stuck_ticks, trace.plant_events) == (0, 0)

    @pytest.mark.parametrize("torque, counts", [
        (0.5, (0, 1)),     # above cf: one start from rest, then v1 > 0 throughout
        (0.1, (1000, 0)),  # below cf: stuck on every tick
    ])
    def test_counts_from_rest_under_a_constant_torque(self, rig_with_friction, torque, counts):
        table = FeedforwardTable(
            dt=1e-3, u=np.full(1001, torque),
            newton_iterations=np.zeros(1001, dtype=int),
        )
        cfg = base_config(
            true_params=rig_with_friction,
            mode=ControllerMode.feedforward_only(UNIT_TUNING),
            feedforward_source=FeedforwardSource(table=table),
            duration=1.0,
        )
        trace = run_simulation(cfg)
        assert (trace.plant_stuck_ticks, trace.plant_events) == counts
        assert np.all(trace.y_true[1:] > 0.0) if counts[1] else np.all(trace.y_true == 0.0)


def _table(u, n=2001, dt=1e-3):
    return FeedforwardTable(dt=dt, u=np.full(n, u), newton_iterations=np.zeros(n, dtype=int))


REST = TrajectorySpec(y0=0.0, yf=0.0, t0=0.0, tf=1.0)
LIGHT_RIG = OscillatorParams(I1=0.1, I2=0.1, k=10.0, d=0.1, friction=FrictionModel(0.01))
NOISY_ENCODER = encoder(noise_std=0.05)
DIVERGING = FeedforwardSource(newton=NewtonOptions(residual_tolerance=1e-300))

# name -> config overrides; 2 s at 1 kHz unless stated
ORACLE_CASES = {
    "feedback-ideal": {},
    "feedback-noisy-encoder": dict(measurement=NOISY_ENCODER, seed=5),
    "feedback-quiet-encoder": dict(measurement=encoder(noise_std=0.0)),
    "feedback-2khz-late-window": dict(
        control_frequency=2000.0, trajectory=TrajectorySpec(y0=1.0, yf=6.0, t0=0.3, tf=1.2)),
    "online-feedforward": dict(mode=ControllerMode.feedforward_only(TuningFactors(0.08, 0.16))),
    "table-feedforward": dict(
        mode=ControllerMode.feedforward_only(TuningFactors(0.08, 0.16)),
        feedforward_source=FeedforwardSource(
            table=solve_feedforward(NOMINAL_PLANT, REFERENCE_TRAJECTORY, dt=1e-3, horizon=2.0))),
    "combined-online-noisy": dict(
        mode=ControllerMode.combined(TuningFactors(0.08, 0.16), FUNNEL_2),
        measurement=NOISY_ENCODER, seed=9),
    "combined-table": dict(
        mode=ControllerMode.combined(UNIT_TUNING, FUNNEL_2),
        feedforward_source=FeedforwardSource(table=_table(0.3))),
    "u-max-clamp": dict(u_max=0.05),
    "funnel-violation": dict(mode=ControllerMode.feedback_only(FunnelSpec(0.0, 0.0, 0.05)),
                             duration=8.0),
    "funnel-violation-combined-table": dict(
        mode=ControllerMode.combined(UNIT_TUNING, FunnelSpec(0.0, 0.0, 0.05)),
        feedforward_source=FeedforwardSource(table=_table(0.0, n=8001)), duration=8.0),
    "newton-divergence": dict(mode=ControllerMode.feedforward_only(UNIT_TUNING),
                              feedforward_source=DIVERGING),
    "newton-divergence-combined": dict(mode=ControllerMode.combined(UNIT_TUNING, FUNNEL_2),
                                       feedforward_source=DIVERGING),
    # one iteration per step meets 1e-30 on some steps only: the run diverges
    # after converged steps
    "newton-divergence-late": dict(
        mode=ControllerMode.feedforward_only(UNIT_TUNING),
        feedforward_source=FeedforwardSource(
            newton=NewtonOptions(max_iterations=1, residual_tolerance=1e-30))),
    # a table of -0.0 with f_fric = -0.0 makes u_ffw = -0.0 on every tick; at
    # rest on a rest reference u_fb is -0.0 too
    "negative-zero-feedforward": dict(
        trajectory=REST, mode=ControllerMode.feedforward_only(TuningFactors(1.0, -0.0)),
        feedforward_source=FeedforwardSource(table=_table(-0.0))),
    "negative-zero-combined": dict(
        trajectory=REST, mode=ControllerMode.combined(TuningFactors(1.0, -0.0), FUNNEL_2),
        feedforward_source=FeedforwardSource(table=_table(-0.0))),
}


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _assert_same_run(ours, oracle):
    """Bit for bit: the status, every column and the diagnostics."""
    assert ours.status == oracle.status
    assert len(ours.t) == len(oracle.t)
    for name in _SERIES + ("newton_iterations",):
        assert np.array_equal(_bits(getattr(ours, name)), _bits(getattr(oracle, name))), name
    assert (ours.plant_stuck_ticks, ours.plant_events) == (
        oracle.plant_stuck_ticks, oracle.plant_events)
    # None without an online stepper; repr tells floats apart to the bit, -0.0 included
    assert repr(ours.newton_last_residual) == repr(oracle.newton_last_residual)
    assert ours.newton_last_iterations == oracle.newton_last_iterations
    assert ours.run_config == oracle.run_config
    assert len(ours.wall_us) == len(ours.t)


class TestLoopOracle:
    """``run_simulation`` against the per-tick loop it replaced, bit for bit."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_the_per_tick_loop(self, case):
        cfg = base_config(label=case, **ORACLE_CASES[case])
        _assert_same_run(run_simulation(cfg), run_simulation_per_tick(cfg))

    def test_matches_the_per_tick_loop_on_drawn_runs(self):
        # Drawn rigs (frictionless ones included), funnels, sensors, torque
        # limits and lengths at either frequency.  A tight funnel, a noisy
        # sensor or a low limit ends a run in a violation, or the first
        # sample outside the funnel is the same config error on both sides.
        # The draws change with the modules loaded, so pinned examples reach
        # each ending, and stuck and event ticks, in any test selection.
        seen = set()  # the endings reached, and the plant's stuck and event ticks

        @settings(max_examples=150)
        @given(
            plant=st.builds(
                OscillatorParams,
                I1=st.floats(0.05, 0.5), I2=st.floats(0.05, 0.5),
                k=st.just(0.0) | st.floats(0.0, 100.0), d=st.just(0.0) | st.floats(0.0, 0.5),
                friction=st.builds(FrictionModel, st.just(0.0) | st.floats(0.0, 0.5)),
            ),
            funnel=st.builds(
                FunnelSpec,
                st.just(0.0) | st.floats(0.0, 5.0),
                st.floats(0.0, 2.0),
                st.floats(1e-3, 0.05) | st.floats(0.05, 2.0),
            ),
            # each field off or on; the angle starts off the quantum grid, so
            # that the first tick's quantization shows in the second tick's rate
            measurement=st.builds(
                MeasurementModel,
                st.just(0.0) | st.floats(1e-6, 0.1),
                st.just(0.0) | st.floats(1e-5, 0.05),
                st.just(0.0) | st.floats(1e-4, 0.2),
            ),
            u_max=st.none() | st.floats(1e-3, 5.0),
            seed=st.integers(0, 2**32),
            frequency=st.sampled_from([1000.0, 2000.0]),
            ticks=st.integers(1, 50) | st.integers(50, 1000),
            q1=st.floats(-10.0, 10.0),
        )
        # a noisy sensor: a run with stuck and event ticks that completes,
        # one that leaves its funnel, and a first sample outside the funnel
        @example(LIGHT_RIG, FunnelSpec(0.0, 0.0, 0.05), MeasurementModel(0.0, 0.0, 0.005),
                 None, 0, 1000.0, 50, 0.0)
        @example(dataclasses.replace(LIGHT_RIG, friction=FrictionModel(0.0)),
                 FunnelSpec(0.0, 0.0, 0.05), MeasurementModel(0.0, 0.0, 0.02),
                 None, 0, 1000.0, 300, 0.0)
        @example(LIGHT_RIG, FunnelSpec(0.0, 0.0, 1e-3), MeasurementModel(0.0, 0.0, 0.1),
                 None, 0, 2000.0, 50, 0.0)
        def check(plant, funnel, measurement, u_max, seed, frequency, ticks, q1):
            cfg = base_config(
                true_params=plant, mode=ControllerMode.feedback_only(funnel),
                measurement=measurement, u_max=u_max, seed=seed, control_frequency=frequency,
                duration=ticks / frequency, initial_state=(q1, q1, 0.0, 0.0),
            )
            try:
                ours = run_simulation(cfg)
            except ValidationError as err:
                with pytest.raises(ValidationError) as oracle:
                    run_simulation_per_tick(cfg)
                assert str(err) == str(oracle.value)
                seen.add("config error")
                return
            _assert_same_run(ours, run_simulation_per_tick(cfg))
            seen.add(ours.status.kind)
            seen.update(name for name in ("plant_stuck_ticks", "plant_events")
                        if getattr(ours, name))

        check()
        assert seen == {"completed", "funnel_violated", "config error",
                        "plant_stuck_ticks", "plant_events"}

    def test_the_online_stepper_is_handed_its_reference_sample(self):
        # the loop passes each tick's y_ref sample to advance, so that no
        # online tick evaluates the reference again: an online run's one
        # y_ref_at call is consistent_initialization's
        callers = []

        def counted(spec, t):
            callers.append(sys._getframe(1).f_code.co_name)
            return y_ref_at(spec, t)

        cfg = base_config(duration=0.05, **ORACLE_CASES["online-feedforward"])
        with mock.patch.object(trajectory, "y_ref_at", counted):
            trace = run_simulation(cfg)
        assert trace.status.completed and len(trace.t) == 51
        assert callers == ["consistent_initialization"]

    def test_last_newton_residual_is_an_online_diagnostic(self, tmp_path):
        online = run_simulation(base_config(**ORACLE_CASES["online-feedforward"]))
        assert 0.0 <= online.newton_last_residual <= NewtonOptions().residual_tolerance
        # never serialized, like the other diagnostics
        write_trace_csv(online, tmp_path / "trace.csv")
        assert read_trace_csv(tmp_path / "trace.csv").newton_last_residual is None
        for case in ("table-feedforward", "feedback-ideal"):
            assert run_simulation(base_config(**ORACLE_CASES[case])).newton_last_residual is None

    @pytest.mark.parametrize("case", ["newton-divergence", "newton-divergence-late"])
    def test_a_diverged_run_reports_its_failing_newton_step(self, case):
        # the residual and count of the step that raised, not of the last
        # converged one
        cfg = base_config(**ORACLE_CASES[case])
        trace = run_simulation(cfg)
        newton = cfg.feedforward_source.newton
        dt = 1.0 / cfg.control_frequency
        stepper = InverseModelStepper(cfg.nominal_params, cfg.trajectory, dt, newton)
        with pytest.raises(NewtonDiverged) as failed:
            for k in range(1, len(trace.t)):
                stepper.advance(k * dt, trace.y_ref[k].item())
        assert trace.status == RunStatus("newton_diverged", at=failed.value.time)
        assert repr(trace.newton_last_residual) == repr(failed.value.residual)
        assert trace.newton_last_iterations == failed.value.iterations
        assert trace.newton_last_residual > newton.residual_tolerance
        # the trace keeps no count at the failing tick
        assert math.isnan(trace.newton_iterations[-1])

    def test_cases_reach_the_intended_states(self):
        # each case above exercises what its name says
        def run(case):
            return run_simulation(base_config(label=case, **ORACLE_CASES[case]))

        assert run("funnel-violation").status.kind == "funnel_violated"
        assert run("funnel-violation-combined-table").status.kind == "funnel_violated"
        diverged = run("newton-divergence-combined")
        # the law never ran on the failing tick, whose width is recorded all the same
        assert diverged.status.kind == "newton_diverged" and math.isnan(diverged.u_fb[-1])
        assert diverged.psi[-1] == psi(FUNNEL_2, diverged.status.at)
        late = run("newton-divergence-late")
        assert late.status.kind == "newton_diverged" and np.all(late.newton_iterations[1:-1] == 1)
        assert len(late.t) > 3
        assert np.abs(run("u-max-clamp").u).max() == 0.05
        noisy = run("feedback-noisy-encoder")
        assert not np.array_equal(noisy.y_measured, noisy.y_true)
        lone = run("negative-zero-feedforward")
        assert np.all(_bits(lone.u_ffw) == _bits(-0.0)) and np.all(_bits(lone.u) == _bits(0.0))
        both = run("negative-zero-combined")
        assert np.all(_bits(both.u_fb) == _bits(-0.0)) and np.all(_bits(both.u) == _bits(-0.0))

    @pytest.mark.parametrize("v1", [100.0, 1.5, -1.5])  # outside, and on either band edge
    def test_initial_error_is_the_same_config_error(self, v1):
        cfg = base_config(initial_state=(0.0, 0.0, v1, v1))
        with pytest.raises(ValidationError) as ours:
            run_simulation(cfg)
        with pytest.raises(ValidationError) as oracle:
            run_simulation_per_tick(cfg)
        assert str(ours.value) == str(oracle.value)
        assert str(ours.value) == f"initial error {v1:g} is not inside the funnel width 1.5"


class TestSharedColumns:
    """The plant-free columns are built once per input and shared, read-only."""

    def test_runs_on_one_grid_share_their_columns(self):
        feedback = run_simulation(base_config(label="fb"))
        combined = run_simulation(base_config(
            label="combined", mode=ControllerMode.combined(UNIT_TUNING, FUNNEL_2),
            feedforward_source=FeedforwardSource(table=_table(0.3))))
        for name in ("t", "y_ref", "psi"):
            assert np.shares_memory(getattr(feedback, name), getattr(combined, name)), name

    @pytest.mark.parametrize("case", ["feedback-ideal", "online-feedforward", "newton-divergence",
                                      "newton-divergence-combined"])
    def test_columns_are_read_only(self, case):
        trace = run_simulation(base_config(label=case, **ORACLE_CASES[case]))
        for name in ("t", "y_ref", "psi"):
            column = getattr(trace, name)
            assert not column.flags.writeable, name
            with pytest.raises(ValueError):
                column[0] = 1.0

    ABSENT = {  # case -> the columns of the branches it does not have
        "feedback-ideal": ("u_ffw", "newton_iterations"),
        "table-feedforward": ("psi", "u_fb", "newton_iterations"),
        "combined-table": ("newton_iterations",),
        "online-feedforward": ("psi", "u_fb"),
    }

    def test_absent_branches_share_one_read_only_nan_column(self):
        columns = []
        for case, names in self.ABSENT.items():
            trace = run_simulation(base_config(label=case, **ORACLE_CASES[case]))
            assert trace.status.completed, case
            columns += [getattr(trace, name) for name in names]
        first = columns[0]
        assert np.isnan(first).all() and len(first) == 2001
        for column in columns:
            assert column.base is first.base and np.shares_memory(column, first)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_table_runs_share_their_tuned_torque(self):
        table = _table(0.3)
        mode = ControllerMode.combined(TuningFactors(0.08, 0.16), FUNNEL_2)
        source = FeedforwardSource(table=table)
        first = run_simulation(base_config(label="a", mode=mode, feedforward_source=source))
        run_simulation(base_config(label="between"))  # a feedback-only run leaves it alone
        second = run_simulation(base_config(label="b", mode=mode, feedforward_source=source))
        assert np.shares_memory(first.u_ffw, second.u_ffw)
        assert not second.u_ffw.flags.writeable
        with pytest.raises(ValueError):
            second.u_ffw[0] = 1.0
        assert np.array_equal(first.u_ffw, np.full(2001, 0.08 * 0.3 + 0.16))

    def test_tuned_torque_keys_are_exact_to_the_bit(self):
        # equal as tunings, different as cells: -0.0 + f_fric; and a new table is read anew
        table = _table(-0.0)
        runs = [
            run_simulation(base_config(mode=ControllerMode.feedforward_only(tuning),
                                       feedforward_source=FeedforwardSource(table=table)))
            for tuning in (TuningFactors(1.0, 0.0), TuningFactors(1.0, -0.0))
        ]
        assert np.all(_bits(runs[0].u_ffw) == _bits(0.0))
        assert np.all(_bits(runs[1].u_ffw) == _bits(-0.0))
        # a table's repr elides the middle samples, so two tables can print alike
        flat = _table(0.0)
        bump = np.zeros(len(flat))
        bump[1000] = 0.5
        bumped = FeedforwardTable(dt=flat.dt, u=bump, newton_iterations=flat.newton_iterations)
        assert repr(flat) == repr(bumped)
        mode = ControllerMode.feedforward_only(UNIT_TUNING)
        for table in (flat, bumped):
            trace = run_simulation(base_config(mode=mode,
                                               feedforward_source=FeedforwardSource(table=table)))
            assert np.array_equal(trace.u_ffw, table.u)

    def test_a_table_reused_after_its_caller_writes_the_array_runs_its_own_torque(self):
        # the table owns its samples, so the caller's write changes neither
        # the table nor the tuned column keyed on it
        caller = np.full(2001, 0.15)
        table = FeedforwardTable(dt=1e-3, u=caller[:])
        config = base_config(mode=ControllerMode.feedforward_only(UNIT_TUNING),
                             feedforward_source=FeedforwardSource(table=table))
        first = run_simulation(config)
        caller[:] = 2.0
        second = run_simulation(config)
        assert np.all(table.u == 0.15)
        assert np.array_equal(second.u_ffw, table.u) and np.array_equal(first.u_ffw, table.u)

    def test_online_runs_own_their_feedforward_columns(self):
        runs = [run_simulation(base_config(label=f"online-{i}", duration=0.2,
                                           **ORACLE_CASES["online-feedforward"]))
                for i in range(2)]
        nan = run_simulation(base_config(duration=0.2)).u_ffw
        for name in ("u_ffw", "newton_iterations"):
            ours, theirs = (getattr(trace, name) for trace in runs)
            assert ours.flags.writeable and not np.isnan(ours).any(), name
            assert not np.shares_memory(ours, theirs) and not np.shares_memory(ours, nan), name

    @settings(max_examples=60, deadline=None)
    @given(
        funnel=st.builds(FunnelSpec, s=st.floats(0.0, 100.0), q_decay=st.floats(0.0, 50.0),
                         c=st.floats(1e-3, 10.0)),
        frequency=st.floats(1.0, 20_000.0),
        n_rows=st.integers(1, 3000),
    )
    # the exponent -q_decay t overflows to -inf after tick 0: a width of c
    @example(funnel=FunnelSpec(5.0, 1.7e308, 0.3), frequency=1000.0, n_rows=1501)
    def test_psi_column_is_the_width_at_each_tick_to_the_bit(self, funnel, frequency, n_rows):
        dt = 1.0 / frequency
        fresh = [psi(funnel, k * dt) for k in range(n_rows)]
        (column,) = _psi_column(funnel, dt, n_rows)
        assert np.array_equal(_bits(column), _bits(fresh))

    def test_a_divergence_leaves_the_shared_psi_whole(self):
        diverged = run_simulation(
            base_config(label="diverged", **ORACLE_CASES["newton-divergence-combined"]))
        completed = run_simulation(base_config(label="completed"))
        assert diverged.status.kind == "newton_diverged" and completed.status.completed
        # the diverged run reads the one shared column, its failing tick included
        assert np.shares_memory(diverged.psi, completed.psi)
        dt = 1e-3
        fresh = [psi(FUNNEL_2, k * dt) for k in range(len(completed.t))]
        assert np.array_equal(_bits(completed.psi), _bits(fresh))
        assert np.array_equal(_bits(diverged.psi), _bits(fresh[:len(diverged.t)]))

    @pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
    def test_reference_keys_are_exact_to_the_bit(self, tmp_path, zeros):
        # equal as specs, different as cells: y_ref holds y0 until t0
        cells = []
        for y0 in zeros:
            spec = TrajectorySpec(y0=y0, yf=1.0, t0=0.5, tf=1.0)
            trace = run_simulation(base_config(trajectory=spec, duration=1.5))
            assert np.signbit(trace.y_ref[0]) == np.signbit(y0)
            path = tmp_path / "trace.csv"
            write_trace_csv(trace, path)
            rows = path.read_text().splitlines()[4:]
            cells.append([row.split(",")[3] for row in rows[:500]])
        assert cells == [[repr(y0)] * 500 for y0 in zeros]


def _run_and_write(configs, folder):
    for cfg in configs:
        write_trace_csv(run_simulation(cfg), folder / f"{cfg.label}-trace.csv")


def test_runs_written_from_two_threads_are_the_serial_bytes(tmp_path):
    # the shared columns and the writer's memo are module state that both
    # threads meet: each runs and writes two short runs of other presets
    # (online feedforward, feedback at 2 kHz, combined with noise, feedback
    # with noise), the 1 kHz grid in both, while the interpreter switches
    # threads often
    picks = [[("table2-ffw-sweep", 0), ("table3-fb-sweep-2khz", 0)],
             [("tight-funnel-dichotomy-1khz", 1), ("tight-funnel-fb", 1)]]
    work = [[dataclasses.replace(build_preset(name).configs[k], label=f"{name}-{k}", duration=0.6)
             for name, k in pick] for pick in picks]
    serial, threaded = tmp_path / "serial", tmp_path / "threaded"
    serial.mkdir()
    threaded.mkdir()
    _run_and_write([cfg for configs in work for cfg in configs], serial)
    errors, start = [], threading.Barrier(len(work))

    def write(configs):
        start.wait()
        try:
            _run_and_write(configs, threaded)
        except BaseException as err:  # re-raised by the test thread
            errors.append(err)

    threads = [threading.Thread(target=write, args=(configs,)) for configs in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    names = sorted(path.name for path in serial.iterdir())
    assert len(names) == 4 and sorted(path.name for path in threaded.iterdir()) == names
    for name in names:
        assert (threaded / name).read_bytes() == (serial / name).read_bytes(), name


class TestFunnelInvariant:
    """Property: a run never records a tick with ``|e| >= psi`` except the one it stops at."""

    # the full transition in 1 s: tight funnels leave, wide ones hold
    FAST = TrajectorySpec(y0=0.0, yf=REFERENCE_TRAJECTORY.yf, t0=0.0, tf=1.0)

    @settings(max_examples=40)
    @given(
        funnel=st.builds(FunnelSpec, s=st.floats(0.0, 2.0), q_decay=st.floats(0.0, 5.0),
                         c=st.floats(0.005, 1.0)),
        combined=st.booleans(),
        duration=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_completed_runs_stay_inside_the_funnel(self, funnel, combined, duration):
        mode = (ControllerMode.combined(UNIT_TUNING, funnel) if combined
                else ControllerMode.feedback_only(funnel))
        trace = run_simulation(base_config(trajectory=self.FAST, mode=mode, duration=duration))
        inside = np.abs(trace.e) < trace.psi
        if trace.status.completed:
            assert len(trace.t) == round(duration * 1000.0) + 1
            assert inside.all()
            # what the run summary reports
            margin, at, gain = funnel_margin(trace)
            assert margin > 0.0 and at in trace.t and gain >= 1.0
        else:
            assert trace.status.kind == "funnel_violated"
            assert inside[:-1].all() and not inside[-1]
            # over the ticks before the violation
            assert funnel_margin(trace)[0] > 0.0


# one drawn run of each ending: (funnel, tuning, Newton options, ticks) at 1 kHz
ENDINGS = {
    "completed": (FunnelSpec(2.0, 1.0, 0.5), UNIT_TUNING, NewtonOptions(), 300),
    "funnel_violated": (FunnelSpec(0.0, 0.0, 0.005), None, NewtonOptions(), 300),
    "newton_diverged": (FUNNEL_2, UNIT_TUNING, NewtonOptions(1, 1e-30), 300),
}


def _ending_run(funnel, tuning, newton, ticks):
    return run_simulation(base_config(
        trajectory=TestFunnelInvariant.FAST, mode=ControllerMode(tuning, funnel),
        feedforward_source=FeedforwardSource(newton=newton), duration=ticks / 1000.0))


class TestRunEndings:
    """Each fact of how a run ended is recorded once, and read from that record."""

    @pytest.mark.parametrize("kind", sorted(ENDINGS))
    def test_each_ending_is_reached(self, kind):
        trace = _ending_run(*ENDINGS[kind])
        assert trace.status.kind == kind
        # the failing tick is timed like any other
        assert trace.wall_us[-1] > 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        funnel=st.none() | st.builds(FunnelSpec, s=st.floats(0.0, 2.0),
                                     q_decay=st.floats(0.0, 5.0), c=st.floats(0.005, 1.0)),
        tuning=st.none() | st.builds(TuningFactors, st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)),
        # a tolerance under rounding level, or one iteration against 1e-30, diverges
        newton=st.builds(NewtonOptions, max_iterations=st.integers(1, 10),
                         residual_tolerance=st.sampled_from([1e-10, 1e-30, 1e-300])),
        ticks=st.integers(1, 300),
    )
    @example(*ENDINGS["completed"])
    @example(*ENDINGS["funnel_violated"])
    @example(*ENDINGS["newton_diverged"])
    def test_the_funnel_record_is_u_fb_on_the_shared_width(self, funnel, tuning, newton, ticks):
        assume(funnel is not None or tuning is not None)
        trace = _ending_run(funnel, tuning, newton, ticks)
        ran = np.flatnonzero(~np.isnan(trace.u_fb))
        if funnel is None:
            assert len(ran) == 0 and funnel_margin(trace) is None
            return
        # the law returned an input on every recorded tick but a failing one
        rows = len(trace.t)
        assert ran.tolist() == list(range(rows if trace.status.completed else rows - 1))
        # funnel_margin reads those ticks and no other: an infinite error elsewhere changes nothing
        poisoned = dataclasses.replace(trace, e=np.where(np.isnan(trace.u_fb), np.inf, trace.e))
        assert funnel_margin(poisoned) == funnel_margin(trace)
        assert funnel_margin(trace)[1] in trace.t[ran]
        # the width of every tick is the shared column, which no run writes
        (column,) = _psi_column(funnel, 1e-3, ticks + 1)
        assert np.shares_memory(trace.psi, column)
        assert np.array_equal(_bits(trace.psi), _bits(column[:rows]))

    @pytest.mark.parametrize("status, text", [
        (RunStatus("completed"), "completed"),
        (RunStatus("funnel_violated", at=11.93), "funnel_violated at t=11.93 s"),
        (RunStatus("newton_diverged", at=0.1 + 0.2), "newton_diverged at t=0.3 s"),
    ])
    def test_a_status_states_its_ending(self, status, text):
        assert str(status) == text


class TestMeasurement:
    def test_ideal_passthrough(self):
        trace = run_simulation(base_config(duration=1.0))
        assert np.array_equal(trace.y_measured, trace.y_true)

    @pytest.mark.parametrize("case", ["feedback-ideal", "funnel-violation", "online-feedforward",
                                      "feedback-quiet-encoder", "feedback-noisy-encoder"])
    def test_an_ideal_sensor_measures_into_the_true_column(self, case):
        # one array for both, written once per tick; an encoder's is its own
        trace = run_simulation(base_config(label=case, **ORACLE_CASES[case]))
        ideal = "encoder" not in case
        assert np.shares_memory(trace.y_measured, trace.y_true) == ideal
        assert trace.y_measured.flags.writeable
        assert np.array_equal(trace.e, trace.y_measured - trace.y_ref)

    def test_encoder_tracks_constant_spin(self, rig):
        # free steady spin: quantized differentiation stays within one
        # quantum per tick of the true rate
        cfg = base_config(
            true_params=rig,
            trajectory=TrajectorySpec(y0=5.0, yf=5.0, t0=0.0, tf=1.0),
            mode=ControllerMode.feedforward_only(TuningFactors(0.0, 0.0)),
            initial_state=(0.0, 0.0, 5.0, 5.0),
            measurement=encoder(noise_std=0.0),
            duration=1.0,
        )
        trace = run_simulation(cfg)
        settled = trace.y_measured[100:]
        quantum_rate = ENCODER_QUANTUM / 1e-3
        assert np.abs(settled - 5.0).max() <= quantum_rate

    def test_noise_is_seeded(self):
        cfg = base_config(measurement=MeasurementModel(noise_std=0.1), duration=0.5, seed=7)
        a = run_simulation(cfg)
        b = run_simulation(base_config(
            measurement=MeasurementModel(noise_std=0.1), duration=0.5, seed=8))
        assert np.array_equal(a.y_measured, run_simulation(cfg).y_measured)
        assert not np.array_equal(a.y_measured, b.y_measured)


class TestValidation:
    def test_table_grid_mismatch(self, rig):
        table = solve_feedforward(rig, REFERENCE_TRAJECTORY, dt=2e-3, horizon=2.0)
        with pytest.raises(ValidationError, match="grid spacing"):
            base_config(
                mode=ControllerMode.feedforward_only(UNIT_TUNING),
                feedforward_source=FeedforwardSource(table=table),
            )

    def test_table_too_short(self, rig):
        table = solve_feedforward(rig, REFERENCE_TRAJECTORY, dt=1e-3, horizon=1.0)
        with pytest.raises(ValidationError, match="too short"):
            base_config(
                mode=ControllerMode.feedforward_only(UNIT_TUNING),
                feedforward_source=FeedforwardSource(table=table),
            )

    def test_nominal_friction_rejected_for_feedforward(self):
        with pytest.raises(ValidationError, match="frictionless"):
            base_config(
                nominal_params=DEFAULT_TRUE_PLANT,
                mode=ControllerMode.feedforward_only(UNIT_TUNING),
            )

    @pytest.mark.parametrize("duration", [0.00123, 0.0015, 1.0 + 1e-6])
    def test_duration_off_the_tick_grid_rejected(self, duration):
        # 0.00123 s at 1 kHz would otherwise run as round(1.23) = 1 tick
        with pytest.raises(ValidationError, match="whole number of control ticks"):
            base_config(duration=duration)

    def test_duration_within_rounding_of_the_tick_grid_accepted(self):
        cfg = base_config(control_frequency=2000.0, duration=0.1 + 0.2)  # 600.0000000000001 ticks
        assert cfg.n_ticks == 600

    @pytest.mark.parametrize("d, ok", [(512000.0, True), (512000.5, False)])
    def test_true_plant_too_fast_for_the_tick_rejected(self, d, ok):
        # rho = d (1/I1 + 1/I2) = 2 d, and the tick is 2**-10 s: 1000 series
        # pieces per tick at d = 512000 are the most a config may ask for
        raises = pytest.raises(ValidationError, match="series pieces per tick, more than 1000")
        with contextlib.nullcontext() if ok else raises:
            base_config(true_params=OscillatorParams(I1=1.0, I2=1.0, k=0.0, d=d),
                        control_frequency=1024.0)

    def test_mode_needs_a_branch(self):
        with pytest.raises(ValidationError):
            ControllerMode()

    @pytest.mark.parametrize("label", ["", "fb|1=x", "a,b", "a/b", "a\\b", "a\nb", "a\rb", "a: b"])
    def test_label_that_cannot_round_trip_rejected(self, label):
        with pytest.raises(ValidationError, match="label"):
            base_config(label=label)

    def test_replace_checks_the_new_config(self):
        with pytest.raises(ValidationError, match="control_frequency"):
            dataclasses.replace(base_config(), control_frequency=-3.0)


class TestSweep:
    def test_empty(self):
        assert run_sweep([]) == []

    def test_errors_are_captured_per_entry(self):
        good = base_config(duration=0.5)
        bad = base_config(initial_state=(0.0, 0.0, 100.0, 100.0))
        results = run_sweep([good, bad])
        assert results[0].trace is not None and results[0].trace.status.completed
        assert results[1].trace is None and "funnel" in results[1].error

    def test_violations_reported_not_raised(self):
        cfg = base_config(
            mode=ControllerMode.feedback_only(FunnelSpec(0.0, 0.0, 0.05)), duration=8.0
        )
        (result,) = run_sweep([cfg])
        assert result.trace.status.kind == "funnel_violated"
        assert result.metrics is None
        # the trace's status is the one record of how the run ended
        assert result.error is None

    def test_feedforward_preset_sweep_all_complete(self):
        from twomass.presets import build_preset

        results = run_sweep(build_preset("table2-ffw-sweep").configs)
        assert len(results) == 5
        assert all(r.trace.status.completed for r in results)
        assert all(r.metrics is not None for r in results)
        # without friction compensation the wheel barely spins up; the best
        # tuning set tracks far closer
        worst = max(r.metrics.e_sum_t for r in results)
        best = min(r.metrics.e_sum_t for r in results)
        assert best < worst

    def test_workers_other_than_one_rejected(self):
        # sweeps run serially; the keyword stays for callers that pass 1
        configs = [base_config(duration=0.5)]
        assert len(run_sweep(configs, workers=1)) == 1
        with pytest.raises(ValueError, match="workers"):
            run_sweep(configs, workers=2)


_SERIES = ("t", "y_measured", "y_true", "y_ref", "e", "psi", "u_ffw", "u_fb", "u")


@st.composite
def stored_traces(draw):
    cfg = base_config(label=draw(labels(max_size=12)))
    n = draw(st.integers(0, 4))
    cell = st.floats(allow_nan=True, allow_infinity=True)
    columns = {name: np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
               for name in _SERIES}
    iterations = st.one_of(st.integers(0, 10**6).map(float), st.just(math.nan))
    columns["newton_iterations"] = np.array(
        draw(st.lists(iterations, min_size=n, max_size=n)), dtype=float
    )
    status = draw(st.one_of(
        st.just(RunStatus("completed")),
        st.builds(RunStatus, st.sampled_from(["funnel_violated", "newton_diverged"]),
                  st.floats(allow_nan=False, allow_infinity=False)),
    ))
    return Trace(status=status, run_config=config_echo(cfg), **columns)


class TestTraceCsv:
    @settings(max_examples=50,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trace=stored_traces())
    def test_round_trip_is_exact(self, tmp_path, trace):
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        for name in _SERIES + ("newton_iterations",):
            assert np.array_equal(getattr(loaded, name), getattr(trace, name), equal_nan=True)
        assert loaded.status == trace.status
        assert loaded.run_config == trace.run_config

    def test_round_trip(self, tmp_path):
        cfg = base_config(duration=0.5, measurement=MeasurementModel(noise_std=0.02))
        trace = run_simulation(cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        for name in ("t", "y_measured", "y_true", "y_ref", "e", "u"):
            assert np.array_equal(getattr(loaded, name), getattr(trace, name))
        assert loaded.status.kind == "completed"
        assert loaded.run_config == trace.run_config

    def test_round_trip_with_violation_status(self, tmp_path):
        cfg = base_config(
            mode=ControllerMode.feedback_only(FunnelSpec(0.0, 0.0, 0.05)), duration=8.0
        )
        trace = run_simulation(cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        assert loaded.status.kind == "funnel_violated"
        assert loaded.status.at == trace.status.at
        assert math.isnan(loaded.u[-1])
