import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import assert_close
from twomass.closedloop import (
    ControllerMode,
    FeedforwardSource,
    MeasurementModel,
    RunStatus,
    SimulationConfig,
    Trace,
    config_echo,
    integrate_plant_tick,
    run_simulation,
    run_sweep,
    read_trace_csv,
    write_trace_csv,
)
from twomass.errors import ValidationError
from twomass.feedback import FunnelSpec
from twomass.feedforward import FeedforwardTable, NewtonOptions, TuningFactors, solve_feedforward
from twomass.plant import accelerations
from twomass.presets import DEFAULT_TRUE_PLANT, NOMINAL_PLANT, REFERENCE_TRAJECTORY
from twomass.trajectory import TrajectorySpec

FUNNEL_2 = FunnelSpec(1.0, 0.1, 0.5)
UNIT_TUNING = TuningFactors(1.0, 0.0)


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
            ours = integrate_plant_tick(rig_with_friction, state, u, 1e-4, 10)
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
                state = integrate_plant_tick(rig, state, u, dt / substeps, substeps)
            return np.array(state)

        dense = run(160)
        err10 = np.linalg.norm(run(10) - dense)
        err20 = np.linalg.norm(run(20) - dense)
        assert 12.0 <= err10 / err20 <= 20.0


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

    def test_hold_consistency_on_fine_grid(self):
        cfg = base_config(duration=0.2, record_fine=1)
        trace = run_simulation(cfg)
        fine = trace.fine
        assert fine is not None
        assert np.all(np.diff(fine["t"]) > 0.0)
        # the applied input is piecewise constant with breakpoints at ticks:
        # every substep of a tick carries that tick's input
        per_tick = fine["u"].reshape(len(trace.t) - 1, cfg.plant_substeps)
        assert np.all(per_tick == trace.u[:-1, None])

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


class TestMeasurement:
    def test_ideal_passthrough(self):
        trace = run_simulation(base_config(duration=1.0))
        assert np.array_equal(trace.y_measured, trace.y_true)

    def test_encoder_tracks_constant_spin(self, rig):
        # free steady spin: quantized differentiation stays within one
        # quantum per tick of the true rate
        cfg = base_config(
            true_params=rig,
            trajectory=TrajectorySpec(y0=5.0, yf=5.0, t0=0.0, tf=1.0),
            mode=ControllerMode.feedforward_only(TuningFactors(0.0, 0.0)),
            initial_state=(0.0, 0.0, 5.0, 5.0),
            measurement=MeasurementModel.encoder(noise_std=0.0),
            duration=1.0,
        )
        trace = run_simulation(cfg)
        settled = trace.y_measured[100:]
        quantum_rate = MeasurementModel.encoder().angle_quantum / 1e-3
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
        cfg = base_config(
            mode=ControllerMode.feedforward_only(UNIT_TUNING),
            feedforward_source=FeedforwardSource(table=table),
        )
        with pytest.raises(ValidationError, match="grid spacing"):
            run_simulation(cfg)

    def test_table_too_short(self, rig):
        table = solve_feedforward(rig, REFERENCE_TRAJECTORY, dt=1e-3, horizon=1.0)
        cfg = base_config(
            mode=ControllerMode.feedforward_only(UNIT_TUNING),
            feedforward_source=FeedforwardSource(table=table),
        )
        with pytest.raises(ValidationError, match="too short"):
            run_simulation(cfg)

    def test_nominal_friction_rejected_for_feedforward(self):
        cfg = base_config(
            nominal_params=DEFAULT_TRUE_PLANT,
            mode=ControllerMode.feedforward_only(UNIT_TUNING),
        )
        with pytest.raises(ValidationError, match="frictionless"):
            run_simulation(cfg)

    def test_mode_needs_a_branch(self):
        with pytest.raises(ValidationError):
            ControllerMode()

    @pytest.mark.parametrize("label", ["", "fb|1=x", "a,b", "a/b", "a\\b", "a\nb", "a\rb"])
    def test_label_that_cannot_round_trip_rejected(self, label):
        with pytest.raises(ValidationError, match="label"):
            base_config(label=label).validate()


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
        assert "funnel_violated" in result.error

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
    # header syntax characters are drawn often; validation rejects the unsafe ones
    label = draw(st.text(st.characters() | st.sampled_from("|=,#: "), min_size=1, max_size=12))
    cfg = base_config(label=label)
    try:
        cfg.validate()
    except ValidationError:
        assume(False)
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
                  st.floats(allow_nan=False)),
    ))
    return Trace(status=status, run_config=config_echo(cfg), **columns)


class TestTraceCsv:
    @settings(max_examples=50, deadline=None,
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
