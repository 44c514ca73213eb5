"""Test oracle for the closed loop: the per-tick loop that ``closedloop.run_simulation``
replaced.

Every column is computed and stored tick by tick: ``t_k = k * dt``, the
reference from ``y_ref_at``, the funnel width from ``psi`` and the error
``e = y_measured - y_ref`` inside the loop, and each value goes into a numpy
column by item store.  ``run_simulation`` builds the columns that do not
depend on the plant once per run; its traces must equal this loop's bit for
bit, on every column, the status and the row count.
"""

from __future__ import annotations

import math
import time

import numpy as np

from funnel_oracle import psi
from twomass import trajectory as trajectory_mod
from twomass.closedloop import RunStatus, Trace, config_echo
from twomass.errors import FunnelViolation, NewtonDiverged, ValidationError
from twomass.feedback import funnel_law
from twomass.feedforward import InverseModelStepper, apply_tuning
from twomass.plant import EVENT, STUCK, integrate_plant_tick, step_matrices


class PerTickSensor:
    """Tick-rate measurement of the output velocity, one noise draw per tick."""

    def __init__(self, model, dt, q1_0, v1_0, rng):
        self.model = model
        self.dt = dt
        self.rng = rng
        if not model.is_ideal:
            self._angle_prev = self._quantize(q1_0)
            self._filtered = v1_0
            tau = model.filter_time_constant
            self._alpha = dt / (tau + dt) if tau > 0.0 else 1.0

    def _quantize(self, angle):
        q = self.model.angle_quantum
        if q == 0.0:
            return angle
        return math.floor(angle / q) * q

    def sample(self, tick, q1, v1):
        model = self.model
        if model.is_ideal:
            return v1
        if tick == 0:
            value = self._filtered
        else:
            angle = self._quantize(q1)
            raw = (angle - self._angle_prev) / self.dt
            self._angle_prev = angle
            self._filtered += self._alpha * (raw - self._filtered)
            value = self._filtered
        if model.noise_std > 0.0:
            value += model.noise_std * self.rng.standard_normal()
        return value


def run_simulation_per_tick(config) -> Trace:
    """One sampled-data run, every column computed and stored per tick."""
    config.validate()
    mode = config.mode
    traj = config.trajectory
    dt = 1.0 / config.control_frequency
    n_ticks = config.n_ticks
    n_rows = n_ticks + 1
    plant = config.true_params
    zoh, stick = step_matrices(plant, dt)
    kinds = [0, 0, 0]

    rng = np.random.default_rng(config.seed)
    q1, q2, v1, v2 = (float(x) for x in config.initial_state)
    sensor = PerTickSensor(config.measurement, dt, q1, v1, rng)

    stepper = None
    diverged = None
    table = None
    if mode.tuning is not None:
        source = config.feedforward_source
        if source.is_online:
            stepper = InverseModelStepper(config.nominal_params, traj, dt, source.newton)
        else:
            table = source.table

    cols = {
        name: np.full(n_rows, np.nan)
        for name in ("t", "y_measured", "y_true", "y_ref", "e", "psi", "u_ffw", "u_fb", "u")
    }
    newton_col = np.full(n_rows, np.nan)
    wall = np.zeros(n_rows)
    status = RunStatus("completed")
    rows = 0

    for k in range(n_rows):
        t_k = k * dt
        y_true = v1
        y_meas = sensor.sample(k, q1, y_true)
        y_ref = trajectory_mod.y_ref_at(traj, t_k)
        e_k = y_meas - y_ref

        cols["t"][k] = t_k
        cols["y_measured"][k] = y_meas
        cols["y_true"][k] = y_true
        cols["y_ref"][k] = y_ref
        cols["e"][k] = e_k
        rows = k + 1

        t_start = time.perf_counter()
        u_ffw = None
        if mode.tuning is not None:
            if table is not None:
                raw = float(table.u[k])
            else:
                if k == 0:
                    raw = stepper.state.u
                    newton_col[k] = 0.0
                else:
                    try:
                        raw = stepper.advance(t_k).u
                    except NewtonDiverged as err:
                        status = RunStatus("newton_diverged", at=t_k)
                        diverged = err
                        break
                    newton_col[k] = stepper.last_iterations
            u_ffw = apply_tuning(raw, mode.tuning)
            cols["u_ffw"][k] = u_ffw

        u_fb = None
        if mode.funnel is not None:
            psi_k = psi(mode.funnel, t_k)
            cols["psi"][k] = psi_k
            try:
                u_fb = funnel_law(y_meas, y_ref, psi_k)
            except FunnelViolation:
                if k == 0:
                    raise ValidationError(
                        f"initial error {e_k:.6g} is not inside the funnel width {psi_k:.6g}"
                    ) from None
                status = RunStatus("funnel_violated", at=t_k)
                break
            cols["u_fb"][k] = u_fb

        u = (u_ffw if u_ffw is not None else 0.0) + (u_fb if u_fb is not None else 0.0)
        if config.u_max is not None:
            u = min(max(u, -config.u_max), config.u_max)
        wall[k] = (time.perf_counter() - t_start) * 1e6
        cols["u"][k] = u

        if k == n_ticks:
            break
        (q1, q2, v1, v2), kind = integrate_plant_tick(plant, zoh, stick, (q1, q2, v1, v2), u, dt)
        kinds[kind] += 1

    return Trace(
        **{name: col[:rows] for name, col in cols.items()},
        newton_iterations=newton_col[:rows],
        status=status,
        run_config=config_echo(config),
        wall_us=wall[:rows],
        plant_stuck_ticks=kinds[STUCK],
        plant_events=kinds[EVENT],
        newton_last_residual=(None if stepper is None else stepper.last_residual
                              if diverged is None else diverged.residual),
        newton_last_iterations=(None if stepper is None else stepper.last_iterations
                                if diverged is None else diverged.iterations),
    )
