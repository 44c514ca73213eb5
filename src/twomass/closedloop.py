"""Sampled-data closed loop: the controller around the rig under a zero-order hold.

This module owns the run: its status, trace and sweep results, the tick loop,
the shared columns, :func:`run_one`/:func:`run_sweep` and trace I/O.  The
config that a run is asked to do, and its echo, are :mod:`twomass.config`'s.

The controller updates its output at the control-loop frequency; between
ticks the input is held constant, and the "true" rig (which, unlike the
controller's nominal model, carries Coulomb friction) follows its exact
stick-slip step, :func:`plant.integrate_plant_tick`, on the state's four
floats and the run's :func:`plant.tick_constants`.  The trace counts the
rig's stuck and event ticks.

Per tick: sample the output (ideal or encoder-style measurement), look up or
compute one step of the feedforward torque, evaluate the funnel law
``-psi^2 e / (psi^2 - e^2)`` on the measured error, sum, hold.  The loop
writes the sensor and the law itself, so that a tick makes one call into
the plant and, with an online inverse model, one into the stepper.  A
funnel violation (``|e| >= psi``) or a failed feedforward step terminates
the run and stamps the status: continuing past either event would fabricate
dynamics the controller cannot produce.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import csvfile
from . import metrics as metrics_mod
from . import trajectory as trajectory_mod
# ControllerMode and FeedforwardSource are imported from here by the acceptance gate
from .config import ControllerMode, FeedforwardSource, SimulationConfig, config_echo
from .errors import NewtonDiverged, ParseError, ValidationError
from .feedback import FunnelSpec
from .feedforward import InverseModelStepper, TuningFactors, apply_tuning
from .plant import EVENT, STUCK, integrate_plant_tick, tick_constants
from .trajectory import TrajectorySpec

__all__ = [
    "RunStatus",
    "Trace",
    "SweepResult",
    "run_simulation",
    "run_one",
    "run_sweep",
    "write_trace_csv",
    "read_trace_csv",
]

@dataclass(frozen=True)
class RunStatus:
    """Terminal state of a run; ``at`` is the tick time of the failure."""

    kind: str  # "completed" | "funnel_violated" | "newton_diverged"
    at: float | None = None

    @property
    def completed(self) -> bool:
        return self.kind == "completed"

    def __str__(self) -> str:  # as the summary and the outcome lines state it
        return "completed" if self.completed else f"{self.kind} at t={self.at:.6g} s"


@dataclass
class Trace:
    """Per-tick record of one run; the unit of all metric computation.

    All series share the tick grid.  Columns that do not apply to the run's
    mode hold NaN; ``psi`` holds the width on every tick, and ``u_fb`` is a
    number exactly where the funnel law returned an input.  ``e`` is the
    measured error, the quantity the controller acts on.  ``wall_us``
    (controller compute time per tick in microseconds, a failing tick's too),
    ``plant_stuck_ticks`` (plant steps with flywheel 1 stuck throughout),
    ``plant_events`` (plant steps in which friction switched),
    ``newton_last_residual`` and ``newton_last_iterations`` (the scaled
    residual norm and the Newton count of the online inverse model's last
    step, the failing one on a ``newton_diverged`` run; ``None`` without an
    online model) are diagnostic only and never serialized, so files stay
    deterministic.

    Only the columns a run computes are its own.  The others are read-only
    and shared: a sweep's runs with bit-equal grids, references and funnels
    share ``t``, ``y_ref`` and ``psi``; runs with one table and one tuning
    share the tuned ``u_ffw``; and every column of an absent branch is one
    NaN array per grid (``psi`` and ``u_fb`` without a funnel, ``u_ffw``
    without tuning, ``newton_iterations`` without an online inverse model).
    Copy one before writing into it.  An ideal sensor's ``y_measured`` is
    its ``y_true``, one writable array: copy before writing into either.
    """

    t: np.ndarray
    y_measured: np.ndarray
    y_true: np.ndarray
    y_ref: np.ndarray
    e: np.ndarray
    psi: np.ndarray
    u_ffw: np.ndarray
    u_fb: np.ndarray
    u: np.ndarray
    newton_iterations: np.ndarray
    status: RunStatus
    run_config: dict = field(default_factory=dict)
    wall_us: np.ndarray | None = None
    plant_stuck_ticks: int | None = None
    plant_events: int | None = None
    newton_last_residual: float | None = None
    newton_last_iterations: int | None = None


@dataclass
class SweepResult:
    """One sweep entry: the run, a completed run's metrics, or the error that prevented them."""

    config: SimulationConfig
    trace: Trace | None = None
    metrics: "metrics_mod.MetricsReport | None" = None
    error: str | None = None


def run_simulation(config: SimulationConfig) -> Trace:
    """Run one sampled-data experiment and return its tick-level trace.

    Ticks run at ``t_k = k / control_frequency`` up to and including the
    horizon; the input computed at the final tick is recorded but no longer
    applied.  Identical configs (and seeds) give bit-identical traces.

    A run allocates only the columns it computes.  The rest are read-only
    arrays that every run with bit-equal inputs shares, so a sweep builds
    each once: the tick times and the reference from
    :func:`_reference_columns`, the funnel width from :func:`_psi_column`, a
    table's tuned torque from :func:`_tuned_column`, and one NaN column from
    :func:`_nan_column` for every branch the run does not have.  An ideal
    sensor's ``y_measured`` is its ``y_true``, one array stored once per
    tick.  The loop samples, runs the controller and steps the plant,
    storing into its own float64 columns through memoryviews, never into a
    shared one; ``e`` is one subtraction after it.  The state stays four
    floats, stepped on :func:`plant.tick_constants` built once per run, and
    the funnel law is written in the loop.  A failing tick ends the loop,
    timed as any other.
    """
    tuning, funnel, u_max = config.mode.tuning, config.mode.funnel, config.u_max
    dt = 1.0 / config.control_frequency
    n_ticks = config.n_ticks
    n_rows = n_ticks + 1
    constants = tick_constants(config.true_params, dt)
    kinds = [0, 0, 0]  # ticks per SLIP, STUCK, EVENT

    q1, q2, v1, v2 = (float(x) for x in config.initial_state)
    # The encoder: its velocity noise does not depend on the plant, so all of
    # a run's draws are made up front, the ones a per-tick
    # ``standard_normal()`` would make, in the same order.
    measurement = config.measurement
    encoder = not measurement.is_ideal
    if encoder:
        quantum, tau, filtered = measurement.angle_quantum, measurement.filter_time_constant, v1
        alpha = dt / (tau + dt) if tau > 0.0 else 1.0
        noise = None
        if measurement.noise_std > 0.0:
            rng = np.random.default_rng(config.seed)
            try:
                with np.errstate(over="raise"):
                    noise = memoryview(measurement.noise_std * rng.standard_normal(n_rows))
            except FloatingPointError:
                raise ValidationError(
                    f"noise_std {measurement.noise_std!r} is too large: its draws overflow"
                ) from None

    t, y_ref = _reference_columns(config.trajectory, dt, n_rows)
    (nan,) = _nan_column(n_rows)
    psi_col = nan if funnel is None else _psi_column(funnel, dt, n_rows)[0]
    u_fb_col = nan if funnel is None else np.full(n_rows, np.nan)
    y_true, u_col = np.full(n_rows, np.nan), np.full(n_rows, np.nan)
    y_meas = np.full(n_rows, np.nan) if encoder else y_true
    u_ffw_col = newton_col = nan
    wall = np.zeros(n_rows)
    stepper = None
    if tuning is not None:
        source = config.feedforward_source
        if source.is_online:
            stepper = InverseModelStepper(
                config.nominal_params, config.trajectory, dt, source.newton
            )
            u_ffw_col, newton_col = np.full(n_rows, np.nan), np.full(n_rows, np.nan)
            u_ffw_col[0] = apply_tuning(stepper.state.u, tuning)
            newton_col[0] = 0.0
        else:
            (u_ffw_col,) = _tuned_column(source.table.u, tuning, n_rows)

    y_ref_v, psi_v, ffw_v, fb_v, u_v, newton_v, wall_v, meas_v, true_v = map(
        memoryview, (y_ref, psi_col, u_ffw_col, u_fb_col, u_col, newton_col, wall, y_meas, y_true)
    )
    floor, perf = math.floor, time.perf_counter
    status = RunStatus("completed")
    # A branch that is off adds +0.0, so a lone -0.0 sums to 0.0.
    u_ffw = u_fb = 0.0
    for k in range(n_rows):
        if encoder:
            angle = q1
            if quantum:
                try:
                    angle = floor(q1 / quantum) * quantum
                except OverflowError:
                    raise ValidationError(
                        f"angle_quantum {quantum!r} is too fine for the angle {q1!r} rad: "
                        "the count of quanta overflows"
                    ) from None
            if k:
                filtered += alpha * ((angle - angle_prev) / dt - filtered)
            angle_prev = angle
            y = filtered if noise is None else filtered + noise[k]
            meas_v[k] = y
        else:
            y = v1
        true_v[k] = v1

        t_start = perf()
        if tuning is not None:
            if stepper is None or k == 0:
                u_ffw = ffw_v[k]
            else:
                try:
                    u_ffw = apply_tuning(stepper.advance(k * dt, y_ref_v[k]).u, tuning)
                except NewtonDiverged:
                    status = RunStatus("newton_diverged", at=k * dt)
                    break
                newton_v[k] = stepper.last_iterations
                ffw_v[k] = u_ffw
        if funnel is not None:
            # undefined from the band edge out: the two tests reject what
            # abs(e) >= psi rejects, and pass NaN as it does
            e, psi_k = y - y_ref_v[k], psi_v[k]
            if e >= psi_k or -e >= psi_k:
                if k == 0:
                    raise ValidationError(
                        f"initial error {e:.6g} is not inside the funnel width {psi_k:.6g}"
                    )
                status = RunStatus("funnel_violated", at=k * dt)
                break
            p2 = psi_k * psi_k
            u_fb = -(p2 / (p2 - e * e)) * e
            fb_v[k] = u_fb
        u = u_ffw + u_fb
        if u_max is not None:
            u = min(max(u, -u_max), u_max)
        wall_v[k] = (perf() - t_start) * 1e6
        u_v[k] = u

        if k == n_ticks:
            break
        q1, q2, v1, v2, kind = integrate_plant_tick(constants, q1, q2, v1, v2, u)
        kinds[kind] += 1

    if not status.completed:  # the failing tick took controller time too
        wall_v[k] = (perf() - t_start) * 1e6
    rows = k + 1
    return Trace(
        t=t[:rows],
        y_measured=y_meas[:rows],
        y_true=y_true[:rows],
        y_ref=y_ref[:rows],
        e=y_meas[:rows] - y_ref[:rows],
        psi=psi_col[:rows],
        u_ffw=u_ffw_col[:rows],
        u_fb=u_fb_col[:rows],
        u=u_col[:rows],
        newton_iterations=newton_col[:rows],
        status=status,
        run_config=config_echo(config),
        wall_us=wall[:rows],
        plant_stuck_ticks=kinds[STUCK],
        plant_events=kinds[EVENT],
        newton_last_residual=None if stepper is None else stepper.last_residual,
        newton_last_iterations=None if stepper is None else stepper.last_iterations,
    )


def _shared(build):
    """``build(*args)`` memoized for its most recent arguments only.

    Keys are exact to the bit.  An array argument is keyed by identity, since
    its ``repr`` elides the middle samples; the entry holds its arguments, so
    no other array can take that ``id`` while it is held.  Any other argument
    is keyed by ``repr``, which tells ``-0.0`` from ``0.0`` (a validated spec
    holds no NaN), where the spec's own equality does not.  The arrays built
    are made read-only, so every run that gets them can share them.  Runs
    with one grid, reference, funnel or tuned table are adjacent in a sweep,
    or have only runs that never call that build between them, so one entry
    is enough.
    """
    last = (None, None, None)  # (args, key, arrays), replaced whole

    @functools.wraps(build)
    def cached(*args):
        nonlocal last
        key = repr(tuple(id(a) if isinstance(a, np.ndarray) else a for a in args))
        _, held_key, arrays = last
        if held_key != key:
            arrays = build(*args)
            for a in arrays:
                a.flags.writeable = False
            last = (args, key, arrays)
        return arrays

    return cached


@_shared
def _reference_columns(spec: TrajectorySpec, dt: float, n_rows: int):
    """The tick times ``k dt`` and the reference at each."""
    t = np.arange(n_rows) * dt
    return t, trajectory_mod.y_ref_samples(spec, t)


@_shared
def _psi_column(funnel: FunnelSpec, dt: float, n_rows: int):
    """The funnel width ``s exp(-q_decay k dt) + c`` at each tick time ``k dt``.

    ``math.exp`` of each exponent, mapped in C: bit-equal to the scalar
    ``s * math.exp(-q_decay * t) + c`` at every tick, where ``np.exp`` is not.
    """
    exponent = np.arange(n_rows) * dt
    exponent *= -funnel.q_decay
    column = np.fromiter(map(math.exp, memoryview(exponent)), float, n_rows)
    column *= funnel.s
    column += funnel.c
    return (column,)


@_shared
def _nan_column(n_rows: int):
    """NaN throughout: every column of a branch that the run does not have."""
    return (np.full(n_rows, np.nan),)


@_shared
def _tuned_column(u: np.ndarray, tuning: TuningFactors, n_rows: int):
    """A table's torque ``u``, tuned, on the first ``n_rows`` ticks.

    A sweep's feedback-only runs never call this, so combined runs that
    alternate with them still share one column.
    """
    return (apply_tuning(u[:n_rows], tuning),)


def run_one(config: SimulationConfig, use_true_output: bool = False) -> SweepResult:
    """Run one config and compute a completed run's metrics once, on the measured or
    (``use_true_output``) the true output; a run-time or metrics error lands in ``error``."""
    try:
        trace = run_simulation(config)
    except ValueError as err:
        return SweepResult(config=config, error=str(err))
    result = SweepResult(config=config, trace=trace)
    if trace.status.completed:
        try:
            result.metrics = metrics_mod.report(trace, config.trajectory, use_true_output)
        except ValueError as err:
            result.error = str(err)
    return result


def run_sweep(configs, workers: int = 1) -> list[SweepResult]:
    """:func:`run_one` of each config in order, into a list that holds every trace.

    Runs are serial: the work is pure Python that holds the interpreter lock,
    so a thread pool made sweeps slower.  ``workers`` must be 1.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1 (sweeps run serially), got {workers}")
    return [run_one(cfg) for cfg in configs]


_FAILURES = ("funnel_violated", "newton_diverged")  # the kinds of RunStatus but completed
_TRACE_COLUMNS = (
    "t", "y_measured", "y_true", "y_ref", "e", "psi", "u_ffw", "u_fb", "u",
    "newton_iterations",
)


def write_trace_csv(trace: Trace, path) -> None:
    """One row per control tick; the header carries the config echo and the status."""
    status = trace.status
    header = [
        ("config", csvfile.format_echo(trace.run_config)),
        ("status", "completed" if status.completed else f"{status.kind} at={status.at!r}"),
    ]
    arrays = [getattr(trace, name) for name in _TRACE_COLUMNS]
    blocks = csvfile.format_rows(arrays)
    csvfile.write(path, "trace", header, _TRACE_COLUMNS, blocks)


def read_trace_csv(path) -> Trace:
    """Load a trace written by :func:`write_trace_csv` (tick series only)."""
    header, data = csvfile.read(path, "trace", _TRACE_COLUMNS)
    body = header.get("status")  # "completed", or a failure and the repr of its finite time
    kind, _, text = (body or "").partition(" at=")
    try:
        at = None if body == "completed" else float(text)
    except ValueError:
        at = math.nan
    if body != "completed" and not (kind in _FAILURES and math.isfinite(at) and repr(at) == text):
        problem = "no status line" if body is None else f"malformed status line {body!r}"
        raise ParseError(f"{path}: {problem}")
    columns = {name: data[:, i] for i, name in enumerate(_TRACE_COLUMNS)}
    run_config = csvfile.parse_echo(header.get("config", ""), path)
    return Trace(status=RunStatus(kind, at), run_config=run_config, **columns)
