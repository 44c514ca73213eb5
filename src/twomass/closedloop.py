"""Sampled-data closed loop: the controller around the rig under a zero-order hold.

The controller updates its output at the control-loop frequency; between
ticks the input is held constant, and the "true" rig (which, unlike the
controller's nominal model, carries Coulomb friction) follows its exact
stick-slip step, :func:`plant.integrate_plant_tick`.  The trace counts the
rig's stuck and event ticks.

Per tick: sample the output (ideal or encoder-style measurement), look up or
compute one step of the feedforward torque, evaluate the funnel feedback on
the measured error, sum, hold.  A funnel violation or a failed feedforward
step terminates the run and stamps the status: continuing past either event
would fabricate dynamics the controller cannot produce.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from . import csvfile
from . import metrics as metrics_mod
from . import trajectory as trajectory_mod
from .errors import FunnelViolation, NewtonDiverged, ParseError, ValidationError
from .feedback import FunnelSpec, funnel_law
from .feedforward import (
    FeedforwardTable,
    InverseModelStepper,
    NewtonOptions,
    TuningFactors,
    apply_tuning,
    step_count,
)
from .plant import EVENT, STUCK, OscillatorParams, integrate_plant_tick, rate_bound, step_matrices
from .trajectory import TrajectorySpec

__all__ = [
    "MeasurementModel",
    "ControllerMode",
    "FeedforwardSource",
    "SimulationConfig",
    "RunStatus",
    "Trace",
    "SweepResult",
    "run_simulation",
    "run_one",
    "run_sweep",
    "CONFIG_FIELDS",
    "ConfigField",
    "config_echo",
    "write_trace_csv",
    "read_trace_csv",
]

@dataclass(frozen=True)
class MeasurementModel:
    """How the controller sees the output velocity.

    The default (all fields zero) is an ideal sensor.  Nonzero fields model an
    incremental encoder: the angle is quantized, differentiated tick-to-tick,
    low-pass filtered, and Gaussian velocity noise is added.
    """

    angle_quantum: float = 0.0
    filter_time_constant: float = 0.0
    noise_std: float = 0.0

    def __post_init__(self):
        fields = (self.angle_quantum, self.filter_time_constant, self.noise_std)
        if not all(0.0 <= x < math.inf for x in fields):
            raise ValidationError("measurement model fields must be finite and >= 0")

    @property
    def is_ideal(self) -> bool:
        return self.angle_quantum == 0.0 and self.filter_time_constant == 0.0 and self.noise_std == 0.0


@dataclass(frozen=True)
class ControllerMode:
    """Which controller branches are active: feedforward, feedback, or both."""

    tuning: TuningFactors | None = None
    funnel: FunnelSpec | None = None

    def __post_init__(self):
        if self.tuning is None and self.funnel is None:
            raise ValidationError("controller mode needs a tuning set, a funnel, or both")

    @classmethod
    def feedforward_only(cls, tuning: TuningFactors) -> "ControllerMode":
        return cls(tuning=tuning)

    @classmethod
    def feedback_only(cls, funnel: FunnelSpec) -> "ControllerMode":
        return cls(funnel=funnel)

    @classmethod
    def combined(cls, tuning: TuningFactors, funnel: FunnelSpec) -> "ControllerMode":
        return cls(tuning=tuning, funnel=funnel)

    @property
    def name(self) -> str:
        if self.tuning is not None and self.funnel is not None:
            return "combined"
        if self.tuning is not None:
            return "feedforward"
        return "feedback"


@dataclass(frozen=True)
class FeedforwardSource:
    """Where the feedforward torque comes from.

    With a table, the loop reads precomputed samples (the lookup-table mode);
    without one, it advances the inverse model by one implicit Euler step per
    tick (the real-time mode).  The online solver is pure feedforward: it
    never re-synchronizes to the plant state.
    """

    table: FeedforwardTable | None = None
    newton: NewtonOptions = NewtonOptions()

    @property
    def is_online(self) -> bool:
        return self.table is None


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


@dataclass(frozen=True)
class SimulationConfig:
    label: str
    true_params: OscillatorParams
    nominal_params: OscillatorParams
    trajectory: TrajectorySpec
    mode: ControllerMode
    control_frequency: float
    duration: float
    # Kept so that older callers and INI files still load: validated, but the
    # plant step is exact and takes no substeps.
    plant_substeps: int = 10
    measurement: MeasurementModel = MeasurementModel()
    feedforward_source: FeedforwardSource = FeedforwardSource()
    seed: int = 0
    u_max: float | None = None
    initial_state: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        # the label names output files and sits in |-joined headers, CSV rows
        # and the metrics header's "config LABEL: " keys
        if not self.label or any(ch in "|,/\\:\n\r" for ch in self.label):
            raise ValidationError(
                f"label {self.label!r} must be non-empty, without | , / \\ : or newlines"
            )
        if not 0.0 < self.control_frequency < math.inf:
            raise ValidationError(
                f"control_frequency must be finite and > 0, got {self.control_frequency}"
            )
        if self.plant_substeps < 1:
            raise ValidationError(f"plant_substeps must be >= 1, got {self.plant_substeps}")
        if not 0.0 < self.duration < math.inf:
            raise ValidationError(f"duration must be finite and > 0, got {self.duration}")
        step_count(self.duration * self.control_frequency,
                   f"duration {self.duration} s at {self.control_frequency} Hz", "control ticks")
        tick, p = 1.0 / self.control_frequency, self.true_params
        pieces = rate_bound(p) * tick  # step_matrices and event ticks walk ceil(pieces) series pieces
        if not pieces <= 1000.0:  # the presets ask for at most 0.023
            raise ValidationError(
                f"true plant I1={p.I1} I2={p.I2} k={p.k} d={p.d} is too fast for the control "
                f"tick {tick} s: {pieces:.6g} series pieces per tick, more than 1000"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.u_max is not None and not self.u_max > 0.0:
            raise ValidationError(f"u_max must be > 0 when set, got {self.u_max}")
        if len(self.initial_state) != 4 or not all(math.isfinite(x) for x in self.initial_state):
            raise ValidationError("initial_state must be four finite numbers")
        if self.mode.tuning is not None:
            if not self.nominal_params.friction.is_none:
                raise ValidationError("nominal model must be frictionless")
            source = self.feedforward_source
            if source.table is not None:
                if abs(source.table.dt - tick) > 1e-9 * tick:
                    raise ValidationError(
                        "feedforward table grid spacing must equal the control tick: "
                        f"table dt {source.table.dt}, tick {tick}"
                    )
                if len(source.table) < self.n_ticks + 1:
                    raise ValidationError(
                        f"feedforward table too short: {len(source.table)} samples, "
                        f"need {self.n_ticks + 1}"
                    )

    @property
    def n_ticks(self) -> int:
        return round(self.duration * self.control_frequency)


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


class FieldKind(NamedTuple):
    """How a config value is written as text and read back."""

    parse: Callable[[str], object]  # raises ValueError or KeyError on malformed text
    format: Callable[[object], str] | None  # None: never echoed
    noun: str  # what ``parse`` accepts, for error messages


def _choice(values: dict) -> FieldKind:
    """A value named by one of the keys of ``values``."""
    names = {value: name for name, value in values.items()}
    return FieldKind(values.__getitem__, names.__getitem__, "one of " + ", ".join(values))


def _table_path(text: str) -> str | None:
    if text == "online":
        return None
    if not text.startswith("table:"):
        raise ValueError(text)
    return text[len("table:"):]


TEXT = FieldKind(str, str, "text")
FLOAT = FieldKind(float, lambda x: "" if x is None else repr(x), "a number")
INT = FieldKind(int, str, "an integer")
MODE = _choice({name: name for name in ("feedforward", "feedback", "combined")})
STATE = FieldKind(lambda text: tuple(map(float, text.split(";"))),
                  lambda xs: ";".join(map(repr, xs)), "numbers joined by ';'")
SOURCE = _choice({"online": True, "table": False})
TABLE_PATH = FieldKind(_table_path, None, "'online' or 'table:PATH'")
FFW, FB = "feedforward", "feedback"  # the branches of a ControllerMode


class ConfigField(NamedTuple):
    """One row of :data:`CONFIG_FIELDS`."""

    name: str  # INI ``section.key`` (the section ends at the last dot) and echo key
    path: str  # where the value sits in a SimulationConfig, as dotted attributes
    kind: FieldKind
    required: bool = True  # an absent or blank optional value keeps its dataclass default
    branch: str | None = None  # FFW/FB: only in the modes that have that branch
    ini: bool = True  # settable in a config file
    echo: bool = True  # written by config_echo
    derived: bool = False  # a property of the config: read back, never set


# Every config value that a file sets or an echo records.  Not in the echo:
# plant_substeps (no effect), a table's samples (the echo says only
# whether one was used) and the nominal plant's friction (zero wherever the
# nominal plant is used).  The mode row precedes every branch row.
CONFIG_FIELDS = (
    ConfigField("simulation.label", "label", TEXT),
    # the branches present; it decides which branch rows a file must and may hold
    ConfigField("simulation.mode", "mode.name", MODE, derived=True),
    ConfigField("simulation.control_frequency", "control_frequency", FLOAT),
    ConfigField("simulation.duration", "duration", FLOAT),
    ConfigField("simulation.plant_substeps", "plant_substeps", INT, required=False, echo=False),
    ConfigField("simulation.seed", "seed", INT, required=False),
    ConfigField("simulation.u_max", "u_max", FLOAT, required=False),  # blank: None, no limit
    ConfigField("simulation.feedforward", "feedforward_source.table", TABLE_PATH,
                required=False, branch=FFW, echo=False),
    ConfigField("feedforward.source", "feedforward_source.is_online", SOURCE,
                required=False, branch=FFW, ini=False, derived=True),
    ConfigField("simulation.initial_state", "initial_state", STATE, required=False, ini=False),
    ConfigField("plant.true.I1", "true_params.I1", FLOAT),
    ConfigField("plant.true.I2", "true_params.I2", FLOAT),
    ConfigField("plant.true.k", "true_params.k", FLOAT),
    ConfigField("plant.true.d", "true_params.d", FLOAT),
    ConfigField("plant.true.coulomb_friction", "true_params.friction.magnitude", FLOAT,
                required=False),
    ConfigField("plant.nominal.I1", "nominal_params.I1", FLOAT),
    ConfigField("plant.nominal.I2", "nominal_params.I2", FLOAT),
    ConfigField("plant.nominal.k", "nominal_params.k", FLOAT),
    ConfigField("plant.nominal.d", "nominal_params.d", FLOAT),
    ConfigField("trajectory.y0", "trajectory.y0", FLOAT),
    ConfigField("trajectory.yf", "trajectory.yf", FLOAT),
    ConfigField("trajectory.t0", "trajectory.t0", FLOAT),
    ConfigField("trajectory.tf", "trajectory.tf", FLOAT),
    ConfigField("tuning.f_act", "mode.tuning.f_act", FLOAT, branch=FFW),
    ConfigField("tuning.f_fric", "mode.tuning.f_fric", FLOAT, branch=FFW),
    ConfigField("newton.max_iterations", "feedforward_source.newton.max_iterations", INT,
                required=False, branch=FFW),
    ConfigField("newton.residual_tolerance", "feedforward_source.newton.residual_tolerance",
                FLOAT, required=False, branch=FFW),
    ConfigField("funnel.s", "mode.funnel.s", FLOAT, branch=FB),
    ConfigField("funnel.q_decay", "mode.funnel.q_decay", FLOAT, branch=FB),
    ConfigField("funnel.c", "mode.funnel.c", FLOAT, branch=FB),
    ConfigField("measurement.angle_quantum", "measurement.angle_quantum", FLOAT,
                required=False),
    ConfigField("measurement.filter_time_constant", "measurement.filter_time_constant", FLOAT,
                required=False),
    ConfigField("measurement.noise_std", "measurement.noise_std", FLOAT, required=False),
)


def has_branch(mode_name: str, branch: str | None) -> bool:
    """Whether a controller mode of that name has the branch (None: every mode)."""
    return branch is None or mode_name in (branch, "combined")


def config_echo(cfg: SimulationConfig) -> dict:
    """Flat, fully resolved key=value view of a config (embedded in file headers).

    One pair per echoed row of :data:`CONFIG_FIELDS` in the config's branches.
    """
    mode = cfg.mode.name
    return {
        row.name: row.kind.format(reduce(getattr, row.path.split("."), cfg))
        for row in CONFIG_FIELDS
        if row.echo and has_branch(mode, row.branch)
    }


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
    shared one; ``e`` is one subtraction after it.  A failing tick ends the
    loop, timed as any other.
    """
    tuning, funnel, u_max = config.mode.tuning, config.mode.funnel, config.u_max
    dt = 1.0 / config.control_frequency
    n_ticks = config.n_ticks
    n_rows = n_ticks + 1
    plant = config.true_params
    zoh, stick = step_matrices(plant, dt)
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
            u_ffw_col = _tuned_column(source.table, tuning, n_rows)

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
            try:
                u_fb = funnel_law(y, y_ref_v[k], psi_v[k])
            except FunnelViolation:
                if k == 0:
                    raise ValidationError(
                        f"initial error {y - y_ref_v[0]:.6g} is not inside the funnel "
                        f"width {psi_v[0]:.6g}"
                    ) from None
                status = RunStatus("funnel_violated", at=k * dt)
                break
            fb_v[k] = u_fb
        u = u_ffw + u_fb
        if u_max is not None:
            u = min(max(u, -u_max), u_max)
        wall_v[k] = (perf() - t_start) * 1e6
        u_v[k] = u

        if k == n_ticks:
            break
        (q1, q2, v1, v2), kind = integrate_plant_tick(plant, zoh, stick, (q1, q2, v1, v2), u, dt)
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

    Keys are exact to the bit: ``repr`` tells ``-0.0`` from ``0.0`` (a
    validated spec holds no NaN), where the spec's own equality does not.
    The arrays built are made read-only, so every run that gets them can
    share them.  Runs on one grid with one reference or funnel are adjacent
    in a sweep, so one entry is enough.
    """
    last = (None, None)  # (key, arrays), replaced whole

    @functools.wraps(build)
    def cached(*args):
        nonlocal last
        key = repr(args)
        held_key, arrays = last
        if held_key != key:
            arrays = build(*args)
            for a in arrays:
                a.flags.writeable = False
            last = (key, arrays)
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


_tuned_last = (None, None, None)  # (table, key, column), replaced whole


def _tuned_column(table: FeedforwardTable, tuning: TuningFactors, n_rows: int):
    """The table's tuned torque on the first ``n_rows`` ticks, read-only.

    Memoized, as :func:`_shared` is, for the most recent arguments only.  The
    table is held and compared by identity, because its ``repr`` is not
    exact; the tuning is compared by ``repr``, which tells ``-0.0`` from
    ``0.0``.  A sweep's feedback-only runs never call this, so combined runs
    that alternate with them still share one column.
    """
    global _tuned_last
    key = (repr(tuning), n_rows)
    held, held_key, column = _tuned_last
    if held is not table or held_key != key:
        column = apply_tuning(np.asarray(table.u[:n_rows], dtype=float), tuning)
        column.flags.writeable = False
        _tuned_last = (table, key, column)
    return column


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
_INT_COLUMNS = (_TRACE_COLUMNS.index("newton_iterations"),)
# the plant-free columns, which repeat from run to run of a sweep: the grid,
# the reference, the funnel width and a table's tuned torque
_MEMO_COLUMNS = tuple(_TRACE_COLUMNS.index(name) for name in ("t", "y_ref", "psi", "u_ffw"))
# the grid and the reference, which repeat from trace to trace of a sweep; the
# reader leaves psi out: a sweep over funnels never repeats it, and keeping
# its batches made repeated reads both slower and larger
_READ_MEMO_COLUMNS = tuple(_TRACE_COLUMNS.index(name) for name in ("t", "y_ref"))


def write_trace_csv(trace: Trace, path) -> None:
    """One row per control tick; the header carries the config echo and the status."""
    status = trace.status
    header = [
        ("config", csvfile.format_echo(trace.run_config)),
        ("status", "completed" if status.completed else f"{status.kind} at={status.at!r}"),
    ]
    arrays = [getattr(trace, name) for name in _TRACE_COLUMNS]
    blocks = csvfile.format_rows(arrays, _INT_COLUMNS, _MEMO_COLUMNS)
    csvfile.write(path, "trace", header, _TRACE_COLUMNS, blocks)


def read_trace_csv(path) -> Trace:
    """Load a trace written by :func:`write_trace_csv` (tick series only)."""
    header, data = csvfile.read(path, "trace", _TRACE_COLUMNS, _READ_MEMO_COLUMNS)
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
    run_config = csvfile.parse_echo(header.get("config", ""))
    return Trace(status=RunStatus(kind, at), run_config=run_config, **columns)
