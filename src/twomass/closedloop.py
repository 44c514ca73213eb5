"""Sampled-data closed loop: fine plant integration under a zero-order hold.

The controller updates its output at the control-loop frequency; between
ticks the input is held constant while the "true" rig (which, unlike the
controller's nominal model, carries Coulomb friction) is integrated with a
classical fixed-step 4th-order one-step scheme on a finer grid (default ten
substeps per tick).  The fine integrator stands in for continuous hardware
and must be much more accurate than the controller's own discretization.

Per tick: sample the output (ideal or encoder-style measurement), look up or
compute one step of the feedforward torque, evaluate the funnel feedback on
the measured error, sum, hold.  A funnel violation or a failed feedforward
step terminates the run and stamps the status: continuing past either event
would fabricate dynamics the controller cannot produce.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics as metrics_mod
from . import trajectory as trajectory_mod
from .errors import FunnelViolation, NewtonDiverged, ParseError, ValidationError
from .feedback import FunnelSpec, funnel_law, psi
from .feedforward import (
    FeedforwardTable,
    InverseModelStepper,
    NewtonOptions,
    TuningFactors,
    apply_tuning,
)
from .plant import OscillatorParams, accelerations
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
    "run_sweep",
    "integrate_plant_tick",
    "config_echo",
    "format_echo",
    "write_trace_csv",
    "read_trace_csv",
]

ENCODER_QUANTUM = 2.0 * math.pi / 4096.0


@dataclass(frozen=True)
class MeasurementModel:
    """How the controller sees the output velocity.

    The default (all fields zero) is an ideal sensor.  Nonzero fields model an
    incremental encoder: the angle is quantized, differentiated tick-to-tick,
    low-pass filtered, and Gaussian velocity noise is added.  The encoder
    constants are synthetic desk-scale defaults, not identified hardware.
    """

    angle_quantum: float = 0.0
    filter_time_constant: float = 0.0
    noise_std: float = 0.0

    def __post_init__(self):
        if self.angle_quantum < 0.0 or self.filter_time_constant < 0.0 or self.noise_std < 0.0:
            raise ValidationError("measurement model fields must be >= 0")

    @property
    def is_ideal(self) -> bool:
        return self.angle_quantum == 0.0 and self.filter_time_constant == 0.0 and self.noise_std == 0.0

    @classmethod
    def encoder(
        cls,
        angle_quantum: float = ENCODER_QUANTUM,
        filter_time_constant: float = 5e-3,
        noise_std: float = 0.02,
    ) -> "MeasurementModel":
        return cls(angle_quantum, filter_time_constant, noise_std)


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


@dataclass(frozen=True)
class SimulationConfig:
    label: str
    true_params: OscillatorParams
    nominal_params: OscillatorParams
    trajectory: TrajectorySpec
    mode: ControllerMode
    control_frequency: float
    duration: float
    plant_substeps: int = 10
    measurement: MeasurementModel = MeasurementModel()
    feedforward_source: FeedforwardSource = FeedforwardSource()
    seed: int = 0
    u_max: float | None = None
    initial_state: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    record_fine: int = 0

    def validate(self) -> None:
        # the label names output files and sits in |-joined headers and CSV rows
        if not self.label or any(ch in "|,/\\\n\r" for ch in self.label):
            raise ValidationError(
                f"label {self.label!r} must be non-empty, without | , / \\ or newlines"
            )
        if not self.control_frequency > 0.0:
            raise ValidationError(f"control_frequency must be > 0, got {self.control_frequency}")
        if self.plant_substeps < 1:
            raise ValidationError(f"plant_substeps must be >= 1, got {self.plant_substeps}")
        if not self.duration > 0.0:
            raise ValidationError(f"duration must be > 0, got {self.duration}")
        if self.u_max is not None and not self.u_max > 0.0:
            raise ValidationError(f"u_max must be > 0 when set, got {self.u_max}")
        if self.record_fine < 0:
            raise ValidationError("record_fine must be >= 0")
        if len(self.initial_state) != 4 or not all(math.isfinite(x) for x in self.initial_state):
            raise ValidationError("initial_state must be four finite numbers")
        if self.mode.tuning is not None:
            if not self.nominal_params.friction.is_none:
                raise ValidationError("nominal model must be frictionless")
            source = self.feedforward_source
            tick = 1.0 / self.control_frequency
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
    mode hold NaN.  ``e`` is the measured error, the quantity the controller
    acts on.  ``wall_us`` (controller compute time per tick, microseconds) is
    diagnostic only and never serialized, so files stay deterministic.
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
    fine: dict | None = None


@dataclass
class SweepResult:
    """One sweep entry: the run, its metrics, or the error that prevented them."""

    config: SimulationConfig
    trace: Trace | None = None
    metrics: "metrics_mod.MetricsReport | None" = None
    error: str | None = None


def integrate_plant_tick(
    params: OscillatorParams,
    state: tuple[float, float, float, float],
    u: float,
    h: float,
    substeps: int,
) -> tuple[float, float, float, float]:
    """Advance the rig by ``substeps`` fine steps of size ``h`` under constant torque.

    Classical 4th-order one-step scheme, written out on scalars: the fine grid
    runs an order of magnitude above the control rate, and this loop dominates
    simulation cost.  Friction is evaluated at every stage (sign(0) = 0).
    """
    q1, q2, v1, v2 = state
    i1, i2, k, d = params.I1, params.I2, params.k, params.d
    cf = params.friction.magnitude
    h2 = 0.5 * h
    h6 = h / 6.0
    for _ in range(substeps):
        a1, b1 = accelerations(i1, i2, k, d, cf, q1, q2, v1, v2, u)
        q1b = q1 + h2 * v1
        q2b = q2 + h2 * v2
        v1b = v1 + h2 * a1
        v2b = v2 + h2 * b1
        a2, b2 = accelerations(i1, i2, k, d, cf, q1b, q2b, v1b, v2b, u)
        q1c = q1 + h2 * v1b
        q2c = q2 + h2 * v2b
        v1c = v1 + h2 * a2
        v2c = v2 + h2 * b2
        a3, b3 = accelerations(i1, i2, k, d, cf, q1c, q2c, v1c, v2c, u)
        q1d = q1 + h * v1c
        q2d = q2 + h * v2c
        v1d = v1 + h * a3
        v2d = v2 + h * b3
        a4, b4 = accelerations(i1, i2, k, d, cf, q1d, q2d, v1d, v2d, u)
        q1 += h6 * (v1 + 2.0 * (v1b + v1c) + v1d)
        q2 += h6 * (v2 + 2.0 * (v2b + v2c) + v2d)
        v1 += h6 * (a1 + 2.0 * (a2 + a3) + a4)
        v2 += h6 * (b1 + 2.0 * (b2 + b3) + b4)
    return q1, q2, v1, v2


class _Sensor:
    """Tick-rate measurement of the output velocity."""

    def __init__(self, model: MeasurementModel, dt: float, q1_0: float, v1_0: float, rng):
        self.model = model
        self.dt = dt
        self.rng = rng
        if not model.is_ideal:
            self._angle_prev = self._quantize(q1_0)
            self._filtered = v1_0
            tau = model.filter_time_constant
            self._alpha = dt / (tau + dt) if tau > 0.0 else 1.0

    def _quantize(self, angle: float) -> float:
        q = self.model.angle_quantum
        if q == 0.0:
            return angle
        return math.floor(angle / q) * q

    def sample(self, tick: int, q1: float, v1: float) -> float:
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


def config_echo(cfg: SimulationConfig) -> dict:
    """Flat, fully resolved key=value view of a config (embedded in file headers)."""
    echo = {
        "simulation.label": cfg.label,
        "simulation.mode": cfg.mode.name,
        "simulation.control_frequency": repr(cfg.control_frequency),
        "simulation.duration": repr(cfg.duration),
        "simulation.plant_substeps": str(cfg.plant_substeps),
        "simulation.seed": str(cfg.seed),
        "simulation.u_max": "" if cfg.u_max is None else repr(cfg.u_max),
        "simulation.initial_state": ";".join(repr(x) for x in cfg.initial_state),
        "plant.true.I1": repr(cfg.true_params.I1),
        "plant.true.I2": repr(cfg.true_params.I2),
        "plant.true.k": repr(cfg.true_params.k),
        "plant.true.d": repr(cfg.true_params.d),
        "plant.true.coulomb_friction": repr(cfg.true_params.friction.magnitude),
        "plant.nominal.I1": repr(cfg.nominal_params.I1),
        "plant.nominal.I2": repr(cfg.nominal_params.I2),
        "plant.nominal.k": repr(cfg.nominal_params.k),
        "plant.nominal.d": repr(cfg.nominal_params.d),
        "trajectory.y0": repr(cfg.trajectory.y0),
        "trajectory.yf": repr(cfg.trajectory.yf),
        "trajectory.t0": repr(cfg.trajectory.t0),
        "trajectory.tf": repr(cfg.trajectory.tf),
        "measurement.angle_quantum": repr(cfg.measurement.angle_quantum),
        "measurement.filter_time_constant": repr(cfg.measurement.filter_time_constant),
        "measurement.noise_std": repr(cfg.measurement.noise_std),
    }
    if cfg.mode.tuning is not None:
        echo["tuning.f_act"] = repr(cfg.mode.tuning.f_act)
        echo["tuning.f_fric"] = repr(cfg.mode.tuning.f_fric)
        source = cfg.feedforward_source
        echo["feedforward.source"] = "table" if source.table is not None else "online"
        echo["newton.max_iterations"] = str(source.newton.max_iterations)
        echo["newton.residual_tolerance"] = repr(source.newton.residual_tolerance)
    if cfg.mode.funnel is not None:
        echo["funnel.s"] = repr(cfg.mode.funnel.s)
        echo["funnel.q_decay"] = repr(cfg.mode.funnel.q_decay)
        echo["funnel.c"] = repr(cfg.mode.funnel.c)
    return echo


def format_echo(echo: dict) -> str:
    """One-line form of a config echo: sorted ``key=value`` pairs joined by ``|``."""
    return "|".join(f"{k}={v}" for k, v in sorted(echo.items()))


def run_simulation(config: SimulationConfig) -> Trace:
    """Run one sampled-data experiment and return its tick-level trace.

    Ticks run at ``t_k = k / control_frequency`` up to and including the
    horizon; the input computed at the final tick is recorded but no longer
    applied.  Identical configs (and seeds) give bit-identical traces.
    """
    config.validate()
    mode = config.mode
    traj = config.trajectory
    dt = 1.0 / config.control_frequency
    n_ticks = config.n_ticks
    n_rows = n_ticks + 1
    substeps = config.plant_substeps
    h = dt / substeps

    rng = np.random.default_rng(config.seed)
    q1, q2, v1, v2 = (float(x) for x in config.initial_state)
    sensor = _Sensor(config.measurement, dt, q1, v1, rng)

    stepper = None
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
    fine_rows: list[tuple] = []
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
                    except NewtonDiverged:
                        status = RunStatus("newton_diverged", at=t_k)
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
        if config.record_fine > 0:
            every = config.record_fine
            for j in range(substeps):
                q1, q2, v1, v2 = integrate_plant_tick(
                    config.true_params, (q1, q2, v1, v2), u, h, 1
                )
                if (j + 1) % every == 0 or j + 1 == substeps:
                    fine_rows.append((t_k + (j + 1) * h, q1, q2, v1, v2, u))
        else:
            q1, q2, v1, v2 = integrate_plant_tick(
                config.true_params, (q1, q2, v1, v2), u, h, substeps
            )

    fine = None
    if config.record_fine > 0 and fine_rows:
        arr = np.array(fine_rows)
        fine = {"t": arr[:, 0], "q1": arr[:, 1], "q2": arr[:, 2],
                "v1": arr[:, 3], "v2": arr[:, 4], "u": arr[:, 5]}

    return Trace(
        t=cols["t"][:rows],
        y_measured=cols["y_measured"][:rows],
        y_true=cols["y_true"][:rows],
        y_ref=cols["y_ref"][:rows],
        e=cols["e"][:rows],
        psi=cols["psi"][:rows],
        u_ffw=cols["u_ffw"][:rows],
        u_fb=cols["u_fb"][:rows],
        u=cols["u"][:rows],
        newton_iterations=newton_col[:rows],
        status=status,
        run_config=config_echo(config),
        wall_us=wall[:rows],
        fine=fine,
    )


def _run_one(config: SimulationConfig) -> SweepResult:
    try:
        trace = run_simulation(config)
    except (ValidationError, ValueError) as err:
        return SweepResult(config=config, error=str(err))
    result = SweepResult(config=config, trace=trace)
    if trace.status.completed:
        try:
            result.metrics = metrics_mod.report(trace, config.trajectory)
        except (ValidationError, ValueError) as err:
            result.error = str(err)
    else:
        result.error = f"run ended {trace.status.kind} at t={trace.status.at:.6g} s"
    return result


def run_sweep(configs, workers: int = 1) -> list[SweepResult]:
    """Run a batch of configs in order; per-config failures land in that entry only.

    Runs are serial: the work is pure Python that holds the interpreter lock,
    so a thread pool made sweeps slower.  ``workers`` must be 1.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1 (sweeps run serially), got {workers}")
    return [_run_one(cfg) for cfg in configs]


_TRACE_COLUMNS = (
    "t", "y_measured", "y_true", "y_ref", "e", "psi", "u_ffw", "u_fb", "u",
    "newton_iterations",
)


def _format_cell(value: float, as_int: bool = False) -> str:
    value = float(value)
    if math.isnan(value):
        return ""
    if as_int:
        return str(int(value))
    return repr(value)


def write_trace_csv(trace: Trace, path) -> None:
    """One row per control tick; header comments carry config and status."""
    lines = ["# twomass trace", f"# config: {format_echo(trace.run_config)}"]
    if trace.status.completed:
        lines.append("# status: completed")
    else:
        lines.append(f"# status: {trace.status.kind} at={trace.status.at!r}")
    lines.append(",".join(_TRACE_COLUMNS))
    arrays = [getattr(trace, name) for name in _TRACE_COLUMNS]
    for i in range(len(trace.t)):
        cells = [
            _format_cell(arr[i], as_int=(name == "newton_iterations"))
            for name, arr in zip(_TRACE_COLUMNS, arrays)
        ]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path) -> Trace:
    """Load a trace written by :func:`write_trace_csv` (tick series only)."""
    run_config: dict = {}
    status = RunStatus("completed")
    data: list[list[float]] = []
    header_seen = False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# config:"):
                for chunk in line[len("# config:"):].strip().split("|"):
                    if "=" in chunk:
                        key, value = chunk.split("=", 1)
                        run_config[key] = value
                continue
            if line.startswith("# status:"):
                body = line[len("# status:"):].strip()
                if body == "completed":
                    status = RunStatus("completed")
                else:
                    kind, _, at_part = body.partition(" at=")
                    try:
                        status = RunStatus(kind, at=float(at_part))
                    except ValueError:
                        raise ParseError(f"{path}: malformed status line {line!r}") from None
                continue
            if line.startswith("#"):
                continue
            if not header_seen:
                if line != ",".join(_TRACE_COLUMNS):
                    raise ValidationError(f"{path}: unexpected trace columns {line!r}")
                header_seen = True
                continue
            cells = line.split(",")
            if len(cells) != len(_TRACE_COLUMNS):
                raise ParseError(f"{path}: malformed trace row {line!r}")
            try:
                data.append([float(c) if c != "" else math.nan for c in cells])
            except ValueError:
                raise ParseError(f"{path}: malformed trace row {line!r}") from None
    if not header_seen:
        raise ValidationError(f"{path}: not a twomass trace file")
    arr = np.array(data) if data else np.empty((0, len(_TRACE_COLUMNS)))
    kwargs = {name: arr[:, i] for i, name in enumerate(_TRACE_COLUMNS)}
    return Trace(status=status, run_config=run_config, **kwargs)
