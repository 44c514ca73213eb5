"""Sampled-data closed loop: the plant advanced exactly under a zero-order hold.

The controller updates its output at the control-loop frequency; between
ticks the input is held constant.  The "true" rig (which, unlike the
controller's nominal model, carries Coulomb friction) is linear in each
friction mode, and every tick follows the stick-slip (Filippov) solution
exactly:

* a slip tick, where the sign of ``v1`` holds, is the step
  ``x+ = Phi x + Gam (u + f)``;
* a stuck tick, where flywheel 1 rests and friction can hold it, keeps
  ``q1`` and ``v1 = 0`` and advances flywheel 2 on the shaft by a 2x2 matrix;
* an event tick, where friction switches, is split at each root-located
  event into exact segments.

Each mode's motion is written once, as the Taylor series of :func:`_series`:
event ticks sum it directly, and :func:`step_matrices` builds both matrices
from its flows once per run.  The trace counts stuck and event ticks.  The
plant stands in for continuous hardware and must be much more accurate than
the controller's own discretization.

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
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from . import csvfile
from . import metrics as metrics_mod
from . import trajectory as trajectory_mod
from .errors import FunnelViolation, NewtonDiverged, ParseError, ValidationError
from .feedback import FunnelSpec, funnel_law, psi
from .feedforward import (
    MAX_STEPS,
    FeedforwardTable,
    InverseModelStepper,
    NewtonOptions,
    TuningFactors,
    apply_tuning,
)
from .plant import OscillatorParams
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
    "step_matrices",
    "SLIP",
    "STUCK",
    "EVENT",
    "CONFIG_FIELDS",
    "ConfigField",
    "config_echo",
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
        fields = (self.angle_quantum, self.filter_time_constant, self.noise_std)
        if not all(0.0 <= x < math.inf for x in fields):
            raise ValidationError("measurement model fields must be finite and >= 0")

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
    # Kept so that older callers and INI files still load: validated, but the
    # plant step is exact and takes no substeps.
    plant_substeps: int = 10
    measurement: MeasurementModel = MeasurementModel()
    feedforward_source: FeedforwardSource = FeedforwardSource()
    seed: int = 0
    u_max: float | None = None
    initial_state: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def validate(self) -> None:
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
        ticks = self.duration * self.control_frequency
        if not ticks <= MAX_STEPS:
            raise ValidationError(
                f"duration {self.duration} s at {self.control_frequency} Hz is "
                f"{ticks:.3g} control ticks, more than {MAX_STEPS}"
            )
        if abs(ticks - round(ticks)) > 1e-9 * ticks:
            raise ValidationError(
                f"duration {self.duration} s is not a whole number of control ticks "
                f"at {self.control_frequency} Hz"
            )
        tick, p = 1.0 / self.control_frequency, self.true_params
        pieces = _rate(p) * tick  # step_matrices and event ticks walk ceil(pieces) series pieces
        if not pieces <= 1000.0:  # the presets ask for at most 0.023
            raise ValidationError(
                f"true plant I1={p.I1} I2={p.I2} k={p.k} d={p.d} is too fast for the control "
                f"tick {tick} s: {pieces:.6g} series pieces per tick, more than 1000"
            )
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
    mode hold NaN.  ``e`` is the measured error, the quantity the controller
    acts on.  ``wall_us`` (controller compute time per tick, microseconds),
    ``plant_stuck_ticks`` (plant steps with flywheel 1 stuck throughout) and
    ``plant_events`` (plant steps in which friction switched) are diagnostic
    only and never serialized, so files stay deterministic.

    The plant-free columns ``t``, ``y_ref`` and ``psi`` are read-only: a
    sweep's runs with bit-equal grids, references and funnels share one
    array each.  Copy one before writing into it.
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


@dataclass
class SweepResult:
    """One sweep entry: the run, its metrics, or the error that prevented them."""

    config: SimulationConfig
    trace: Trace | None = None
    metrics: "metrics_mod.MetricsReport | None" = None
    error: str | None = None


# Tick kinds returned by integrate_plant_tick.
SLIP, STUCK, EVENT = 0, 1, 2
# Mode segments an event tick follows before it stops looking for events.
_MAX_SEGMENTS = 8


def integrate_plant_tick(
    params: OscillatorParams,
    zoh: tuple,
    stick: tuple,
    state: tuple[float, float, float, float],
    u: float,
    dt: float,
) -> tuple[tuple[float, float, float, float], int]:
    """Advance the rig by one control tick of length ``dt`` under the held torque ``u``.

    ``zoh`` and ``stick`` are the run's :func:`step_matrices` for ``dt``.
    Returns the next state and the tick's kind:

    * ``SLIP``: ``v1`` keeps one sign through the tick (or the rig has no
      friction), so the friction torque ``f = -cf sign(v1)`` is constant and
      ``x+ = Phi x + Gam (u + f)`` is exact.
    * ``STUCK``: ``v1`` is exactly zero and the torque that holds flywheel 1,
      ``u - shaft``, stays within ``cf`` at both ends.  ``q1`` and ``v1`` are
      kept bit for bit and ``(q2 - q1, v2)`` advances by ``S``.
    * ``EVENT``: friction switches inside the tick (a zero crossing of
      ``v1``, a breakaway, or a start from rest); see :func:`_event_tick`.
    """
    q1, q2, v1, v2 = state
    cf = params.friction.magnitude
    if v1 != 0.0 or cf == 0.0:
        (p00, p01, p02, p03, g0, p10, p11, p12, p13, g1,
         p20, p21, p22, p23, g2, p30, p31, p32, p33, g3) = zoh
        w = u - cf if v1 > 0.0 else u + cf
        v1n = p20 * q1 + p21 * q2 + p22 * v1 + p23 * v2 + g2 * w
        # v1 keeps its sign at both ends.  While v1' is monotone over the
        # tick, v1 cannot reach zero in between if v1 + v1' dt, with the
        # start acceleration v1', keeps that sign too.
        reach = v1 + (w - (params.k * (q1 - q2) + params.d * (v1 - v2))) * dt / params.I1
        if cf == 0.0 or ((v1n > 0.0 < reach) if v1 > 0.0 else (v1n < 0.0 > reach)):
            return (
                p00 * q1 + p01 * q2 + p02 * v1 + p03 * v2 + g0 * w,
                p10 * q1 + p11 * q2 + p12 * v1 + p13 * v2 + g1 * w,
                v1n,
                p30 * q1 + p31 * q2 + p32 * v1 + p33 * v2 + g3 * w,
            ), SLIP
    elif abs(u - (params.k * (q1 - q2) + params.d * (v1 - v2))) <= cf:
        s00, s01, s10, s11 = stick
        z = q2 - q1
        q2n = q1 + (s00 * z + s01 * v2)
        v2n = s10 * z + s11 * v2
        if abs(u - (params.k * (q1 - q2n) + params.d * (v1 - v2n))) <= cf:
            return (q1, q2n, v1, v2n), STUCK
    state, events = _event_tick(params, state, u, dt)
    return state, (EVENT if events or v1 == 0.0 else SLIP)


def _event_tick(params, state, u, dt):
    """A tick in which friction may switch, as a chain of exact mode segments.

    A segment follows one mode: slip in direction ``s`` (friction ``-cf s``)
    or stick (``q1`` held, ``v1 = 0``).  Its solution is the Taylor series of
    :func:`_series`.  A segment ends at the first event:

    * slip: ``v1`` reaches zero.  The rig then sticks if ``|u - shaft| <= cf``
      and slips the other way otherwise.
    * stick: ``|u - shaft|`` reaches ``cf`` (breakaway).  The rig then slips
      towards ``u - shaft``.

    Series run at most ``1 / rho`` seconds, where ``rho`` bounds the twist
    mode's rate, so ``v1`` has at most one extremum on each; a longer segment
    continues from the end of the last series.  An event shows as a sign
    change of ``cf - |u - shaft|``, or of ``s v1`` between the ends or at the
    extremum, and :func:`_root` locates it on the series.  A slip from rest
    that cannot start becomes a stick.  After ``_MAX_SEGMENTS - 1`` events the
    rest of the tick follows its mode unwatched.  Returns the next state and
    the number of events.
    """
    k, d = params.k, params.d
    cf = params.friction.magnitude
    rho = _rate(params)
    piece = 1.0 / rho if rho > 0.0 else math.inf
    x, left, forced = state, dt, None
    for events in range(_MAX_SEGMENTS):
        q1, q2, v1, v2 = x
        if v1 != 0.0:
            s = 1.0 if v1 > 0.0 else -1.0
        elif forced is not None:
            s = forced
        else:
            slack = u - (k * (q1 - q2) + d * (v1 - v2))
            s = 0.0 if abs(slack) <= cf else math.copysign(1.0, slack)
        watch = events < _MAX_SEGMENTS - 1
        while left > 0.0:
            h = min(left, piece)
            terms = _series(params, x, u - s * cf, s, h, rho * h)
            end = _value(terms, 1.0)
            if watch and s:
                # s v1 must stay > 0; from rest, v1 = f g(f) and g must
                poly = [s * a[2] for a in terms[1 if x[2] == 0.0 else 0:]]
                span = _fall(poly)
                if span:
                    break
            elif watch:
                slack = u - (k * (end[0] - end[1]) + d * (end[2] - end[3]))
                if abs(slack) > cf:
                    break
            x = end
            left -= h
        else:
            return x, events
        if s:
            # v1 reaches zero within [0, span]
            f = span * _root([c * span**n for n, c in enumerate(poly)])
            q1, q2, _, v2 = _value(terms, f)
            x, forced = (q1, q2, 0.0, v2), (0.0 if f == 0.0 else None)
        else:
            # the holding torque u - shaft reaches the band edge on its side
            side = math.copysign(1.0, slack)
            poly = [side * (k * (a0 - a1) + d * (a2 - a3)) for a0, a1, a2, a3 in terms]
            poly[0] += cf - side * u
            f = _root(poly)
            x, forced = _value(terms, f), side
        left -= f * h


def _fall(poly):
    """Where ``p(f) = sum poly[n] f**n`` has fallen to ``<= 0`` on ``[0, 1]``, or 0 if nowhere.

    Returns 1 if ``p(1) < 0``; else the minimum of ``p``, when ``p`` falls at
    0 and rises at 1 and its one minimum between is ``<= 0``.
    """
    if _polyval(poly, 1.0)[0] < 0.0:
        return 1.0
    slope = [-n * c for n, c in enumerate(poly)][1:]
    if slope and slope[0] > 0.0 > _polyval(slope, 1.0)[0]:
        low = _root(slope)
        if _polyval(poly, low)[0] <= 0.0:
            return low
    return 0.0


def _rate(params):
    """``sqrt(k mu) + d mu`` with ``mu = 1/I1 + 1/I2``: a bound on the twist mode's rate."""
    mu = 1.0 / params.I1 + 1.0 / params.I2
    return math.sqrt(params.k * mu) + params.d * mu


def step_matrices(params: OscillatorParams, dt: float) -> tuple[tuple, tuple]:
    """The exact slip and stick steps of length ``dt``, row-major as flat float tuples.

    ``zoh`` is ``[Phi | Gam]`` (20 floats): ``x+ = Phi x + Gam w`` while the
    net torque ``w = u - cf sign(v1)`` on flywheel 1 is held.  ``stick`` is
    ``S`` (4 floats): ``(q2 - q1, v2)+ = S (q2 - q1, v2)`` while flywheel 1
    sticks.  Their columns are mode flows of :func:`_series`: ``Phi`` the slip
    flow of the unit states under ``w = 0``, ``Gam`` the slip flow from rest
    under ``w = 1``, ``S`` the stick flow of a unit twist and a unit ``v2``.
    Each flow runs ``ceil(rho dt)`` pieces, the ``1 / rho`` bound of
    :func:`_event_tick`.
    """
    rho = _rate(params)
    pieces = max(1, math.ceil(rho * dt))
    h = dt / pieces

    def flow(x, w, s):
        for _ in range(pieces):
            x = _value(_series(params, x, w, s, h, rho * h), 1.0)
        return x

    unit = [tuple(float(i == j) for j in range(4)) for i in range(4)]
    columns = [flow(e, 0.0, 1.0) for e in unit] + [flow((0.0,) * 4, 1.0, 1.0)]
    twist, speed = flow(unit[1], 0.0, 0.0), flow(unit[3], 0.0, 0.0)
    zoh = tuple(column[i] for i in range(4) for column in columns)
    return zoh, (twist[1], speed[1], twist[3], speed[3])


def _series(params, x, w, s, h, rho_h):
    """Taylor terms ``a_n`` of one mode's solution from ``x``: ``x(f h) = sum a_n f**n``.

    ``s`` is nonzero for slip, where ``w`` is the net torque on flywheel 1
    (input plus friction), or 0 for stick, where ``q1`` and ``v1`` are held
    and ``w`` is unused.  The terms run to the order ``N >= 2`` at
    which ``(rho h)**(N + 1) / (N + 1)!`` falls below ``2**-60``; the rigid
    mode is exact from order 2.
    """
    i1, i2, k, d = params.I1, params.I2, params.k, params.d
    q1, q2, v1, v2 = x
    shaft = k * (q1 - q2) + d * (v1 - v2)
    if s:
        a = (v1 * h, v2 * h, (w - shaft) / i1 * h, shaft / i2 * h)
    else:
        a = (0.0, v2 * h, 0.0, shaft / i2 * h)
    terms = [x, a]
    n, bound = 2, rho_h ** 3 / 6.0
    while True:
        p1, p2, r1, r2 = a
        shaft = k * (p1 - p2) + d * (r1 - r2)
        c = h / n
        if s:
            a = (r1 * c, r2 * c, -shaft / i1 * c, shaft / i2 * c)
        else:
            a = (0.0, r2 * c, 0.0, shaft / i2 * c)
        terms.append(a)
        if bound <= 2.0**-60:
            return terms
        n += 1
        bound *= rho_h / (n + 1)


def _value(terms, f):
    """The state ``sum a_n f**n`` of a series from :func:`_series` (Horner)."""
    q1 = q2 = v1 = v2 = 0.0
    for a0, a1, a2, a3 in reversed(terms):
        q1 = q1 * f + a0
        q2 = q2 * f + a1
        v1 = v1 * f + a2
        v2 = v2 * f + a3
    return q1, q2, v1, v2


def _polyval(poly, f):
    """``p(f) = sum poly[n] f**n`` and ``p'(f)``, by Horner's rule."""
    val = der = 0.0
    for c in reversed(poly):
        der = der * f + val
        val = val * f + c
    return val, der


def _root(poly):
    """A root in ``[0, 1]`` of ``p(f) = sum poly[n] f**n``, given ``p(1) < 0``; 0 if ``p(0) <= 0``.

    Newton's method from the secant point, kept inside the bracket that each
    iterate shrinks; a step that leaves it bisects instead.
    """
    p0 = poly[0]
    if p0 <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    f = p0 / (p0 - _polyval(poly, 1.0)[0])
    for _ in range(64):
        val, der = _polyval(poly, f)
        if val > 0.0:
            lo = f
        elif val < 0.0:
            hi = f
        else:
            return f
        nxt = f - val / der if der else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt == f:
            return f
        f = nxt
    return f


class _Sensor:
    """Tick-rate encoder measurement of the output velocity.

    An ideal sensor needs none: the loop reads ``v1`` itself.  The velocity
    noise does not depend on the plant, so all of a run's draws are made up
    front, one per tick; they are the draws a per-tick ``standard_normal()``
    would make, in the same order.
    """

    def __init__(self, model: MeasurementModel, dt: float, n_rows: int, q1_0: float,
                 v1_0: float, rng):
        self.quantum = model.angle_quantum
        self.dt = dt
        self._angle_prev = self._quantize(q1_0)
        self._filtered = v1_0
        tau = model.filter_time_constant
        self._alpha = dt / (tau + dt) if tau > 0.0 else 1.0
        self._noise = None
        if model.noise_std > 0.0:
            self._noise = memoryview(model.noise_std * rng.standard_normal(n_rows))

    def _quantize(self, angle: float) -> float:
        q = self.quantum
        if q == 0.0:
            return angle
        return math.floor(angle / q) * q

    def sample(self, tick: int, q1: float) -> float:
        if tick:
            angle = self._quantize(q1)
            raw = (angle - self._angle_prev) / self.dt
            self._angle_prev = angle
            self._filtered += self._alpha * (raw - self._filtered)
        if self._noise is None:
            return self._filtered
        return self._filtered + self._noise[tick]


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

    The columns that do not depend on the plant are built before the loop.
    The tick times and the reference come from :func:`_reference_columns`,
    the funnel width from :func:`_psi_column`: read-only arrays that every
    run with bit-equal inputs shares, so a sweep builds them once per grid,
    reference and funnel.  A table's tuned torque is built per run.  The loop
    samples, runs the controller and steps the plant, storing into the
    float64 columns through memoryviews; ``e`` is one subtraction after it.
    """
    config.validate()
    tuning, funnel, u_max = config.mode.tuning, config.mode.funnel, config.u_max
    dt = 1.0 / config.control_frequency
    n_ticks = config.n_ticks
    n_rows = n_ticks + 1
    plant = config.true_params
    zoh, stick = step_matrices(plant, dt)
    kinds = [0, 0, 0]  # ticks per SLIP, STUCK, EVENT

    q1, q2, v1, v2 = (float(x) for x in config.initial_state)
    sample = None
    if not config.measurement.is_ideal:
        rng = np.random.default_rng(config.seed)
        sample = _Sensor(config.measurement, dt, n_rows, q1, v1, rng).sample

    t, y_ref = _reference_columns(config.trajectory, dt, n_rows)
    (psi_col,) = _psi_column(funnel, dt, n_rows)
    y_meas, y_true, u_ffw_col, u_fb_col, u_col, newton_col = (
        np.full(n_rows, np.nan) for _ in range(6)
    )
    wall = np.zeros(n_rows)
    stepper = None
    if tuning is not None:
        source = config.feedforward_source
        if source.is_online:
            stepper = InverseModelStepper(
                config.nominal_params, config.trajectory, dt, source.newton
            )
            u_ffw_col[0] = apply_tuning(stepper.state.u, tuning)
            newton_col[0] = 0.0
        else:
            u_ffw_col[:] = apply_tuning(np.asarray(source.table.u[:n_rows], dtype=float), tuning)

    y_ref_v, psi_v, ffw_v, fb_v, u_v, newton_v, wall_v, meas_v, true_v = map(
        memoryview, (y_ref, psi_col, u_ffw_col, u_fb_col, u_col, newton_col, wall, y_meas, y_true)
    )
    perf = time.perf_counter
    status = RunStatus("completed")
    # A branch that is off adds +0.0, so a lone -0.0 sums to 0.0.
    u_ffw = u_fb = 0.0
    for k in range(n_rows):
        y = v1 if sample is None else sample(k, q1)
        meas_v[k] = y
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
                    if funnel is not None:
                        # not evaluated at this tick: mark a copy, the shared column stays whole
                        psi_col = psi_col.copy()
                        psi_col[k] = math.nan
                        psi_col.flags.writeable = False
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
    )


def _shared(build):
    """``build(spec, dt, n_rows)`` memoized for its most recent arguments only.

    Keys are exact to the bit: ``repr`` tells ``-0.0`` from ``0.0`` (a
    validated spec holds no NaN), where the spec's own equality does not.
    The arrays built are made read-only, so every run that gets them can
    share them.  Runs on one grid with one reference or funnel are adjacent
    in a sweep, so one entry is enough.
    """
    last = (None, None)  # (key, arrays), replaced whole

    @functools.wraps(build)
    def cached(spec, dt, n_rows):
        nonlocal last
        key = (repr(spec), dt, n_rows)
        held_key, arrays = last
        if held_key != key:
            arrays = build(spec, dt, n_rows)
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
def _psi_column(funnel: FunnelSpec | None, dt: float, n_rows: int):
    """The funnel width at each tick time ``k dt``; NaN throughout without a funnel."""
    if funnel is None:
        return (np.full(n_rows, np.nan),)
    return (np.fromiter((psi(funnel, k * dt) for k in range(n_rows)), float, n_rows),)


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
_INT_COLUMNS = (_TRACE_COLUMNS.index("newton_iterations"),)
# the plant-free columns, which repeat from run to run of a sweep
_MEMO_COLUMNS = tuple(_TRACE_COLUMNS.index(name) for name in ("t", "y_ref", "psi"))


def write_trace_csv(trace: Trace, path) -> None:
    """One row per control tick; the header carries the config echo and the status."""
    status = trace.status
    header = [
        ("config", csvfile.format_echo(trace.run_config)),
        ("status", "completed" if status.completed else f"{status.kind} at={status.at!r}"),
    ]
    arrays = [getattr(trace, name) for name in _TRACE_COLUMNS]
    rows = csvfile.format_rows(arrays, _INT_COLUMNS, _MEMO_COLUMNS)
    csvfile.write(path, "trace", header, _TRACE_COLUMNS, rows)


def read_trace_csv(path) -> Trace:
    """Load a trace written by :func:`write_trace_csv` (tick series only)."""
    header, data = csvfile.read(path, "trace", _TRACE_COLUMNS)
    status = RunStatus("completed")
    body = header.get("status", "completed")
    if body != "completed":
        kind, _, at = body.partition(" at=")
        try:
            status = RunStatus(kind, at=float(at))
        except ValueError:
            raise ParseError(f"{path}: malformed status line {body!r}") from None
    columns = {name: data[:, i] for i, name in enumerate(_TRACE_COLUMNS)}
    run_config = csvfile.parse_echo(header.get("config", ""))
    return Trace(status=status, run_config=run_config, **columns)
