"""Inverse-model feedforward via servo constraints.

Instead of deriving an explicit inverse of the rig dynamics, the equations of
motion are appended with an output constraint that pins the first flywheel's
velocity to the reference.  The resulting differential-algebraic system is
marched forward with the implicit Euler scheme; each step solves a nonlinear
system in the five unknowns ``(q1, q2, v1, v2, u)`` at the new time with
Newton's method.  The torque component of the solution is the feedforward
input.

Discrete system per step (step size ``dt``, new time ``t``)::

    q_new = q_old + dt * v_new                          (2 kinematic eqs)
    v_new = v_old + dt * Minv (f(q_new, v_new) + B u)   (2 dynamic eqs)
    v1_new = y_ref(t)                                   (output constraint)

The inverse model is always the frictionless nominal rig: the unknown
friction is deliberately excluded and only compensated afterwards through
:func:`apply_tuning`.  For this model the discrete system is linear in the
unknowns, so Newton lands in one correction; the solver still runs the
generic iteration (with the documented cap) because that is the algorithm
under validation.

Unknown ordering is fixed as ``(q1, q2, v1, v2, u)``; iteration traces are
reproducible against it.  No damping or line search is used, which is moot
for a system linear in the unknowns.  The step runs once per control tick in
the online mode, so it is written out on five Python floats: the residual,
its scaled norm and the correction with the constant inverse Jacobian are
spelled out term by term, with no array or tuple built per iteration and no
function called.  The norm's ``abs`` and ``max`` are comparisons that keep
``max``'s rules: a NaN first term is the norm, a later NaN term is passed over.
So below the iteration cap a first term over the tolerance already decides a
correction, and the norm is formed in full only on an iteration that may end
the step, by converging or at the cap, the only ones that report it.  The warm
start is the stepper's ``state``, unpacked once as nested pairs, and the
step's constants are one flat tuple, unpacked once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import csvfile, trajectory
from .errors import InconsistentStart, NewtonDiverged, ParseError, ValidationError
from .plant import OscillatorParams
from .trajectory import TrajectorySpec

__all__ = [
    "NewtonOptions",
    "InverseModelState",
    "TuningFactors",
    "FeedforwardTable",
    "InverseModelStepper",
    "consistent_initialization",
    "solve_feedforward",
    "apply_tuning",
    "write_table_csv",
    "read_table_csv",
    "MAX_STEPS",
    "step_count",
]

# The longest time grid of a run or a table: 10**7 steps is 83 minutes at
# 2 kHz and about a gigabyte of trace columns.  A longer one is a config error.
MAX_STEPS = 10_000_000

# builds a step's InverseModelState without the NamedTuple's Python-level __new__
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class NewtonOptions:
    """Newton iteration settings.

    The residual tolerance applies to the scaled infinity norm: equation ``i``
    is divided by ``max(1, |z_i|)`` with ``z`` in the fixed unknown ordering.
    The tolerance default is tight on purpose: the system is linear in the
    unknowns, so one correction reaches rounding level and a loose tolerance
    would only hide bugs.
    """

    max_iterations: int = 10
    residual_tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0.0 < self.residual_tolerance < math.inf:
            raise ValidationError(
                f"residual_tolerance must be finite and > 0, got {self.residual_tolerance}"
            )


class InverseModelState(NamedTuple):
    """Inverse-model solution point: coordinates, velocities, torque, time."""

    q: tuple[float, float]
    v: tuple[float, float]
    u: float
    t: float


@dataclass(frozen=True)
class TuningFactors:
    """Actuator-side adaptation of the raw feedforward torque.

    ``f_act`` scales the torque (compensating an unidentified actuator gain)
    and ``f_fric`` adds a constant compensation torque.  The constant is added
    unconditionally, not gated on the sign of the motion, so it compensates
    friction for forward runs only.
    """

    f_act: float
    f_fric: float

    def __post_init__(self):
        if not (math.isfinite(self.f_act) and math.isfinite(self.f_fric)):
            raise ValidationError("tuning factors must be finite")


@dataclass(frozen=True)
class FeedforwardTable:
    """Feedforward torque ``u`` on the grid ``t = k * dt``: sample ``k`` is applied at tick ``k``.

    The table owns a read-only copy of ``u`` and derives ``t``, read-only too.
    ``meta`` is the file header's config echo (solver settings, plant and
    trajectory).  Newton iteration counts per step are kept for
    real-time-budget reporting; they are not part of the serialized artifact.
    """

    dt: float
    u: np.ndarray
    newton_iterations: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    t: np.ndarray = field(init=False)

    def __post_init__(self):
        u = np.array(self.u, dtype=float)
        if u.ndim != 1:
            raise ValidationError("table arrays must be 1-D and equally long")
        if not np.all(np.isfinite(u)):
            raise ValidationError("table torque samples must be finite")
        if not 0.0 < self.dt < math.inf:
            raise ValidationError(f"table spacing dt must be finite and > 0, got {self.dt!r}")
        t = np.arange(len(u)) * self.dt
        t.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u", u)

    def __len__(self) -> int:
        return len(self.u)


def step_count(steps: float, span: str, unit: str) -> int:
    """``steps`` rounded; a ValidationError naming ``span`` if not whole or above MAX_STEPS."""
    if not steps <= MAX_STEPS:
        raise ValidationError(f"{span} is {steps:.3g} {unit}, more than {MAX_STEPS}")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValidationError(f"{span} is not a whole number of {unit}")
    return round(steps)


class InverseModelStepper:
    """Marches the servo-constrained inverse model on a fixed grid.

    Holds the warm-start state between steps; one instance per solve (or per
    online controller).  Distinct instances are independent.  ``state`` is
    the point the next step starts from; a state assigned to it is checked
    only by the next :meth:`advance`, which raises before any iteration
    (``ValueError`` for a wrong length) if it does not unpack as
    ``((q1, q2), (v1, v2), u, t)``.  After each step,
    converged or failed, ``last_iterations`` and ``last_residual`` hold its
    Newton count and final scaled residual norm (NaN before the first step).
    """

    def __init__(
        self,
        params: OscillatorParams,
        spec: TrajectorySpec,
        dt: float,
        opts: NewtonOptions = NewtonOptions(),
    ):
        if not 0.0 < dt < math.inf:
            raise ValidationError(f"dt must be finite and > 0, got {dt}")
        self.spec = spec
        self.opts = opts
        self.state = consistent_initialization(params, spec)
        self.last_iterations = 0
        self.last_residual = math.nan
        # Unknowns z = (q1, q2, v1, v2, u); the Jacobian of the discrete
        # residual is constant for fixed dt, so invert it once.
        i1, i2, k, d = params.I1, params.I2, params.k, params.d
        jac = np.array(
            [
                [1.0, 0.0, -dt, 0.0, 0.0],
                [0.0, 1.0, 0.0, -dt, 0.0],
                [dt * k / i1, -dt * k / i1, 1.0 + dt * d / i1, -dt * d / i1, -dt / i1],
                [-dt * k / i2, dt * k / i2, -dt * d / i2, 1.0 + dt * d / i2, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0],
            ]
        )
        self._constants = (dt, k / i1, -(d / i1), k / i2, d / i2, 1.0 / i1,
                           *np.linalg.inv(jac).ravel().tolist())

    def advance(self, t_next: float, y_next: float | None = None) -> InverseModelState:
        """One implicit Euler step of the constrained system to ``t_next``.

        ``y_next`` is the reference at ``t_next``; when omitted it is
        evaluated here.  A caller that holds the reference column passes its
        sample, which :func:`trajectory.y_ref_samples` makes bit-equal.

        Newton on five local floats ``z = (q1, q2, v1, v2, u)`` from the
        previous point ``(p1, p2, p3, p4)``: the residual, its scaled infinity
        norm and the correction ``z - J^-1 r`` are written out term by term,
        each sum left to right (``sum()`` rounds differently across Python
        versions).  The warm start is ``state``, unpacked once as nested
        pairs, and each step assigns the state it returns; one flat tuple,
        unpacked once, holds ``dt``, the model coefficients (``di1`` negated,
        as the residual uses it) and the inverse Jacobian row by row, fixed
        at construction.  ``opts`` is read on every step.  The norm makes no
        call and equals the builtins' value: ``abs(r)`` is
        ``-r if r < 0.0 else r``, which keeps a ``-0.0`` that never reaches
        the norm (``r1`` is never ``-0.0``, as ``q1 - p1`` never is: ``q1``
        starts as ``p1``, a correction gives ``-0.0`` only from a ``q1`` of
        ``-0.0``, and ``x - x`` is ``0.0``; a later term replaces the norm
        only if greater, which ``-0.0`` never is), ``max(1.0, s)`` is
        ``s if s > 1.0 else 1.0``, and the outer ``max`` keeps its NaN rule:
        the first term stands unless a later one is greater.  So a NaN first
        term ends the iteration, and below the cap a first term over the
        tolerance decides a correction: terms 2 to 5 are formed, in order,
        only on an iteration that may end the step, by converging or at the
        cap, and each norm reported keeps its bits.  An end point that does
        not sum to a finite float raises :class:`NewtonDiverged`, as the cap
        does; every NaN norm ends there, and is reported through ``abs``,
        with no sign.  A raise leaves ``state`` as it was, and
        ``last_iterations`` and ``last_residual`` hold its own.
        """
        (p1, p2), (p3, p4), u, _ = self.state
        q1, q2, v1, v2 = p1, p2, p3, p4
        if y_next is None:
            y_next = trajectory.y_ref_at(self.spec, t_next)
        (
            dt, ki1, neg_di1, ki2, di2, inv_i1,
            a11, a12, a13, a14, a15,
            a21, a22, a23, a24, a25,
            a31, a32, a33, a34, a35,
            a41, a42, a43, a44, a45,
            a51, a52, a53, a54, a55,
        ) = self._constants
        opts = self.opts
        tolerance = opts.residual_tolerance
        max_iterations = opts.max_iterations
        iterations = 0
        while True:
            twist = q1 - q2
            slip = v1 - v2
            r1 = q1 - p1 - dt * v1
            r2 = q2 - p2 - dt * v2
            r3 = v1 - p3 - dt * (neg_di1 * slip - ki1 * twist + inv_i1 * u)
            r4 = v2 - p4 - dt * (di2 * slip + ki2 * twist)
            r5 = v1 - y_next
            # scaled infinity norm: equation i over max(1, |z_i|), compared
            # term by term; r1 is never -0.0, and a later term replaces the
            # norm only if greater, which a -0.0 never is
            s = -q1 if q1 < 0.0 else q1
            norm = (-r1 if r1 < 0.0 else r1) / (s if s > 1.0 else 1.0)
            # below the cap, a first term over the tolerance decides a correction
            if not (norm > tolerance and iterations < max_iterations):
                s = -q2 if q2 < 0.0 else q2
                x = (-r2 if r2 < 0.0 else r2) / (s if s > 1.0 else 1.0)
                if x > norm:
                    norm = x
                s = -v1 if v1 < 0.0 else v1
                x = (-r3 if r3 < 0.0 else r3) / (s if s > 1.0 else 1.0)
                if x > norm:
                    norm = x
                s = -v2 if v2 < 0.0 else v2
                x = (-r4 if r4 < 0.0 else r4) / (s if s > 1.0 else 1.0)
                if x > norm:
                    norm = x
                s = -u if u < 0.0 else u
                x = (-r5 if r5 < 0.0 else r5) / (s if s > 1.0 else 1.0)
                if x > norm:
                    norm = x
                if not norm > tolerance:
                    break
                if iterations >= max_iterations:
                    self.last_iterations = iterations
                    self.last_residual = norm
                    raise NewtonDiverged(t_next, norm, iterations)
            q1, q2, v1, v2, u = (
                q1 - (a11 * r1 + a12 * r2 + a13 * r3 + a14 * r4 + a15 * r5),
                q2 - (a21 * r1 + a22 * r2 + a23 * r3 + a24 * r4 + a25 * r5),
                v1 - (a31 * r1 + a32 * r2 + a33 * r3 + a34 * r4 + a35 * r5),
                v2 - (a41 * r1 + a42 * r2 + a43 * r3 + a44 * r4 + a45 * r5),
                u - (a51 * r1 + a52 * r2 + a53 * r3 + a54 * r4 + a55 * r5),
            )
            iterations += 1
        self.last_iterations = iterations
        self.last_residual = norm
        c = q1 + q2 + v1 + v2 + u
        if c - c != 0.0:  # a NaN or an infinity, even one the norm passed over
            self.last_residual = norm = abs(norm)  # every NaN norm ends here: abs clears its sign
            raise NewtonDiverged(t_next, norm, iterations)
        state = self.state = _new_tuple(InverseModelState, ((q1, q2), (v1, v2), u, t_next))
        return state


def consistent_initialization(params: OscillatorParams, spec: TrajectorySpec) -> InverseModelState:
    """Initial inverse-model values satisfying the output constraint at t = 0.

    Both flywheels spin at the initial reference with zero shaft twist; the
    initial torque covers the initial reference acceleration of flywheel 1.
    For a rest-to-rest reference this is the all-zero state with zero torque.
    """
    if not params.friction.is_none:
        raise ValidationError("inverse model requires the frictionless nominal rig")
    y_start = trajectory.y_ref_at(spec, 0.0)
    rate_start = trajectory.y_ref_derivative(spec, 0.0)
    u_start = params.I1 * rate_start
    if not (math.isfinite(y_start) and math.isfinite(u_start)):
        raise InconsistentStart(
            f"output constraint cannot be met at t=0: y_ref={y_start!r}, u={u_start!r}"
        )
    return InverseModelState(q=(0.0, 0.0), v=(y_start, y_start), u=u_start, t=0.0)


def solve_feedforward(
    params: OscillatorParams,
    spec: TrajectorySpec,
    dt: float,
    horizon: float,
    opts: NewtonOptions = NewtonOptions(),
) -> FeedforwardTable:
    """Precompute the feedforward torque on the grid ``0, dt, ..., horizon``.

    The reference column is built once on the grid and each step gets its
    sample, bit-equal to evaluating the reference at ``i * dt``.
    """
    if not 0.0 < horizon < math.inf:
        raise ValidationError(f"horizon must be finite and > 0, got {horizon}")
    stepper = InverseModelStepper(params, spec, dt, opts)
    n_steps = step_count(horizon / dt, f"horizon {horizon} s at dt {dt} s", "steps")
    times = np.arange(n_steps + 1) * dt
    y_ref = memoryview(trajectory.y_ref_samples(spec, times))
    torques = np.empty(n_steps + 1)
    iterations = np.zeros(n_steps + 1, dtype=int)
    torques[0] = stepper.state.u
    for i in range(1, n_steps + 1):
        state = stepper.advance(i * dt, y_ref[i])
        torques[i] = state.u
        iterations[i] = stepper.last_iterations
    meta = {
        "tolerance": repr(opts.residual_tolerance),
        "I1": repr(params.I1),
        "I2": repr(params.I2),
        "k": repr(params.k),
        "d": repr(params.d),
        "y0": repr(spec.y0),
        "yf": repr(spec.yf),
        "t0": repr(spec.t0),
        "tf": repr(spec.tf),
    }
    return FeedforwardTable(dt=dt, u=torques, newton_iterations=iterations, meta=meta)


def apply_tuning(u_ffw: float, factors: TuningFactors) -> float:
    """Actuator input from the raw feedforward torque."""
    return factors.f_act * u_ffw + factors.f_fric


_TABLE_COLUMNS = ("t", "u_ffw")


def write_table_csv(table: FeedforwardTable, path) -> None:
    """Serialize a table as two-column CSV; the header carries ``meta``, ``dt`` and the length."""
    meta = {**table.meta, "dt": repr(table.dt), "samples": str(len(table))}
    header = [("config", csvfile.format_echo(meta))]
    blocks = csvfile.format_rows([table.t, table.u])
    csvfile.write(path, "feedforward table", header, _TABLE_COLUMNS, blocks)


def read_table_csv(path) -> FeedforwardTable:
    """Load a table written by :func:`write_table_csv`, checking its grid; ``dt`` and ``samples`` leave ``meta``."""
    header, data = csvfile.read(path, "feedforward table", _TABLE_COLUMNS)
    meta = csvfile.parse_echo(header.get("config", ""), path)
    if "dt" not in meta:
        raise ValidationError(f"{path}: missing dt in table header")
    dt, samples = meta.pop("dt"), meta.pop("samples", None)
    try:
        dt = float(dt)
    except ValueError:
        raise ParseError(f"{path}: dt={dt!r} is not a number") from None
    if samples is not None and samples != str(len(data)):
        raise ValidationError(f"{path}: header says samples={samples}, file has {len(data)} rows")
    t = data[:, 0]
    try:
        table = FeedforwardTable(dt=dt, u=data[:, 1], meta=meta)
        if len(t) and not abs(t[0]) <= 1e-9 * dt:  # sample k is applied at tick k
            raise ValidationError(f"table grid starts at t = {t[0].item()!r}, not 0")
        if not np.allclose(np.diff(t), dt, rtol=1e-9, atol=1e-12):
            raise ValidationError("table grid must be uniform with spacing dt")
    except ValidationError as err:
        raise ValidationError(f"{path}: {err}") from None
    return table
