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
for a system linear in the unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import trajectory
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
]


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
        if not self.residual_tolerance > 0.0:
            raise ValidationError(
                f"residual_tolerance must be > 0, got {self.residual_tolerance}"
            )


@dataclass(frozen=True)
class InverseModelState:
    """Inverse-model solution point: coordinates, velocities, torque, time."""

    q: np.ndarray
    v: np.ndarray
    u: float
    t: float

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).reshape(2).copy()
        v = np.asarray(self.v, dtype=float).reshape(2).copy()
        q.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "v", v)


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
    """Feedforward torque sampled on a uniform grid.

    ``provenance`` records whether the samples came from a precomputed solve
    or were logged from an online (per-tick) computation.  Newton iteration
    counts per step are kept for real-time-budget reporting; they are not part
    of the serialized artifact.
    """

    dt: float
    t: np.ndarray
    u: np.ndarray
    provenance: str = "precomputed"
    newton_iterations: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if t.shape != u.shape or t.ndim != 1:
            raise ValidationError("table arrays must be 1-D and equally long")
        if not np.all(np.isfinite(u)):
            raise ValidationError("table torque samples must be finite")
        if len(t) > 1:
            spacing = np.diff(t)
            if not np.allclose(spacing, self.dt, rtol=1e-9, atol=1e-12):
                raise ValidationError("table grid must be uniform with spacing dt")
        t.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u", u)

    def __len__(self) -> int:
        return len(self.t)


def _validate_nominal(params: OscillatorParams) -> None:
    if not params.friction.is_none:
        raise ValidationError("inverse model requires the frictionless nominal rig")


class InverseModelStepper:
    """Marches the servo-constrained inverse model on a fixed grid.

    Holds the warm-start state between steps; one instance per solve (or per
    online controller).  Distinct instances are independent.
    """

    def __init__(
        self,
        params: OscillatorParams,
        spec: TrajectorySpec,
        dt: float,
        opts: NewtonOptions = NewtonOptions(),
    ):
        _validate_nominal(params)
        if not dt > 0.0:
            raise ValidationError(f"dt must be > 0, got {dt}")
        self.params = params
        self.spec = spec
        self.dt = dt
        self.opts = opts
        self.state = consistent_initialization(params, spec)
        self.last_iterations = 0
        # Unknowns z = (q1, q2, v1, v2, u); the Jacobian of the discrete
        # residual is constant for fixed dt, so factor it once.
        i1, i2, k, d = params.I1, params.I2, params.k, params.d
        self._coeffs = (k / i1, d / i1, k / i2, d / i2, 1.0 / i1)
        jac = np.array(
            [
                [1.0, 0.0, -dt, 0.0, 0.0],
                [0.0, 1.0, 0.0, -dt, 0.0],
                [dt * k / i1, -dt * k / i1, 1.0 + dt * d / i1, -dt * d / i1, -dt / i1],
                [-dt * k / i2, dt * k / i2, -dt * d / i2, 1.0 + dt * d / i2, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0],
            ]
        )
        self._jac = jac
        self._jac_inv = np.linalg.inv(jac)

    def _residual(self, z: np.ndarray, prev: np.ndarray, y_ref_next: float) -> np.ndarray:
        q1, q2, v1, v2, u = z
        ki1, di1, ki2, di2, inv_i1 = self._coeffs
        dt = self.dt
        twist = q1 - q2
        slip = v1 - v2
        return np.array(
            [
                q1 - prev[0] - dt * v1,
                q2 - prev[1] - dt * v2,
                v1 - prev[2] - dt * (-di1 * slip - ki1 * twist + inv_i1 * u),
                v2 - prev[3] - dt * (di2 * slip + ki2 * twist),
                v1 - y_ref_next,
            ]
        )

    @staticmethod
    def _scaled_norm(residual: np.ndarray, z: np.ndarray) -> float:
        scale = np.maximum(1.0, np.abs(z))
        return float(np.max(np.abs(residual) / scale))

    def advance(self, t_next: float) -> InverseModelState:
        """One implicit Euler step of the constrained system to ``t_next``."""
        prev = self.state
        prev_vec = np.array([prev.q[0], prev.q[1], prev.v[0], prev.v[1]])
        z = np.array([prev.q[0], prev.q[1], prev.v[0], prev.v[1], prev.u])
        y_next = trajectory.y_ref_at(self.spec, t_next)
        opts = self.opts
        r = self._residual(z, prev_vec, y_next)
        iterations = 0
        while self._scaled_norm(r, z) > opts.residual_tolerance:
            if iterations >= opts.max_iterations:
                raise NewtonDiverged(t_next, self._scaled_norm(r, z), iterations)
            z = z - self._jac_inv @ r
            iterations += 1
            r = self._residual(z, prev_vec, y_next)
        self.last_iterations = iterations
        self.state = InverseModelState(q=z[:2], v=z[2:4], u=float(z[4]), t=t_next)
        return self.state


def consistent_initialization(params: OscillatorParams, spec: TrajectorySpec) -> InverseModelState:
    """Initial inverse-model values satisfying the output constraint at t = 0.

    Both flywheels spin at the initial reference with zero shaft twist; the
    initial torque covers the initial reference acceleration of flywheel 1.
    For a rest-to-rest reference this is the all-zero state with zero torque.
    """
    _validate_nominal(params)
    y_start = trajectory.y_ref_at(spec, 0.0)
    rate_start = trajectory.y_ref_derivative(spec, 0.0)
    u_start = params.I1 * rate_start
    if not (math.isfinite(y_start) and math.isfinite(u_start)):
        raise InconsistentStart(
            f"output constraint cannot be met at t=0: y_ref={y_start!r}, u={u_start!r}"
        )
    return InverseModelState(
        q=np.zeros(2), v=np.array([y_start, y_start]), u=u_start, t=0.0
    )


def solve_feedforward(
    params: OscillatorParams,
    spec: TrajectorySpec,
    dt: float,
    horizon: float,
    opts: NewtonOptions = NewtonOptions(),
) -> FeedforwardTable:
    """Precompute the feedforward torque on the grid ``0, dt, ..., horizon``."""
    if not horizon > 0.0:
        raise ValidationError(f"horizon must be > 0, got {horizon}")
    stepper = InverseModelStepper(params, spec, dt, opts)
    n_steps = round(horizon / dt)
    torques = np.empty(n_steps + 1)
    iterations = np.zeros(n_steps + 1, dtype=int)
    torques[0] = stepper.state.u
    for i in range(1, n_steps + 1):
        try:
            state = stepper.advance(i * dt)
        except NewtonDiverged as err:
            err.step_index = i
            raise
        torques[i] = state.u
        iterations[i] = stepper.last_iterations
    times = np.arange(n_steps + 1) * dt
    meta = {
        "provenance": "precomputed",
        "dt": repr(dt),
        "samples": str(n_steps + 1),
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
    return FeedforwardTable(
        dt=dt, t=times, u=torques, provenance="precomputed",
        newton_iterations=iterations, meta=meta,
    )


def apply_tuning(u_ffw: float, factors: TuningFactors) -> float:
    """Actuator input from the raw feedforward torque."""
    return factors.f_act * u_ffw + factors.f_fric


def write_table_csv(table: FeedforwardTable, path) -> None:
    """Serialize a table as two-column CSV with a header comment block."""
    lines = ["# twomass feedforward table"]
    meta = dict(table.meta)
    meta.setdefault("provenance", table.provenance)
    meta.setdefault("dt", repr(table.dt))
    meta.setdefault("samples", str(len(table)))
    lines.append("# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    lines.append("t,u_ffw")
    for t, u in zip(table.t, table.u):
        lines.append(f"{float(t)!r},{float(u)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table_csv(path) -> FeedforwardTable:
    """Load a table written by :func:`write_table_csv`."""
    meta: dict = {}
    times: list[float] = []
    torques: list[float] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line == "t,u_ffw":
                continue
            if line.startswith("#"):
                for chunk in line[1:].split():
                    if "=" in chunk:
                        key, value = chunk.split("=", 1)
                        meta[key] = value
                continue
            try:
                t_str, u_str = line.split(",")
                times.append(float(t_str))
                torques.append(float(u_str))
            except ValueError:
                raise ParseError(f"{path}: bad table row {line!r}") from None
    if "dt" not in meta:
        raise ValidationError(f"{path}: missing dt in table header")
    try:
        dt = float(meta["dt"])
    except ValueError:
        raise ParseError(f"{path}: dt={meta['dt']!r} is not a number") from None
    return FeedforwardTable(
        dt=dt,
        t=np.array(times),
        u=np.array(torques),
        provenance=meta.get("provenance", "precomputed"),
        meta=meta,
    )
