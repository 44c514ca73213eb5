"""Two-flywheel torsional oscillator model and its input-output analysis.

The rig consists of two rigid flywheels (inertias ``I1``, ``I2``) joined by an
elastic shaft modelled as a linear torsional spring-damper (``k``, ``d``).  A
motor torque ``u`` acts on flywheel 1, which also carries a Coulomb friction
torque.  The controlled output is the angular velocity of flywheel 1.

Equations of motion (angles ``phi1``, ``phi2``)::

    I1*ddphi1 = -d*(dphi1 - dphi2) - k*(phi1 - phi2) + F_fric(dphi1) + u
    I2*ddphi2 =  d*(dphi1 - dphi2) + k*(phi1 - phi2)

This module is the one description of the rig, on plain floats: its
parameters, its input-output split and its motion in time.  The split
certifies that high-gain output feedback is applicable: after removing the
rigid-body mode, the frictionless dynamics split into the output channel and
a two-dimensional internal subsystem (shaft deflection and second-flywheel
speed), ``ydot = R y + S eta + Gamma u`` and ``etadot = Q eta + P y``.  The
verdict reads its eigenvalues from ``Q``, which must have negative real part.

The motion advances one control tick at a time under a held torque.  The rig
is linear in each friction mode, and every tick follows the stick-slip
(Filippov) solution exactly:

* a slip tick, where the sign of ``v1`` holds, is the step
  ``x+ = Phi x + Gam (u + f)``;
* a stuck tick, where flywheel 1 rests and friction can hold it, keeps
  ``q1`` and ``v1 = 0`` and advances flywheel 2 on the shaft by a 2x2 matrix;
* an event tick, where friction switches, is split at each root-located
  event into exact segments.

Each mode's motion is written once, as the Taylor series of :func:`_series`:
event ticks sum it directly, and :func:`tick_constants` builds both matrices
from its flows once per run, into the one flat tuple of per-run constants
that :func:`integrate_plant_tick` takes beside the state's four floats.  The
plant stands in for continuous hardware and must be much more accurate than
the controller's own discretization.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import ValidationError

__all__ = [
    "FrictionModel",
    "FRICTIONLESS",
    "OscillatorParams",
    "ReducedRealization",
    "MinimumPhaseReport",
    "reduced_realization",
    "check_minimum_phase",
    "SLIP",
    "STUCK",
    "EVENT",
    "integrate_plant_tick",
    "tick_constants",
    "rate_bound",
]


@dataclass(frozen=True)
class FrictionModel:
    """Coulomb friction torque acting on flywheel 1.

    A magnitude of zero disables friction.  Static and kinetic levels are
    equal: while flywheel 1 slips the torque is ``-magnitude sign(v1)``; at
    rest it is whatever holds the flywheel, as long as that needs at most
    ``magnitude`` (the Filippov solution of the Coulomb law).  So the
    simulator does dwell exactly at ``v1 = 0`` while the flywheel sticks.
    """

    magnitude: float = 0.0

    def __post_init__(self):
        if not (self.magnitude >= 0.0 and math.isfinite(self.magnitude)):
            raise ValidationError(f"Coulomb friction magnitude must be >= 0, got {self.magnitude}")

    @property
    def is_none(self) -> bool:
        return self.magnitude == 0.0


FRICTIONLESS = FrictionModel(0.0)


@dataclass(frozen=True)
class OscillatorParams:
    """Physical constants of the rig.

    I1, I2  rotational inertias (kg*m^2), strictly positive
    k       torsional stiffness of the shaft (N*m per rad of twist)
    d       torsional damping of the shaft (N*m*s per rad)
    friction  Coulomb model for flywheel 1

    The data sheet for the rig labels ``k`` in N*m and ``d`` in N*m/s;
    dimensional analysis of the equations of motion requires the per-radian
    units above.  The numeric values are used as-is.
    """

    I1: float
    I2: float
    k: float
    d: float
    friction: FrictionModel = field(default_factory=FrictionModel)

    def __post_init__(self):
        if not (self.I1 > 0.0 and math.isfinite(self.I1)):
            raise ValidationError(f"I1 must be > 0, got {self.I1}")
        if not (self.I2 > 0.0 and math.isfinite(self.I2)):
            raise ValidationError(f"I2 must be > 0, got {self.I2}")
        if not (self.k >= 0.0 and math.isfinite(self.k)):
            raise ValidationError(f"k must be >= 0, got {self.k}")
        if not (self.d >= 0.0 and math.isfinite(self.d)):
            raise ValidationError(f"d must be >= 0, got {self.d}")


@dataclass(frozen=True)
class ReducedRealization:
    """The rig's input-output split after removing the rigid-body mode.

    With the output ``y = dphi1`` and the internal state ``eta = (-dphi,
    dphi2)``, where ``dphi = phi1 - phi2`` is the shaft twist::

        ydot = R y + S eta + Gamma u,   etadot = Q eta + P y

    in plain floats: ``S`` and ``P`` are pairs, ``Q`` is a 2x2 tuple of rows.
    ``Gamma = 1/I1 != 0``, so the input acts directly on the output rate.
    """

    R: float
    S: tuple[float, float]
    Q: tuple[tuple[float, float], tuple[float, float]]
    P: tuple[float, float]
    Gamma: float


def reduced_realization(params: OscillatorParams) -> ReducedRealization:
    """The input-output blocks of the rigid-body-free rig."""
    i1, i2, k, d = params.I1, params.I2, params.k, params.d
    return ReducedRealization(
        R=-d / i1,
        S=(k / i1, d / i1),
        Q=((0.0, 1.0), (-k / i2, -d / i2)),
        P=(-1.0, d / i2),
        Gamma=1.0 / i1,
    )


@dataclass(frozen=True)
class MinimumPhaseReport:
    """Eigenvalues of the internal dynamics and the resulting verdict."""

    eigenvalues: tuple[complex, complex]
    is_minimum_phase: bool


def check_minimum_phase(params: OscillatorParams) -> MinimumPhaseReport:
    """Decide whether the internal dynamics ``etadot = Q eta`` is exponentially stable.

    ``Q`` of :func:`reduced_realization` is 2x2, so its eigenvalues are the
    roots of ``lambda^2 + b lambda + c`` with ``b = -trace(Q) = d/I2`` and
    ``c = det(Q) = k/I2``, from the quadratic formula (no general eigensolver
    needed).  A marginal case (zero real part, e.g. d = 0) is reported as not
    minimum phase: the feedback concept needs bounded-input bounded-output
    internal dynamics.
    """
    (q00, q01), (q10, q11) = reduced_realization(params).Q
    b = -q00 - q11  # not -(q00 + q11): that is -0.0 at d = 0
    c = q00 * q11 - q01 * q10
    disc = cmath.sqrt(b * b - 4.0 * c)
    lam1, lam2 = (-b + disc) / 2.0, (-b - disc) / 2.0
    stable = lam1.real < 0.0 and lam2.real < 0.0
    return MinimumPhaseReport(eigenvalues=(lam1, lam2), is_minimum_phase=stable)


# Tick kinds returned by integrate_plant_tick.
SLIP, STUCK, EVENT = 0, 1, 2
# Mode segments an event tick follows before it stops looking for events.
_MAX_SEGMENTS = 8


def integrate_plant_tick(
    constants: tuple, q1: float, q2: float, v1: float, v2: float, u: float
) -> tuple:
    """Advance the rig by one control tick under the held torque ``u``.

    ``constants`` is the run's :func:`tick_constants`; the state and the
    torque come as plain floats.  Returns the next ``(q1, q2, v1, v2)`` and
    the tick's kind, as one flat tuple:

    * ``SLIP``: ``v1`` keeps one sign through the tick (or the rig has no
      friction), so the friction torque ``f = -cf sign(v1)`` is constant and
      ``x+ = Phi x + Gam (u + f)`` is exact.
    * ``STUCK``: ``v1`` is exactly zero and the torque that holds flywheel 1,
      ``u - shaft``, stays within ``cf`` at both ends.  ``q1`` and ``v1`` are
      kept bit for bit and ``(q2 - q1, v2)`` advances by ``S``.
    * ``EVENT``: friction switches inside the tick (a zero crossing of
      ``v1``, a breakaway, or a start from rest); see :func:`_event_tick`.
    """
    (params, cf, k, d, i1, dt,
     p00, p01, p02, p03, g0, p10, p11, p12, p13, g1,
     p20, p21, p22, p23, g2, p30, p31, p32, p33, g3,
     s00, s01, s10, s11) = constants
    if v1 != 0.0 or cf == 0.0:
        w = u - cf if v1 > 0.0 else u + cf
        v1n = p20 * q1 + p21 * q2 + p22 * v1 + p23 * v2 + g2 * w
        # v1 keeps its sign at both ends.  While v1' is monotone over the
        # tick, v1 cannot reach zero in between if v1 + v1' dt, with the
        # start acceleration v1', keeps that sign too.
        reach = v1 + (w - (k * (q1 - q2) + d * (v1 - v2))) * dt / i1
        if cf == 0.0 or ((v1n > 0.0 < reach) if v1 > 0.0 else (v1n < 0.0 > reach)):
            return (
                p00 * q1 + p01 * q2 + p02 * v1 + p03 * v2 + g0 * w,
                p10 * q1 + p11 * q2 + p12 * v1 + p13 * v2 + g1 * w,
                v1n,
                p30 * q1 + p31 * q2 + p32 * v1 + p33 * v2 + g3 * w,
                SLIP,
            )
    elif abs(u - (k * (q1 - q2) + d * (v1 - v2))) <= cf:
        z = q2 - q1
        q2n = q1 + (s00 * z + s01 * v2)
        v2n = s10 * z + s11 * v2
        if abs(u - (k * (q1 - q2n) + d * (v1 - v2n))) <= cf:
            return q1, q2n, v1, v2n, STUCK
    state, events = _event_tick(params, (q1, q2, v1, v2), u, dt)
    return (*state, EVENT if events or v1 == 0.0 else SLIP)


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
    rho = rate_bound(params)
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


def rate_bound(params: OscillatorParams) -> float:
    """``sqrt(k mu) + d mu`` with ``mu = 1/I1 + 1/I2``: a bound on the twist mode's rate."""
    mu = 1.0 / params.I1 + 1.0 / params.I2
    return math.sqrt(params.k * mu) + params.d * mu


def tick_constants(params: OscillatorParams, dt: float) -> tuple:
    """What :func:`integrate_plant_tick` needs of a run, as one flat tuple built once per run.

    ``(params, cf, k, d, I1, dt, *zoh, *stick)``: the rig, its friction
    magnitude and the three constants of the ``reach`` test, the tick, then
    the exact slip and stick steps of length ``dt``, row-major.  ``zoh`` is
    ``[Phi | Gam]`` (20 floats): ``x+ = Phi x + Gam w`` while the net torque
    ``w = u - cf sign(v1)`` on flywheel 1 is held.  ``stick`` is ``S`` (4
    floats): ``(q2 - q1, v2)+ = S (q2 - q1, v2)`` while flywheel 1 sticks.
    Their columns are mode flows of :func:`_series`: ``Phi`` the slip flow of
    the unit states under ``w = 0``, ``Gam`` the slip flow from rest under
    ``w = 1``, ``S`` the stick flow of a unit twist and a unit ``v2``.  Each
    flow runs ``ceil(rho dt)`` pieces, the ``1 / rho`` bound of
    :func:`_event_tick`.
    """
    rho = rate_bound(params)
    pieces = max(1, math.ceil(rho * dt))
    h = dt / pieces

    def flow(x, w, s):
        for _ in range(pieces):
            x = _value(_series(params, x, w, s, h, rho * h), 1.0)
        return x

    unit = [tuple(float(i == j) for j in range(4)) for i in range(4)]
    columns = [flow(e, 0.0, 1.0) for e in unit] + [flow((0.0,) * 4, 1.0, 1.0)]
    twist, speed = flow(unit[1], 0.0, 0.0), flow(unit[3], 0.0, 0.0)
    return (
        params, params.friction.magnitude, params.k, params.d, params.I1, dt,
        *(column[i] for i in range(4) for column in columns),
        twist[1], speed[1], twist[3], speed[3],
    )


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
