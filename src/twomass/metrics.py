"""Quantitative performance measures over recorded traces.

Two windows are evaluated: the transient regime ``[0, tf]`` (during the
reference transition) and the stationary regime ``[tf, tf + 5]`` after it.
Squared-signal integrals use the trapezoidal rule on the equidistant tick
grid; the input variance over the stationary window estimates chattering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import csvfile
from .errors import ValidationError, WindowOutOfRange
from .trajectory import TrajectorySpec

if TYPE_CHECKING:
    from .closedloop import Trace

__all__ = [
    "STATIONARY_SPAN",
    "MetricsReport",
    "integrate_square",
    "variance",
    "report",
    "funnel_margin",
    "METRICS_COLUMNS",
    "metrics_csv_row",
    "write_metrics_csv",
]

STATIONARY_SPAN = 5.0


@dataclass(frozen=True)
class MetricsReport:
    """Window metrics of one run.

    u_sum_t  input energy over the transient window ((N*m)^2 * s)
    e_sum_t  squared tracking error over the transient window ((rad/s)^2 * s)
    var_u_s  population variance of the input over the stationary window
    e_sum_s  squared tracking error over the stationary window
    """

    u_sum_t: float
    e_sum_t: float
    var_u_s: float
    e_sum_s: float

    def __post_init__(self):
        for name in ("u_sum_t", "e_sum_t", "var_u_s", "e_sum_s"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValidationError(f"metric {name} must be finite and >= 0, got {value}")


def _grid_step(t: np.ndarray) -> float:
    if len(t) < 2:
        raise WindowOutOfRange("need at least two samples to define a grid")
    finite = np.isfinite(t)
    if not finite.all():  # checked before any tick is subtracted: inf - inf is nan
        i = int(np.argmin(finite))
        raise ValidationError(f"tick time {float(t[i])} of sample {i} is not finite")
    with np.errstate(over="ignore"):  # a step beyond the float range is inf: not a grid
        steps = np.diff(t)
        dt = (t[-1] - t[0]) / (len(t) - 1)
    if not (math.isfinite(dt) and np.allclose(steps, dt, rtol=1e-9, atol=1e-12)):
        raise ValidationError("sample grid must be equidistant")
    return float(dt)


def _snap(t: np.ndarray, dt: float, a: float, b: float) -> tuple[int, int]:
    # Window endpoints meet a discrete grid; snap to the nearest tick with
    # ties resolved toward the interior.  At kilohertz rates the snap error is
    # below half a millisecond and immaterial.
    # An end whose tick index is beyond the float range lies beyond every
    # sample: a Python float, unlike numpy's, overflows to inf with no warning.
    if b < a:
        raise WindowOutOfRange(f"window [{a}, {b}] is reversed")
    t0 = float(t[0])
    try:
        ia = math.floor((a - t0) / dt + 0.5)
        ib = math.ceil((b - t0) / dt - 0.5)
        if ib < ia:  # degenerate window between two ticks
            ia = ib = round((0.5 * (a + b) - t0) / dt)
    except OverflowError:  # math.floor, math.ceil or round of an infinite index
        ia = -1
    if ia < 0 or ib > len(t) - 1:
        raise WindowOutOfRange(
            f"window [{a}, {b}] not covered by samples [{t[0]}, {t[-1]}]"
        )
    return ia, ib


def _window(t, dt, values, window: tuple[float, float]) -> tuple[float, np.ndarray]:
    """The span of the (snapped) window and the samples inside it, all finite.

    ``t`` is a float array on the grid of step ``dt`` (from :func:`_grid_step`).
    """
    values = np.asarray(values, dtype=float)
    ia, ib = _snap(t, dt, window[0], window[1])
    selected = values[ia : ib + 1]  # never empty: _snap keeps ia <= ib inside the grid
    finite = np.isfinite(selected)
    if not finite.all():  # checked before any sample is subtracted: inf - inf is nan
        i = ia + int(np.argmin(finite))
        raise ValidationError(
            f"sample {float(values[i])} at t={float(t[i])} in window {window} is not finite"
        )
    return t[ib] - t[ia], selected


def _window_metric(metric, t, dt, values, window: tuple[float, float]) -> float:
    """``metric(span, selected)`` of the window, with a float overflow as one ValidationError.

    Finite samples above about 1.3e154 have squares that overflow, where
    numpy would warn and carry on with inf and nan.
    """
    span, selected = _window(t, dt, values, window)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return metric(span, selected)
    except FloatingPointError:
        peak = float(np.max(np.abs(selected)))
        raise ValidationError(
            f"squares of the samples in window {window} overflow (largest |sample| {peak!r})"
        ) from None


def _square_integral(span, selected) -> float:
    if len(selected) == 1:
        return 0.0
    # trapezoid weights written as span * mean: exact for constant signals
    squares = selected**2
    core = float(np.sum(squares)) - 0.5 * (squares[0] + squares[-1])
    return span * (core / (len(selected) - 1))


def _variance(span, selected) -> float:
    # centering on a data point keeps constant signals at exactly zero
    centered = selected - selected[0]
    return float(np.var(centered))


def integrate_square(t: np.ndarray, values: np.ndarray, window: tuple[float, float]) -> float:
    """Trapezoidal integral of ``values**2`` over the (snapped) window."""
    t = np.asarray(t, dtype=float)
    return _window_metric(_square_integral, t, _grid_step(t), values, window)


def variance(t: np.ndarray, values: np.ndarray, window: tuple[float, float]) -> float:
    """Population variance (divide by N) of the samples inside the window."""
    t = np.asarray(t, dtype=float)
    return _window_metric(_variance, t, _grid_step(t), values, window)


def report(trace: "Trace", spec: TrajectorySpec, use_true_output: bool = False) -> MetricsReport:
    """Window metrics of a trace.

    By default the error is the measured one (what the controller saw, which
    matches the experimental setting); ``use_true_output`` switches to the
    true plant output for simulation-only studies.
    """
    transient = (0.0, spec.tf)
    stationary = (spec.tf, spec.tf + STATIONARY_SPAN)
    err = trace.e
    if use_true_output:
        with np.errstate(over="ignore", invalid="ignore"):  # _window names a non-finite error
            err = trace.y_true - trace.y_ref
    t = np.asarray(trace.t, dtype=float)
    dt = _grid_step(t)  # once for all four metrics
    return MetricsReport(
        u_sum_t=_window_metric(_square_integral, t, dt, trace.u, transient),
        e_sum_t=_window_metric(_square_integral, t, dt, err, transient),
        var_u_s=_window_metric(_variance, t, dt, trace.u, stationary),
        e_sum_s=_window_metric(_square_integral, t, dt, err, stationary),
    )


def funnel_margin(trace: "Trace") -> tuple[float, float, float] | None:
    """The smallest funnel margin ``psi - |e|``, the tick time where it first
    occurs and the peak funnel gain ``psi^2 / (psi^2 - e^2)``, over the ticks
    where the funnel law returned an input; None when it returned none.

    Those are the ticks where ``u_fb`` is a number: it is NaN throughout a
    run without a funnel, on the tick where the law found the error outside
    and on the tick where a Newton step diverged before the law ran.
    """
    ran = ~np.isnan(trace.u_fb)
    if not ran.any():
        return None
    psi, e = trace.psi[ran], trace.e[ran]
    margin = psi - np.abs(e)
    k = int(np.argmin(margin))
    squared = psi * psi
    gain = squared / (squared - e * e)
    return float(margin[k]), float(trace.t[ran][k]), float(gain.max())


METRICS_COLUMNS = ("run", "mode", "frequency", "u_sum_t", "e_sum_t", "var_u_s", "e_sum_s")


def metrics_csv_row(run_id: str, mode: str, frequency: float, rep: "MetricsReport | None") -> str:
    """One aggregate CSV row; metric cells stay empty when a run has no metrics."""
    if rep is None:
        cells = ["", "", "", ""]
    else:
        values = (rep.u_sum_t, rep.e_sum_t, rep.var_u_s, rep.e_sum_s)
        cells = [repr(float(x)) for x in values]
    return ",".join([run_id, mode, repr(float(frequency))] + cells)


def write_metrics_csv(rows: list[str], path, config_lines: list[str]) -> None:
    """Write :func:`metrics_csv_row` rows under one ``# config LABEL: ECHO`` header
    line per ``LABEL: ECHO`` entry of ``config_lines``."""
    pairs = (line.partition(": ") for line in config_lines)
    header = [("config " + label, echo) for label, _, echo in pairs]
    csvfile.write(path, "metrics", header, METRICS_COLUMNS, (row + "\n" for row in rows))
