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

from .errors import EmptyWindow, ValidationError, WindowOutOfRange
from .trajectory import TrajectorySpec

if TYPE_CHECKING:
    from .closedloop import Trace

__all__ = [
    "STATIONARY_SPAN",
    "MetricsReport",
    "integrate_square",
    "variance",
    "report",
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
    windows: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        for name in ("u_sum_t", "e_sum_t", "var_u_s", "e_sum_s"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValidationError(f"metric {name} must be finite and >= 0, got {value}")


def _grid_step(t: np.ndarray) -> float:
    if len(t) < 2:
        raise WindowOutOfRange("need at least two samples to define a grid")
    steps = np.diff(t)
    dt = (t[-1] - t[0]) / (len(t) - 1)
    if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise ValidationError("sample grid must be equidistant")
    return float(dt)


def _snap(t: np.ndarray, dt: float, a: float, b: float) -> tuple[int, int]:
    # Window endpoints meet a discrete grid; snap to the nearest tick with
    # ties resolved toward the interior.  At kilohertz rates the snap error is
    # below half a millisecond and immaterial.
    if b < a:
        raise WindowOutOfRange(f"window [{a}, {b}] is reversed")
    ia = math.floor((a - t[0]) / dt + 0.5)
    ib = math.ceil((b - t[0]) / dt - 0.5)
    if ib < ia:  # degenerate window between two ticks
        ia = ib = round((0.5 * (a + b) - t[0]) / dt)
    if ia < 0 or ib > len(t) - 1:
        raise WindowOutOfRange(
            f"window [{a}, {b}] not covered by samples [{t[0]}, {t[-1]}]"
        )
    return ia, ib


def integrate_square(t: np.ndarray, values: np.ndarray, window: tuple[float, float]) -> float:
    """Trapezoidal integral of ``values**2`` over the (snapped) window."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    dt = _grid_step(t)
    ia, ib = _snap(t, dt, window[0], window[1])
    if ia == ib:
        return 0.0
    # trapezoid weights written as span * mean: exact for constant signals
    squares = values[ia : ib + 1] ** 2
    core = float(np.sum(squares)) - 0.5 * (squares[0] + squares[-1])
    return (t[ib] - t[ia]) * (core / (ib - ia))


def variance(t: np.ndarray, values: np.ndarray, window: tuple[float, float]) -> float:
    """Population variance (divide by N) of the samples inside the window."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    dt = _grid_step(t)
    ia, ib = _snap(t, dt, window[0], window[1])
    selected = values[ia : ib + 1]
    if len(selected) == 0:
        raise EmptyWindow(f"no samples in window {window}")
    # centering on a data point keeps constant signals at exactly zero
    centered = selected - selected[0]
    return float(np.var(centered))


def report(trace: "Trace", spec: TrajectorySpec, use_true_output: bool = False) -> MetricsReport:
    """Window metrics of a trace.

    By default the error is the measured one (what the controller saw, which
    matches the experimental setting); ``use_true_output`` switches to the
    true plant output for simulation-only studies.
    """
    transient = (0.0, spec.tf)
    stationary = (spec.tf, spec.tf + STATIONARY_SPAN)
    err = trace.y_true - trace.y_ref if use_true_output else trace.e
    return MetricsReport(
        u_sum_t=integrate_square(trace.t, trace.u, transient),
        e_sum_t=integrate_square(trace.t, err, transient),
        var_u_s=variance(trace.t, trace.u, stationary),
        e_sum_s=integrate_square(trace.t, err, stationary),
        windows=(transient, stationary),
    )


METRICS_COLUMNS = ("run", "mode", "frequency", "u_sum_t", "e_sum_t", "var_u_s", "e_sum_s")


def metrics_csv_row(run_id: str, mode: str, frequency: float, rep: "MetricsReport | None") -> str:
    """One aggregate CSV row; metric cells stay empty when a run has no metrics."""
    if rep is None:
        cells = ["", "", "", ""]
    else:
        cells = [repr(rep.u_sum_t), repr(rep.e_sum_t), repr(rep.var_u_s), repr(rep.e_sum_s)]
    return ",".join([run_id, mode, repr(float(frequency))] + cells)


def write_metrics_csv(rows: list[str], path, config_lines: list[str] | None = None) -> None:
    lines = ["# twomass metrics"]
    if config_lines:
        lines.extend(f"# config {line}" for line in config_lines)
    lines.append(",".join(METRICS_COLUMNS))
    lines.extend(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
