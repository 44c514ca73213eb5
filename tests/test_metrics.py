import warnings
from unittest import mock

import numpy as np
import pytest

from twomass import metrics
from twomass.closedloop import Trace, RunStatus
from twomass.errors import ValidationError, WindowOutOfRange
from twomass.metrics import (
    MetricsReport,
    integrate_square,
    metrics_csv_row,
    report,
    variance,
)
from twomass.trajectory import TrajectorySpec


def brute_force_square_integral(t, v, a, b):
    """Independent trapezoid-on-squares oracle, plain loop."""
    total = 0.0
    for i in range(len(t) - 1):
        if t[i] >= a - 1e-12 and t[i + 1] <= b + 1e-12:
            total += 0.5 * (v[i] ** 2 + v[i + 1] ** 2) * (t[i + 1] - t[i])
    return total


def brute_force_variance(values):
    mean = sum(values) / len(values)
    return sum((x - mean) ** 2 for x in values) / len(values)


def make_trace(t, u, e):
    n = len(t)
    zeros = np.zeros(n)
    return Trace(
        t=np.asarray(t, dtype=float),
        y_measured=zeros + np.asarray(e),
        y_true=zeros,
        y_ref=zeros,
        e=np.asarray(e, dtype=float),
        psi=np.full(n, np.nan),
        u_ffw=np.full(n, np.nan),
        u_fb=np.full(n, np.nan),
        u=np.asarray(u, dtype=float),
        newton_iterations=np.full(n, np.nan),
        status=RunStatus("completed"),
    )


class TestIntegrateSquare:
    def test_constant_signal(self):
        t = np.linspace(0.0, 10.0, 101)
        assert integrate_square(t, np.full(101, 2.0), (0.0, 10.0)) == 40.0

    def test_linear_signal_three_points(self):
        # trapezoid of t^2 on {0, .5, 1}: documented discretization bias vs 1/3
        t = np.array([0.0, 0.5, 1.0])
        assert integrate_square(t, t.copy(), (0.0, 1.0)) == 0.375

    def test_degenerate_window(self):
        t = np.linspace(0.0, 1.0, 11)
        assert integrate_square(t, np.ones(11), (0.4, 0.4)) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        t = np.linspace(0.0, 15.0, 1501)
        v = rng.normal(size=t.size)
        for window in ((0.0, 10.0), (10.0, 15.0), (2.0, 3.0)):
            fast = integrate_square(t, v, window)
            slow = brute_force_square_integral(t, v, *window)
            assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(33)
        t = np.linspace(0.0, 5.0, 501)
        v = rng.normal(size=t.size)
        base = integrate_square(t, v, (0.0, 5.0))
        scaled = integrate_square(t, 3.0 * v, (0.0, 5.0))
        assert abs(scaled - 9.0 * base) <= 1e-12 * max(1.0, abs(9.0 * base))

    def test_window_additivity(self):
        rng = np.random.default_rng(35)
        t = np.linspace(0.0, 6.0, 601)
        v = rng.normal(size=t.size)
        left = integrate_square(t, v, (0.0, 2.5))
        right = integrate_square(t, v, (2.5, 6.0))
        whole = integrate_square(t, v, (0.0, 6.0))
        assert abs(left + right - whole) <= 1e-12 * max(1.0, whole)

    def test_snapping_ties_toward_interior(self):
        t = np.linspace(0.0, 1.0, 11)  # 0.1 grid
        v = np.ones(11)
        # endpoints mid-cell: [0.05, 0.95] snaps to [0.1, 0.9]
        assert abs(integrate_square(t, v, (0.05, 0.95)) - 0.8) <= 1e-12
        # near-tick endpoints snap to the closest tick
        assert abs(integrate_square(t, v, (0.0999, 0.9001)) - 0.8) <= 1e-12

    def test_out_of_range(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(WindowOutOfRange):
            integrate_square(t, np.ones(11), (0.0, 2.0))
        with pytest.raises(WindowOutOfRange):
            integrate_square(t, np.ones(11), (0.8, 0.2))

    def test_one_sample_defines_no_grid(self):
        with pytest.raises(WindowOutOfRange, match="at least two samples"):
            integrate_square(np.array([0.0]), np.ones(1), (0.0, 0.0))

    def test_window_between_two_ticks_takes_one_of_them(self):
        # [0.375, 0.375] lies halfway between the ticks 0.25 and 0.5, so its
        # ends snap past each other; the window is the tick nearest its middle
        t = np.arange(11) * 0.25
        v = np.ones(11)
        assert integrate_square(t, v, (0.375, 0.375)) == 0.0
        v[2] = np.inf
        with pytest.raises(ValidationError, match=r"at t=0\.5 "):
            integrate_square(t, v, (0.375, 0.375))

    def test_non_equidistant_grid_rejected(self):
        t = np.array([0.0, 0.1, 0.3, 0.4])
        with pytest.raises(ValidationError):
            integrate_square(t, np.ones(4), (0.0, 0.4))

    def test_grid_of_steps_beyond_the_float_range_rejected(self):
        # two ticks, one step, but that step is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="equidistant"):
                integrate_square(np.array([-1e308, 1e308]), np.ones(2), (0.0, 0.4))


class TestVariance:
    def test_constant(self):
        t = np.linspace(0.0, 1.0, 11)
        assert variance(t, np.full(11, 3.3), (0.0, 1.0)) == 0.0

    def test_two_point_hand_value(self):
        t = np.array([0.0, 1.0])
        assert variance(t, np.array([0.0, 2.0]), (0.0, 1.0)) == 1.0

    def test_single_sample(self):
        t = np.linspace(0.0, 1.0, 11)
        assert variance(t, np.arange(11.0), (0.5, 0.5)) == 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(37)
        t = np.linspace(0.0, 5.0, 501)
        v = rng.normal(size=t.size)
        a = variance(t, v, (1.0, 4.0))
        b = variance(t, v + 123.456, (1.0, 4.0))
        assert abs(a - b) <= 1e-12 * max(1.0, a)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(39)
        t = np.linspace(0.0, 15.0, 1501)
        v = rng.normal(size=t.size)
        fast = variance(t, v, (10.0, 15.0))
        slow = brute_force_variance(list(v[1000:1501]))
        assert abs(fast - slow) <= 1e-12 * max(1.0, slow)

    def test_empty_window(self):
        with pytest.raises(WindowOutOfRange):
            variance(np.linspace(0.0, 1.0, 11), np.ones(11), (2.0, 3.0))


class TestReport:
    SPEC = TrajectorySpec(y0=0.0, yf=1.0, t0=0.0, tf=10.0)

    # the first tick, tf (the end of one window and the start of the next), the last tick
    @pytest.mark.parametrize("tick", [0, 1000, 1500])
    @pytest.mark.parametrize("cell", [np.inf, -np.inf, np.nan])
    def test_non_finite_sample_is_named_without_a_warning(self, tick, cell):
        t = np.linspace(0.0, 15.0, 1501)
        u = np.zeros(1501)
        u[tick] = cell
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^sample {cell} at t={t[tick]} in window"):
                report(make_trace(t, u, np.zeros(1501)), self.SPEC)

    # one square above the float range, or (tick None) squares that sum above it
    @pytest.mark.parametrize("tick, big", [(0, 1e200), (1000, -1e200), (1500, 1e200),
                                           (None, 1e154)])
    @pytest.mark.parametrize("column", ["u", "e"])
    def test_overflowing_squares_are_named_without_a_warning(self, column, tick, big):
        t = np.linspace(0.0, 15.0, 1501)
        values = {"u": np.zeros(1501), "e": np.zeros(1501)}
        values[column][slice(None) if tick is None else tick] = big
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^squares of the samples in window "
                                                      r"\(.*\) overflow \(largest \|sample\| 1e\+"):
                report(make_trace(t, values["u"], values["e"]), self.SPEC)

    # finite cells whose difference overflows, and infinities whose difference is NaN
    @pytest.mark.parametrize("y_true, y_ref, error", [(1e308, -1e308, "inf"),
                                                      (np.inf, np.inf, "nan")])
    def test_non_finite_true_error_is_named_without_a_warning(self, y_true, y_ref, error):
        t = np.linspace(0.0, 15.0, 1501)
        trace = make_trace(t, np.zeros(1501), np.zeros(1501))
        trace.y_true, trace.y_ref = np.zeros(1501), np.zeros(1501)
        trace.y_true[5], trace.y_ref[5] = y_true, y_ref
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^sample {error} at t=0.05 in window"):
                report(trace, self.SPEC, use_true_output=True)

    def test_grid_is_checked_once(self):
        t = np.linspace(0.0, 15.0, 1501)
        with mock.patch.object(metrics, "_grid_step", wraps=metrics._grid_step) as grid:
            report(make_trace(t, np.ones(1501), np.zeros(1501)), self.SPEC)
        assert grid.call_count == 1

    def test_perfect_tracking_all_zero(self):
        t = np.linspace(0.0, 15.0, 1501)
        rep = report(make_trace(t, np.zeros(1501), np.zeros(1501)), self.SPEC)
        assert rep.u_sum_t == rep.e_sum_t == rep.var_u_s == rep.e_sum_s == 0.0

    def test_constant_input(self):
        t = np.linspace(0.0, 15.0, 1501)
        rep = report(make_trace(t, np.ones(1501), np.zeros(1501)), self.SPEC)
        assert rep.u_sum_t == 10.0
        assert rep.var_u_s == 0.0
        assert rep.e_sum_t == 0.0 and rep.e_sum_s == 0.0

    def test_true_output_flag(self):
        t = np.linspace(0.0, 15.0, 1501)
        trace = make_trace(t, np.zeros(1501), np.ones(1501))
        trace.y_true = np.zeros(1501)
        trace.y_ref = np.zeros(1501)
        measured = report(trace, self.SPEC)
        true = report(trace, self.SPEC, use_true_output=True)
        assert measured.e_sum_t == 10.0 and true.e_sum_t == 0.0

    def test_short_trace_rejected(self):
        t = np.linspace(0.0, 5.0, 501)
        with pytest.raises(WindowOutOfRange):
            report(make_trace(t, np.zeros(501), np.zeros(501)), self.SPEC)

    def test_nonnegative_guard(self):
        with pytest.raises(ValidationError):
            MetricsReport(u_sum_t=-1.0, e_sum_t=0.0, var_u_s=0.0, e_sum_s=0.0)


class TestCsvRow:
    def test_row_format(self):
        rep = MetricsReport(1.5, 0.25, 0.0, 0.125)
        row = metrics_csv_row("run-a", "combined", 1000.0, rep)
        assert row == "run-a,combined,1000.0,1.5,0.25,0.0,0.125"

    def test_missing_metrics_leave_blanks(self):
        row = metrics_csv_row("run-b", "feedback", 2000.0, None)
        assert row == "run-b,feedback,2000.0,,,,"
