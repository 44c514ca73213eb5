import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twomass.errors import ValidationError
from twomass.trajectory import (
    SMOOTH_STEP_COEFFICIENTS,
    TrajectorySpec,
    sigma,
    sigma_samples,
    y_ref_at,
    y_ref_derivative,
    y_ref_samples,
)


def sigma_rational(u: Fraction) -> Fraction:
    """Exact-rational oracle for the timing law (integer coefficients)."""
    acc = Fraction(0)
    for c in SMOOTH_STEP_COEFFICIENTS:
        acc = acc * u + Fraction(int(c))
    return acc * u**8


class TestSigma:
    def test_endpoints(self, reference):
        assert sigma(reference, reference.t0) == 0.0
        assert abs(sigma(reference, reference.tf) - 1.0) <= 1e-12

    def test_rational_oracle_values(self, reference):
        # frozen from the exact-rational oracle:
        #   sigma(1/4) = 2321945/134217728, sigma(1/2) = 1/2,
        #   sigma(3/4) = 131895783/134217728
        cases = {
            0.25: (Fraction(2321945, 134217728), 0.017299838364124298),
            0.5: (Fraction(1, 2), 0.5),
            0.75: (Fraction(131895783, 134217728), 0.9827001616358757),
        }
        for frac_t, (exact, frozen) in cases.items():
            assert sigma_rational(Fraction(frac_t)) == exact
            t = reference.t0 + frac_t * (reference.tf - reference.t0)
            assert abs(sigma(reference, t) - float(exact)) <= 1e-14
            assert float(exact) == frozen

    def test_monotone_on_dense_grid(self, reference):
        grid = np.linspace(reference.t0, reference.tf, 10_000)
        values = np.array([sigma(reference, t) for t in grid])
        assert np.all(np.diff(values) >= 0.0)

    def test_range(self, reference):
        grid = np.linspace(reference.t0, reference.tf, 2_000)
        values = np.array([sigma(reference, t) for t in grid])
        assert values.min() >= -1e-12 and values.max() <= 1.0 + 1e-12

    def test_out_of_window_is_contract_violation(self, reference):
        with pytest.raises(ValueError):
            sigma(reference, reference.tf + 0.1)

    def test_shifted_window(self):
        spec = TrajectorySpec(y0=0.0, yf=1.0, t0=2.0, tf=4.0)
        assert sigma(spec, 2.0) == 0.0
        assert abs(sigma(spec, 3.0) - 0.5) <= 1e-14  # midpoint symmetry
        assert abs(sigma(spec, 4.0) - 1.0) <= 1e-12

    def test_vectorized_matches_scalar_bitwise(self, reference):
        grid = np.linspace(reference.t0, reference.tf, 257)
        samples = sigma_samples(reference, grid)
        assert all(samples[i] == sigma(reference, grid[i]) for i in range(len(grid)))
        assert sigma_samples(reference, np.array([])).size == 0
        with pytest.raises(ValueError):
            sigma_samples(reference, np.array([reference.tf + 1.0]))


class TestYRef:
    def test_branches(self, reference):
        assert y_ref_at(reference, -1.0) == 0.0
        assert y_ref_at(reference, 0.0) == 0.0
        assert y_ref_at(reference, 15.0) == 4.0 * math.pi  # two revolutions per second
        assert abs(y_ref_at(reference, 15.0) - 12.566370614359172) == 0.0

    def test_degenerate_rest_reference(self):
        spec = TrajectorySpec(y0=3.0, yf=3.0, t0=0.0, tf=10.0)
        for t in (0.0, 0.5, 5.0, 10.0, 20.0):
            assert y_ref_at(spec, t) == 3.0
            assert y_ref_derivative(spec, t) == 0.0

    def test_continuity_at_seams(self, reference):
        for seam in (reference.t0, reference.tf):
            inside = y_ref_at(reference, seam)
            outside = y_ref_at(reference, seam - 1e-12), y_ref_at(reference, seam + 1e-12)
            assert abs(inside - outside[0]) <= 1e-9
            assert abs(inside - outside[1]) <= 1e-9


@st.composite
def windows_on_tick_grids(draw):
    """A reference with ``t0 > 0`` and the tick grid ``k * dt`` of a run past ``tf``.

    Either seam may sit exactly on a grid point or between two.
    """
    dt = 1.0 / draw(st.sampled_from([1000.0, 2000.0]))
    seam = st.one_of(st.integers(1, 2000).map(lambda j: j * dt), st.floats(1e-6, 1.0))
    t0, tf = draw(seam), draw(seam)
    assume(tf > t0)
    level = st.floats(-100.0, 100.0)
    spec = TrajectorySpec(y0=draw(level), yf=draw(level), t0=t0, tf=tf)
    n_rows = math.ceil(tf / dt) + draw(st.integers(2, 50))
    return spec, dt, n_rows


class TestYRefSamples:
    @settings(max_examples=150)
    @given(case=windows_on_tick_grids())
    def test_column_is_y_ref_at_bitwise(self, case):
        spec, dt, n_rows = case
        times = np.arange(n_rows) * dt  # the run's tick times
        assert times[0] < spec.t0 and times[-1] > spec.tf
        column = y_ref_samples(spec, times)
        ticks = np.array([y_ref_at(spec, k * dt) for k in range(n_rows)])
        assert np.array_equal(column.view(np.int64), ticks.view(np.int64))

    def test_seams_and_outside(self):
        spec = TrajectorySpec(y0=-1.0, yf=3.0, t0=0.5, tf=1.5)
        times = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        assert y_ref_samples(spec, times).tolist() == [y_ref_at(spec, t) for t in times]
        assert y_ref_samples(spec, times)[[0, -1]].tolist() == [-1.0, 3.0]
        assert y_ref_samples(spec, np.array([])).size == 0


class TestDerivative:
    def test_zero_outside_and_at_seams(self, reference):
        assert y_ref_derivative(reference, -0.5) == 0.0
        assert y_ref_derivative(reference, 12.0) == 0.0
        assert y_ref_derivative(reference, 0.0) == 0.0  # eight-fold zero at start
        assert abs(y_ref_derivative(reference, 10.0)) <= 1e-12

    def test_smooth_start_and_stop(self, reference):
        # orders 1..3 of centered differences at the seams stay tiny
        h = 1e-3
        for seam in (reference.t0, reference.tf):
            y = lambda t: y_ref_at(reference, t)
            d1 = (y(seam + h) - y(seam - h)) / (2 * h)
            d2 = (y(seam + h) - 2 * y(seam) + y(seam - h)) / h**2
            d3 = (y(seam + 2 * h) - 2 * y(seam + h) + 2 * y(seam - h) - y(seam - 2 * h)) / (
                2 * h**3
            )
            for value in (d1, d2, d3):
                assert abs(value) <= 1e-6

    def test_matches_central_differences(self, reference):
        h = 1e-4
        for t in np.linspace(0.5, 9.5, 101):
            fd = (y_ref_at(reference, t + h) - y_ref_at(reference, t - h)) / (2 * h)
            exact = y_ref_derivative(reference, t)
            assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1e-3)


class TestSpecValidation:
    def test_window_must_be_ordered(self):
        with pytest.raises(ValidationError):
            TrajectorySpec(y0=0.0, yf=1.0, t0=5.0, tf=5.0)

    @pytest.mark.parametrize("name", ["y0", "yf", "t0", "tf"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_field_rejected(self, name, value):
        fields = {"y0": 0.0, "yf": 1.0, "t0": 0.0, "tf": 10.0, name: value}
        with pytest.raises(ValidationError, match=f"field {name} must be finite"):
            TrajectorySpec(**fields)
