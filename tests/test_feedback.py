import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from funnel_oracle import composed_funnel_law, funnel_gain, psi
from twomass.errors import FunnelViolation, ValidationError
from twomass.feedback import FunnelSpec, funnel_law

FUNNEL_2 = FunnelSpec(1.0, 0.1, 0.5)
FUNNEL_6 = FunnelSpec(5.0, 0.3, 0.3)


def _outcome(law, *args):
    """The result's bits (any NaN alike: CPython does not keep a NaN's sign), or the exception."""
    try:
        value = law(*args)
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    except FunnelViolation as err:
        return FunnelViolation, struct.pack("<dd", err.error, err.width)
    except ArithmeticError as err:
        return type(err)


@st.composite
def law_arguments(draw):
    """Any floats, or an error within a few ulps of the band's edge."""
    psi_t = draw(st.floats(allow_nan=True) | st.floats(1e-300, 1e300))
    y_ref = draw(st.floats(allow_nan=True) | st.floats(-1e3, 1e3))
    near = psi_t * draw(st.sampled_from([1.0, 1.0 - 2**-52, 1.0 + 2**-52, 0.5, 0.0, -0.0]))
    e = draw(st.floats(allow_nan=True) | st.sampled_from([near, -near]))
    return y_ref + e, y_ref, psi_t


class TestPsi:
    def test_initial_widths(self):
        assert psi(FUNNEL_2, 0.0) == 1.5
        assert psi(FUNNEL_6, 0.0) == 5.3

    def test_decays_to_offset(self):
        assert abs(psi(FUNNEL_2, 1e6) - FUNNEL_2.c) <= 1e-12

    def test_nonincreasing_and_bounded_below(self):
        grid = np.linspace(0.0, 50.0, 2_000)
        values = np.array([psi(FUNNEL_6, t) for t in grid])
        assert np.all(np.diff(values) <= 0.0)
        assert np.all(values >= FUNNEL_6.c)


class TestFunnelLaw:
    def test_zero_error_zero_action(self):
        assert funnel_law(2.0, 2.0, 1.5) == 0.0

    def test_hand_value(self):
        # psi = 1.5, e = 0.5: -(2.25*0.5)/(2.25-0.25)
        assert abs(funnel_law(0.5, 0.0, 1.5) - (-0.5625)) <= 1e-15

    def test_blowup_near_boundary(self):
        # e = 0.99, psi = 1: magnitude -0.99/0.0199 (direct arithmetic)
        value = funnel_law(0.99, 0.0, 1.0)
        assert abs(value - (-0.99 / 0.0199)) <= 1e-12
        assert abs(value) > 49.0

    def test_undefined_on_and_outside_boundary(self):
        for e in (1.0, 1.2, -1.0):
            with pytest.raises(FunnelViolation):
                funnel_law(e, 0.0, 1.0)

    def test_odd_in_the_error(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            width = rng.uniform(0.2, 5.0)
            e = rng.uniform(-0.999, 0.999) * width
            plus = funnel_law(1.0 + e, 1.0, width)
            minus = funnel_law(1.0 - e, 1.0, width)
            assert abs(plus + minus) <= 1e-12 * max(1.0, abs(plus))

    def test_pushes_against_the_error(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            width = rng.uniform(0.2, 5.0)
            e = rng.uniform(1e-6, 0.999) * width * rng.choice([-1.0, 1.0])
            assert funnel_law(e, 0.0, width) * e < 0.0

    def test_factors_exactly_into_gain_times_error(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            width = rng.uniform(0.2, 5.0)
            y, y_ref = rng.normal(), rng.normal()
            e = y - y_ref
            if abs(e) >= width:
                continue
            assert funnel_law(y, y_ref, width) == -funnel_gain(y, y_ref, width) * e

    @given(args=law_arguments())
    @example(args=(1.0, 0.0, 1.0))  # on the band
    @example(args=(-1.0, 0.0, 1.0))
    @example(args=(0.0, 0.0, 1.0))  # -0.0
    @example(args=(-0.0, 0.0, 1.0))  # +0.0
    @example(args=(math.nan, 0.0, 1.0))  # abs passes NaN
    @example(args=(0.5, 0.0, math.nan))
    @example(args=(0.0, 0.0, 0.0))
    def test_matches_the_composed_form(self, args):
        assert _outcome(funnel_law, *args) == _outcome(composed_funnel_law, *args)

    def test_strictly_increasing_magnitude_and_unbounded(self):
        width = 1.0
        errors = np.linspace(1e-4, width * (1.0 - 1e-12), 500)
        mags = np.array([abs(funnel_law(e, 0.0, width)) for e in errors])
        assert np.all(np.diff(mags) > 0.0)
        assert mags[-1] > 1e6  # exceeds any practical bound close to the wall


class TestFunnelGain:
    def test_unit_gain_at_zero_error(self):
        assert funnel_gain(0.0, 0.0, 2.0) == 1.0

    def test_hand_values(self):
        assert abs(funnel_gain(math.sqrt(0.5), 0.0, 1.0) - 2.0) <= 1e-12
        assert abs(funnel_gain(1.0, 0.0, 2.0) - 4.0 / 3.0) <= 1e-15

    def test_at_least_one_and_increasing(self):
        width = 1.3
        gains = [funnel_gain(e, 0.0, width) for e in np.linspace(0.0, 0.99 * width, 100)]
        assert gains[0] == 1.0
        assert np.all(np.diff(gains) > 0.0)

    def test_violation(self):
        with pytest.raises(FunnelViolation):
            funnel_gain(2.0, 0.0, 1.5)


class TestSpecValidation:
    def test_offset_must_be_positive(self):
        with pytest.raises(ValidationError):
            FunnelSpec(1.0, 0.1, 0.0)

    def test_surplus_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            FunnelSpec(-1.0, 0.1, 0.5)

    @pytest.mark.parametrize("q_decay", [-1e-3, -1000.0, float("nan"), float("inf")])
    def test_decay_must_be_finite_and_nonnegative(self, q_decay):
        # a negative decay makes psi grow without bound, outside the funnel class
        with pytest.raises(ValidationError, match="q_decay must be >= 0"):
            FunnelSpec(1.0, q_decay, 0.5)

    @pytest.mark.parametrize("s, c", [(1e308, 1e308), (0.0, 1.5e154), (1e154, 1e154)])
    def test_widest_band_must_square_finite(self, s, c):
        with pytest.raises(ValidationError, match="s \\+ c must have a finite square"):
            FunnelSpec(s, 0.1, c)

    @pytest.mark.parametrize("c", [1e-200, 5e-324, 1e-162])
    def test_narrowest_band_must_square_positive(self, c):
        with pytest.raises(ValidationError, match="c must have a positive square"):
            FunnelSpec(0.0, 0.1, c)

    def test_zero_decay_is_a_constant_band(self):
        assert psi(FunnelSpec(1.0, 0.0, 0.5), 1e6) == 1.5
