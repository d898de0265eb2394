"""The one range rule of the norms cyclex reports (``cyclex.sums``), and the
call sites that report a norm through it."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dot_in_order, in_order_norm_oracle
from cyclex import (
    Ball,
    Family,
    SpiralSpec,
    contains,
    fair_point_residual,
    fixpoint_check,
    min_distance_pair,
    orthogonal_completion,
)
from cyclex.sums import in_range, norm

EPS = 2.0**-52
# |norm(w) - hypot(w)| <= NORM_RTOL_EPS * eps * hypot(w) wherever norm(w) >= 2^-1022.
# Measured against math.hypot: at most 1.0 eps over 100k examples of the strategy
# below, 1.21 eps over 200k random draws shaped like it, and 1.37 eps over 600k draws
# of d <= 8 coordinates within one or two binades, the worst case of the in-order sum.  The a-priori bound at d = 8
# is about 3 eps: d u for the square sum, half of it and u for the sqrt, u for hypot.
NORM_RTOL_EPS = 2.5
FAR = [Ball([0.0, 0.0], 1.0), Ball([1e200, 0.0], 1.0)]


@st.composite
def scaled_vectors(draw):
    """d = 1..8 coordinates, each zero or within ``spread`` binades below 2^top, for
    a top drawn from the subnormals (2^-1074) up to about 1e307 (2^1019)."""
    d = draw(st.integers(1, 8))
    top = draw(st.integers(-1074, 1019))
    spread = draw(st.sampled_from((0, 1, 3, 60, 2100)))
    exponents = st.integers(max(-1074, top - spread), top)
    mantissas = st.floats(0.5, 1.0, exclude_max=True)
    signs = st.sampled_from((-1.0, 1.0))
    coordinate = st.one_of(st.just(0.0), st.builds(lambda s, f, e: s * math.ldexp(f, e), signs, mantissas, exponents))
    return draw(st.lists(coordinate, min_size=d, max_size=d))


@settings(max_examples=300, deadline=None)
@given(scaled_vectors())
def test_norm_in_range_is_the_in_order_norm(w):
    if 2.0**-1022 <= dot_in_order(w, w) < math.inf:
        assert norm(w) == in_order_norm_oracle(w)


@settings(max_examples=300, deadline=None)
@given(scaled_vectors())
def test_norm_is_accurate_wherever_it_is_normal(w):
    got, want = norm(w), math.hypot(*w)
    if got >= 2.0**-1022:
        assert abs(got - want) <= NORM_RTOL_EPS * EPS * want


@pytest.mark.parametrize(
    "w, want",
    [
        ([1e200, 0.0], 1e200),
        ([3e200, 4e200], 5e200),
        ([1e-200, 0.0], 1e-200),
        ([3e-170, -4e-170], 5e-170),
        ([5e-324], 5e-324),
        ([0.0, 0.0], 0.0),
        ([1.5e308, 1.5e308], math.inf),  # the norm itself overflows
        ([math.inf, 1.0], math.inf),
    ],
)
def test_norm_rescales_squares_that_leave_the_range(w, want):
    assert norm(w) == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("w", [[math.nan, 1.0], [1.0, math.nan], [1e200, math.nan]])
def test_norm_of_a_nan_coordinate_is_nan(w):
    assert math.isnan(norm(w))


@pytest.mark.parametrize("r, want", [([1e200, 0.0], 1e200), ([1e-200, 0.0], 1e-200), ([0.0, 0.0], 0.0)])
def test_in_range_rescales_the_norm_of_an_array(r, want):
    norm_of = lambda v: math.sqrt(dot_in_order(v, v))  # noqa: E731
    with np.errstate(over="ignore"):
        assert in_range(norm_of, np.array(r)) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_far_sets_report_finite_distances():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (y1, y2), distance = min_distance_pair(*FAR, [0.0, 5.0])
        assert distance == pytest.approx(1e200, rel=1e-15)
        assert fair_point_residual(Family(tuple(FAR)), [0.0, 0.0]) == pytest.approx(5e199, rel=1e-15)
        assert contains(FAR[1], [3e200, 0.0], 1e300)
        r1, r2 = fixpoint_check(Family(tuple(FAR)), [y1, y2])
        assert math.isfinite(r1) and math.isfinite(r2)


@pytest.mark.parametrize("z", [[1e-200, 0.0], [1e200, 0.0]])
def test_orthogonal_completion_of_a_badly_scaled_vector_is_unit(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = orthogonal_completion(z)
    assert w.tolist() == [0.0, 1.0] and math.copysign(1.0, w[0]) == -1.0


def test_spiral_alpha_is_the_angle_it_turns_through():
    # acos of the normalized inner product, 1 - 5e-19, rounds to 1 and reads 0
    assert SpiralSpec([1.0, 1e-9], [2.0, 0.0], 5).alpha == 1e-9
