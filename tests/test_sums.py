"""The one range rule of the lengths cyclex reports (``cyclex.sums``), and the
call sites that report a length through it."""

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
    diagonal_project,
    fair_point_residual,
    fixpoint_check,
    min_distance_pair,
    orthogonal_completion,
    project_blocks,
)
from cyclex.sums import compiled, distance_kernel, max_distance, norm

EPS = 2.0**-52
# |norm(w) - hypot(w)| <= NORM_RTOL_EPS * eps * hypot(w) wherever norm(w) >= 2^-1022.
# Measured against math.hypot: at most 1.0 eps over 100k examples of the strategy
# below, 1.21 eps over 200k random draws shaped like it, and 1.37 eps over 600k draws
# of d <= 8 coordinates within one or two binades, the worst case of the in-order sum.  The a-priori bound at d = 8
# is about 3 eps: d u for the square sum, half of it and u for the sqrt, u for hypot.
NORM_RTOL_EPS = 2.5
FAR = [Ball([0.0, 0.0], 1.0), Ball([1e200, 0.0], 1.0)]


@st.composite
def scaled_vectors(draw, dims=st.integers(1, 8), top_max=1019):
    """d coordinates (by default 1..8), each zero or within ``spread`` binades below 2^top,
    for a top drawn from the subnormals (2^-1074) up to ``top_max`` (2^1019 is about 1e307)."""
    d = draw(dims)
    top = draw(st.integers(-1074, top_max))
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


@pytest.mark.parametrize(
    "r, want",
    [
        ([1e200, 0.0], 1e200),
        ([1e-200, 0.0], 1e-200),
        ([0.0, 0.0], 0.0),
        ([math.nan, 1.0], math.nan),  # a NaN difference stays NaN, also beside an overflow
        ([1e200, math.nan], math.nan),
        ([[1e200, 0.0], [math.nan, 0.0]], math.nan),
    ],
)
def test_max_distance_rescales_the_norm_of_a_difference(r, want):
    with np.errstate(over="ignore"):
        got = max_distance(np.array(r), np.zeros_like(r))
    assert got == pytest.approx(want, rel=1e-15, abs=0.0, nan_ok=True)


def test_certificates_compile_nothing_once_the_projectors_have():
    # a distance compiled per m * d would take a slot of the cache the projector kernels share
    for m in (3, 4, 5):
        family = Family(tuple(Ball([float(i), 0.0, 0.0], 1.0) for i in range(m)))
        blocks = np.full((m, 3), 5.0)
        project_blocks(family, blocks)
        misses = compiled.cache_info().misses
        fixpoint_check(family, blocks)
        fair_point_residual(family, [5.0, 5.0, 5.0])
        assert compiled.cache_info().misses == misses


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


# d = 1..8, and 65 and 130: past the 64 terms of one compiled sum statement
DISTANCE_DIMS = st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 65, 130))


@st.composite
def point_pairs(draw, dims=DISTANCE_DIMS):
    """Two points of d coordinates up to the float maximum (2^1024): v is drawn alone,
    as -u (differences that overflow) or as u moved by one ulp (differences that
    underflow where u is small)."""
    d = draw(dims)
    u = draw(scaled_vectors(st.just(d), 1024))
    v = draw(
        st.one_of(
            scaled_vectors(st.just(d), 1024),
            st.just([-c for c in u]),
            st.just([math.nextafter(c, math.inf) for c in u]),
        )
    )
    return u, v


@settings(max_examples=300, deadline=None)
@given(point_pairs())
def test_distance_kernel_is_the_norm_of_the_difference(pair):
    u, v = pair
    want = norm([a - b for a, b in zip(u, v)])
    assert distance_kernel(len(u))(u, v).hex() == want.hex()


@st.composite
def row_pairs(draw):
    """Two (m, d) arrays of rows drawn as ``point_pairs``, each row at its own scale,
    or one 1-D pair."""
    d = draw(st.integers(1, 10))
    pairs = draw(st.lists(point_pairs(st.just(d)), min_size=1, max_size=5))
    u, v = (np.array(rows) for rows in zip(*pairs))
    return (u[0], v[0]) if len(pairs) == 1 and draw(st.booleans()) else (u, v)


@settings(max_examples=300, deadline=None)
@given(row_pairs())
def test_max_distance_is_the_largest_row_norm(pair):
    u, v = pair
    rows = zip(np.atleast_2d(u).tolist(), np.atleast_2d(v).tolist())
    want = max(norm([a - b for a, b in zip(ru, rv)]) for ru, rv in rows)
    with np.errstate(over="ignore"):
        assert max_distance(u, v).hex() == want.hex()


def test_distances_past_the_float_maximum_are_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not contains(Ball([-1e308, 0.0], 1.0), [1e308, 0.0], 1.0)
        _, distance = min_distance_pair(Ball([-1e308, 0.0], 1.0), Ball([1e308, 0.0], 1.0), [0.0, 5.0])
        assert distance == math.inf


def test_block_means_near_the_float_maximum_are_finite():
    family = Family((Ball([1.5e308, 0.0], 1.0), Ball([1.6e308, 0.0], 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fair_point_residual(family, [0.0, 0.0]) == 1.55e308
        r1, r2 = fixpoint_check(family, [[1.5e308, 0.0], [1.6e308, 0.0]])
        diagonal = diagonal_project(np.array([[1.5e308, 0.0], [1.6e308, 0.0]]))
    assert math.isfinite(r1) and r2 == 0.0
    assert diagonal.tolist() == [[1.55e308, 0.0]] * 2
