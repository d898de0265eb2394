import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    VARIANTS,
    affine_plain_formula,
    dot_in_order,
    ellipse_boundary_oracle,
    ellipsoid_kkt_defects,
    ellipsoid_plain_solve,
    make_set,
    within_scaled,
)
from cyclex import (
    AffineSubspace,
    Ball,
    Box,
    DimensionMismatch,
    Ellipsoid,
    Family,
    Halfspace,
    Ray,
    Segment,
    Singleton,
    as_vector,
    contains,
    from_descriptor,
    min_norm_point,
    project,
    project_blocks,
)

coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def vec(dim):
    return st.lists(coord, min_size=dim, max_size=dim).map(np.array)


class TestProjectExamples:
    def test_ball_radial(self):
        assert np.allclose(project(Ball([0, 0], 1.0), [2, 0]), [1, 0])

    def test_halfspace_foot(self):
        assert np.allclose(project(Halfspace([0, 1], 1.0), [0, 2]), [0, 1])

    def test_segment_clamped_endpoint(self):
        # projection of the origin onto the chord lands on the inner endpoint
        got = project(Segment([1, 0], [0.5, 0.5]), [0, 0])
        assert np.array_equal(got, [0.5, 0.5])

    def test_ellipsoid_principal_axis(self):
        got = project(Ellipsoid([0, 0], [2, 1]), [4, 0])
        assert np.allclose(got, [2, 0], atol=1e-12)

    def test_interior_points_fixed(self):
        assert np.array_equal(project(Ball([0, 0], 2.0), [1, 0]), [1, 0])
        assert np.array_equal(project(Ellipsoid([0, 0], [2, 1]), [0.5, 0.1]), [0.5, 0.1])


class TestMinNormPoint:
    def test_singleton(self):
        assert np.array_equal(min_norm_point(Singleton([3, 4])), [3, 4])

    def test_symmetric_segment(self):
        assert np.allclose(min_norm_point(Segment([-1, 2], [1, 2])), [0, 2])

    def test_ball(self):
        # center minus radius along the unit center direction, ||(3,4)|| = 5
        assert np.allclose(min_norm_point(Ball([3, 4], 1.0)), [2.4, 3.2])

    def test_matches_projection_of_origin(self):
        rng = np.random.default_rng(5)
        for variant in VARIANTS:
            s = make_set(variant, 3, rng)
            assert np.array_equal(min_norm_point(s), project(s, np.zeros(3)))


class TestContains:
    def test_boundary(self):
        assert contains(Ball([0, 0], 1.0), [1, 0], 0.0)

    def test_outside(self):
        assert not contains(Ball([0, 0], 1.0), [1.5, 0], 0.1)

    def test_interior_halfspace(self):
        assert contains(Halfspace([1, 0], 0.0), [-2, 7], 0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            contains(Ball([0, 0], 1.0), [0, 0], -1.0)


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project(Ball([0, 0], 1.0), [1, 2, 3])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_vector([np.nan, 0.0])
        with pytest.raises(ValueError):
            project(Ball([0, 0], 1.0), [np.inf, 0.0])

    def test_bad_constructions(self):
        with pytest.raises(ValueError):
            Ball([0, 0], -1.0)
        with pytest.raises(ValueError):
            Ray([0, 0])
        with pytest.raises(ValueError):
            Halfspace([0, 0], 1.0)
        with pytest.raises(ValueError):
            Box([0, 1], [1, 0])
        with pytest.raises(ValueError):
            Ellipsoid([0, 0], [1, 0])
        with pytest.raises(ValueError):
            AffineSubspace([0, 0], [[1, 1]])

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Singleton([[1, 2]]), ValueError, "point must be a nonempty 1-D array"),
            (lambda: Singleton([np.nan]), ValueError, "point has non-finite entries"),
            (lambda: Segment([], [1]), ValueError, "a must be a nonempty 1-D array"),
            (lambda: Segment([0, 0], [1]), DimensionMismatch, "b must match the dimension of a"),
            (lambda: Ray([0, 0]), ValueError, "direction must be nonzero"),
            (lambda: Ball([0, np.inf], -1.0), ValueError, "center has non-finite entries"),
            (lambda: Ball([0, 0], "r"), ValueError, "could not convert string to float: 'r'"),
            (lambda: Ball([0, 0], -1.0), ValueError, "radius must be finite and >= 0"),
            (lambda: Box([0, 1], [1]), DimensionMismatch, "upper must match the dimension of lower"),
            (lambda: Box([0, 1], [1, 0]), ValueError, "lower must be <= upper componentwise"),
            (lambda: Halfspace([0, 0], np.inf), ValueError, "normal must be nonzero"),
            (lambda: Halfspace([1, 0], np.inf), ValueError, "offset must be finite"),
            (lambda: AffineSubspace([[0]], [[1]]), ValueError, "anchor must be a nonempty 1-D array"),
            (lambda: AffineSubspace([0, 0], [1, 0]), ValueError,
             "basis must be a nonempty 2-D array of row vectors"),
            (lambda: AffineSubspace([0, 0], [[1, 0, 0]]), DimensionMismatch,
             "basis vectors must match anchor dimension"),
            (lambda: Ellipsoid([0, 0], [0, 1, 2]), DimensionMismatch, "axes must match the dimension of center"),
            (lambda: Ellipsoid([0, 0], [1, 0]), ValueError, "axes must be positive"),
        ],
    )
    def test_construction_messages_in_field_order(self, build, error, message):
        # fields are checked in declaration order, the variant's own rules last
        with pytest.raises(error) as exc_info:
            build()
        assert str(exc_info.value) == message

    def test_dim_is_the_length_of_the_first_field(self):
        rng = np.random.default_rng(2)
        for variant in VARIANTS:
            s = make_set(variant, 3, rng)
            assert s.dim == 3 and vars(s)["dim"] == 3
            assert all(not v.flags.writeable for v in vars(s).values() if isinstance(v, np.ndarray))

    def test_family_checks(self):
        with pytest.raises(ValueError):
            Family((Ball([0, 0], 1.0),))
        with pytest.raises(DimensionMismatch):
            Family((Ball([0, 0], 1.0), Singleton([1, 2, 3])))


@settings(max_examples=60, deadline=None)
@given(x=vec(2), c=vec(2), r=st.floats(0.0, 5.0))
def test_ball_projection_properties(x, c, r):
    ball = Ball(c, r)
    p = project(ball, x)
    assert np.linalg.norm(p - c) <= r + 1e-12
    assert np.array_equal(project(ball, p), p) or np.linalg.norm(project(ball, p) - p) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(x=vec(3), a=vec(3), b=vec(3))
def test_segment_projection_is_best_on_segment(x, a, b):
    seg = Segment(a, b)
    p = project(seg, x)
    # no sampled segment point improves on the projection
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        q = a + t * (b - a)
        assert np.linalg.norm(x - p) <= np.linalg.norm(x - q) + 1e-9


@settings(max_examples=60, deadline=None)
@given(x=vec(4), lo=vec(4), width=st.lists(st.floats(0.0, 5.0), min_size=4, max_size=4))
def test_box_projection_is_clip(x, lo, width):
    hi = lo + np.asarray(width)
    box = Box(lo, hi)
    assert np.array_equal(project(box, x), np.clip(x, lo, hi))


@settings(max_examples=60, deadline=None)
@given(x=vec(2), n=vec(2), b=coord)
def test_halfspace_projection_lands_on_set(x, n, b):
    if np.linalg.norm(n) < 1e-6:
        return
    hs = Halfspace(n, b)
    p = project(hs, x)
    assert float(n @ p) <= b + 1e-9 * (1.0 + abs(b) + np.linalg.norm(n))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dim", [1, 2, 4])
def test_projector_invariants(variant, dim):
    if variant in ("affine",) and dim < 1:
        pytest.skip("needs dim >= 1")
    rng = np.random.default_rng(hash((variant, dim)) % 2**32)
    for _ in range(200):
        s = make_set(variant, dim, rng)
        x = rng.uniform(-10, 10, dim)
        y = rng.uniform(-10, 10, dim)
        px = project(s, x)
        # idempotence
        assert np.linalg.norm(project(s, px) - px) <= 1e-12
        # nonexpansiveness
        assert np.linalg.norm(px - project(s, y)) <= np.linalg.norm(x - y) + 1e-12
        # membership
        assert contains(s, px, 1e-10)
        # variational inequality against sampled members
        for _ in range(3):
            c = s.sample(rng)
            assert float((x - px) @ (c - px)) <= 1e-10


def test_ellipsoid_matches_boundary_search_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        e = Ellipsoid(rng.uniform(-3, 3, 2), rng.uniform(0.3, 3.0, 2))
        x = rng.uniform(-8, 8, 2)
        if contains(e, x, 0.0):
            continue
        assert np.linalg.norm(project(e, x) - ellipse_boundary_oracle(e, x)) <= 1e-8


def test_ellipsoid_handles_extreme_aspect():
    e = Ellipsoid([0, 0], [1e-3, 1e3])
    p = project(e, [5.0, 5.0])
    w = (p - np.zeros(2)) / e.axes
    assert abs(float(w @ w) - 1.0) <= 1e-10


@st.composite
def ellipsoid_and_exterior_point(draw):
    """An ellipsoid in d = 2..6 with axis ratio up to 1e6, and a point
    outside it from 1e-9 to 1e3 times the center-to-boundary distance,
    pushed out along the outer normal or radially in scaled coordinates."""
    d = draw(st.integers(2, 6))

    def floats(lo, hi):
        return st.lists(st.floats(lo, hi), min_size=d, max_size=d).map(np.array)

    axes = 10.0 ** draw(floats(0.0, 6.0)) * 10.0 ** draw(st.floats(-3.0, 3.0))
    center = draw(floats(-1.0, 1.0)) * 10.0 ** draw(st.floats(-3.0, 3.0))
    u = draw(floats(-1.0, 1.0).filter(lambda v: np.linalg.norm(v) > 1e-3))
    u = u / np.linalg.norm(u)
    rho = 10.0 ** draw(st.floats(-9.0, 3.0))
    b = center + axes * u  # on the boundary
    if draw(st.booleans()):
        normal = u / axes
        x = b + (rho * np.linalg.norm(b - center) / np.linalg.norm(normal)) * normal
    else:
        x = center + (1.0 + rho) * axes * u
    return Ellipsoid(center, axes), x


@settings(max_examples=300, deadline=None)
@given(case=ellipsoid_and_exterior_point())
def test_ellipsoid_projection_meets_kkt_oracle(case):
    e, x = case
    boundary, mu, misalignment = ellipsoid_kkt_defects(e, x, project(e, x))
    assert boundary <= 1.0
    assert mu >= 0.0
    assert misalignment <= 1.0


def test_ball_projects_points_whose_squared_norm_overflows():
    got = project(Ball([0, 0], 1.0), [1e200, 1e200])
    far = project(Ball([1, 2, 3], 2.0), [-1e300, 0.0, 1e300])
    assert np.allclose(got, [math.sqrt(0.5), math.sqrt(0.5)], rtol=1e-15, atol=0.0)
    assert np.allclose(far, [1 - math.sqrt(2), 2, 3 + math.sqrt(2)], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize(
    "center, radius, x, nearest, distance",
    [
        # ||x - c|| is 2e308, 2e308 and sqrt(5) 1e308: x - c itself overflows
        ([-1e308, 0.0], 1.0, [1e308, 0.0], [-1e308 + 1.0, 0.0], 2.0),
        ([1e308, 1e308], 1.0, [-1e308, 1e308], [1e308 - 1.0, 1e308], 2.0),
        (
            [-1e308, 0.0],
            1e300,
            [1e308, 1e308],
            [-1e308 + 2e300 / math.sqrt(5), 1e300 / math.sqrt(5)],
            math.sqrt(5),
        ),
        # ||x - c||^2 overflows for a point inside, and underflows to 0 for one outside
        ([0.0, 0.0], 3e301, [2e301, 2e301], [2e301, 2e301], math.sqrt(2)),
        ([0.0, 0.0], 1e-170, [5e-170, 0.0], [1e-170, 0.0], 1.0),
    ],
)
def test_ball_projects_points_whose_difference_overflows(center, radius, x, nearest, distance):
    # the nearest point, finite and without a warning, alone and in a batched
    # group; distance is ||x - c|| over the largest |coordinate| of x and c,
    # which neither overflows nor underflows
    ball = Ball(center, radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = project(ball, x)
        rows = Ball._batch_rows  # the fewest balls that take the batched kernel
        batched = project_blocks(Family((ball,) * rows), np.array([x] * rows))
    scale = max(np.abs(x).max(), np.abs(center).max())
    assert np.isfinite(got).all()
    assert np.abs(got - nearest).max() <= 1e-12 * distance * scale
    assert np.array_equal(batched, np.array([got] * rows))


@pytest.mark.parametrize(
    "s, c, x, nearest",
    [
        (Segment([-1e308, 0], [1e308, 0]), [-1e308, 0], [0, 1], [0, 0]),  # b - a overflows
        (Ray([1, 1]), [0, 0], [1e308, 1e308], [1e308, 1e308]),  # x . u overflows
        (Halfspace([1, 1], 0), [0, 0], [1e308, 1e308], [0, 0]),  # u . x overflows
        (AffineSubspace([1e308, 0], [[1, 0]]), [1e308, 0], [-1e308, 1], [-1e308, 0]),  # x - anchor overflows
        # ||a w||^2 underflows: 1e-100 times the projection of (5, 5) onto axes (1, 2)
        (
            Ellipsoid([0, 0], [1e-100, 2e-100]),
            [0, 0],
            [5e-100, 5e-100],
            1e-100 * project(Ellipsoid([0, 0], [1, 2]), [5, 5]),
        ),
        # one axis squares past the float range, the other to 0
        (Ellipsoid([0, 0], [1e300, 1e-300]), [0, 0], [1e10, 1e10], [1e10, 0]),
        (Ellipsoid([0, 0], [1e-200, 1]), [0, 0], [2e-200, 0.9], [0, 0.9]),
    ],
)
def test_badly_scaled_inputs_project_onto_their_nearest_point(s, c, x, nearest):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = project(s, x)
    assert np.isfinite(got).all()
    assert within_scaled(got, nearest, x, c)


def test_ellipsoid_projects_far_points_without_overflow_warnings():
    # the interior test (w / a)^2 and the Newton bracket a w @ a w overflow here;
    # the pytest configuration turns any numpy warning into an error
    got = project(Ellipsoid([0, 0], [1, 2]), [1e200, 1e200])
    far = project(Ellipsoid([1, 2, 3], [2, 1, 1]), [-1e300, 0.0, 1e300])
    # far along (1, 1) the normal a^-2 p is parallel to (1, 1): p = (1, 4) / sqrt(5)
    assert np.allclose(got, [1 / math.sqrt(5), 4 / math.sqrt(5)], rtol=1e-13, atol=0.0)
    assert np.allclose(far, [1 - 4 / math.sqrt(5), 2, 3 + 1 / math.sqrt(5)], rtol=1e-13, atol=0.0)


def test_ellipsoid_rescales_when_the_plain_solve_overflows():
    # a^2 w overflows for the first, w / a for the second; both without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = project(Ellipsoid([0, 0], [1e100, 2e100]), [1e200, 1e200])
        thin = project(Ellipsoid([0, 0], [1e-200, 1]), [1e200, 0])
    # scaled by 1e-100 the first is the far point of axes (1, 2) along
    # (1, 1): p = (1, 4) / sqrt(5); the second's nearest point is (1e-200, 0)
    assert np.allclose(wide, [1e100 / math.sqrt(5), 4e100 / math.sqrt(5)], rtol=1e-13, atol=0.0)
    assert np.linalg.norm(thin - [1e-200, 0.0]) <= 1e-12 * 1e200


@pytest.mark.parametrize(
    "axes, x, nearest",
    [
        ([1e150, 1.0], [1e10, 1e10], [1e10, 1.0]),  # a^2 w overflows, ||w||^2 does not
        ([1e-300, 1.0], [1e10, 0.5], [1e-300, 0.5]),  # w / a overflows
    ],
)
def test_ellipsoid_rescales_points_at_a_moderate_distance(axes, x, nearest):
    # the plain solve would overflow although ||x - c||^2 does not; the
    # nearest point is known to far below 1e-12 * ||x - c|| in each case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = project(Ellipsoid([0, 0], axes), x)
    assert np.linalg.norm(got - nearest) <= 1e-12 * np.linalg.norm(x)


# the descriptor fields that are lengths or positions, which scale with the
# set (directions and the affine basis do not), and the field of the point c
# that measures the tolerance (the origin where None)
SCALED_FIELDS = {
    "singleton": (("point",), "point"),
    "segment": (("a", "b"), "a"),
    "ray": ((), None),
    "ball": (("center", "radius"), "center"),
    "box": (("lower", "upper"), "lower"),
    "halfspace": (("offset",), None),
    "affine": (("anchor",), "anchor"),
    "ellipsoid": (("center", "axes"), "center"),
}


@pytest.mark.parametrize("k", [-1000, -500, -200, 200, 500, 1000])
@pytest.mark.parametrize("variant", VARIANTS)
def test_projection_scales_with_the_set(variant, k):
    # 2^-k P_{2^k C}(2^k x) = P_C(x): nothing leaves the float range at k = 0
    rng = np.random.default_rng([VARIANTS.index(variant), k + 1000])
    scaled, center = SCALED_FIELDS[variant]
    for _ in range(200):
        s = make_set(variant, 3, rng)
        x = rng.uniform(-10, 10, 3)
        desc = s.descriptor()
        for name in scaled:
            desc[name] = np.ldexp(desc[name], k).tolist()
        big = from_descriptor(desc)
        got = np.ldexp(project(big, np.ldexp(x, k)), -k)
        c = np.zeros(3) if center is None else getattr(s, center)
        assert np.linalg.norm(got - project(s, x)) <= 1e-12 * np.linalg.norm(x - c)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), exponent=st.integers(-3, 300))
def test_ellipsoid_points_keep_the_plain_solve(seed, dim, exponent):
    # near and far points that would not overflow keep the bits of the plain solve
    rng = np.random.default_rng(seed)
    ellipsoid = Ellipsoid(rng.uniform(-5, 5, dim), 10.0 ** rng.uniform(-3, 3, dim))
    x = 10.0**exponent * rng.uniform(-1, 1, dim)
    want = ellipsoid_plain_solve(ellipsoid, x)
    if want is not None:
        assert project(ellipsoid, x).tolist() == want.tolist()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5), exponent=st.integers(-100, 100))
def test_affine_points_keep_the_plain_formula(seed, dim, exponent):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, int(rng.integers(1, dim + 1)))))
    affine = AffineSubspace(10.0**exponent * rng.uniform(-5, 5, dim), q.T)
    x = 10.0**exponent * rng.uniform(-10, 10, dim)
    assert project(affine, x).tolist() == affine_plain_formula(affine, x).tolist()


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_halfspace_projects_with_badly_scaled_normals(scale):
    # scale * n and scale * b describe the halfspace {3 y_0 + 4 y_1 <= 5}
    got = project(Halfspace([3.0 * scale, 4.0 * scale], 5.0 * scale), [10.0, -2.0])
    assert np.allclose(got, [7.96, -4.72], rtol=1e-15, atol=0.0)


def test_halfspace_overflowing_normal_projects_onto_the_set():
    hs = Halfspace([1e200, 0], 0.0)
    inside = project(hs, [3, 0])
    far = project(hs, [1e200, 0])
    assert inside.tolist() == [0.0, 0.0]
    assert far.tolist() == [0.0, 0.0]


def test_halfspace_accepts_a_normal_whose_square_underflows():
    hs = Halfspace([1e-170, 0], 0.0)
    assert project(hs, [3, 0]).tolist() == [0.0, 0.0]
    assert project(hs, [-3, 5]).tolist() == [-3.0, 5.0]


def test_halfspace_with_no_representable_point_is_rejected():
    # {1e-310 y_0 <= -1e300} needs y_0 <= -1e610: no float is that far out
    with pytest.raises(ValueError, match="no point is representable"):
        Halfspace([1e-310, 0], -1e300)


def test_halfspace_containing_every_float_projects_points_onto_themselves():
    # {1e-310 y_0 <= 1e300} holds every y_0 up to 1e610
    hs = Halfspace([1e-310, 0], 1e300)
    assert project(hs, [1e308, 5]).tolist() == [1e308, 5.0]
    assert project(hs, [-1e308, -5]).tolist() == [-1e308, -5.0]


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_ray_projects_with_badly_scaled_directions(scale):
    # scale * (3, 4) spans the ray through (0.6, 0.8)
    got = project(Ray([3.0 * scale, 4.0 * scale]), [10.0, -2.0])
    back = project(Ray([3.0 * scale, 4.0 * scale]), [-10.0, 2.0])
    assert np.allclose(got, [2.64, 3.52], rtol=1e-15, atol=0.0)
    assert back.tolist() == [0.0, 0.0]


def test_ray_projects_points_whose_dot_overflows():
    on_ray = project(Ray([1e200, 0]), [1e200, 0])
    far = project(Ray([1e10, 1.0]), [1e300, 0.0])  # x @ u overflows, u @ u does not
    assert on_ray.tolist() == [1e200, 0.0]
    assert np.allclose(far, [1e300, 1e290], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_segment_projects_with_badly_scaled_ends(scale):
    # [0, scale * (3, 4)]: the point scale * (1.5, 2) + q with q orthogonal
    # to (3, 4) projects onto the midpoint, points far beyond onto the ends
    seg = Segment([0.0, 0.0], [3.0 * scale, 4.0 * scale])
    mid = project(seg, [1.5 * scale - 4.0 * scale, 2.0 * scale + 3.0 * scale])
    past_b = project(seg, [6.0 * scale, 8.0 * scale])
    before_a = project(seg, [-3.0 * scale, -4.0 * scale])
    assert np.allclose(mid, [1.5 * scale, 2.0 * scale], rtol=1e-15, atol=0.0)
    assert past_b.tolist() == seg.b.tolist()
    assert before_a.tolist() == [0.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6), exponent=st.integers(-100, 100))
def test_ray_and_segment_keep_their_formula_in_the_normal_range(seed, dim, exponent):
    # the rescaled paths only take over outside the normal range
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    u, a, b = (scale * rng.uniform(-1, 1, dim) for _ in range(3))
    x = scale * rng.uniform(-2, 2, dim)
    if np.any(u != 0):
        t = dot_in_order(x, u) / dot_in_order(u, u)
        want = np.zeros(dim) if t <= 0.0 else t * u
        assert project(Ray(u), x).tolist() == want.tolist()
    d = b - a
    t = dot_in_order(x - a, d) / dot_in_order(d, d)
    want = a if t <= 0.0 else b if t >= 1.0 else a + t * d
    assert project(Segment(a, b), x).tolist() == want.tolist()


def test_descriptor_round_trip():
    rng = np.random.default_rng(23)
    for variant in VARIANTS:
        s = make_set(variant, 3, rng)
        clone = from_descriptor(s.descriptor())
        x = rng.uniform(-6, 6, 3)
        assert np.allclose(project(s, x), project(clone, x), atol=1e-12)


def test_from_descriptor_rejects_unknown():
    with pytest.raises(ValueError):
        from_descriptor({"type": "cone", "apex": [0, 0]})
    with pytest.raises(ValueError):
        from_descriptor({"type": "ball", "center": [0, 0]})
    with pytest.raises(ValueError):
        from_descriptor({"type": "ball", "center": [0, 0], "radius": 1, "extra": 2})
    with pytest.raises(ValueError, match="unknown set type"):
        from_descriptor({"type": ["ball"], "center": [0, 0], "radius": 1})


def test_descriptor_fields_follow_the_dataclass():
    assert Ball([1, 2], 3).descriptor() == {"type": "ball", "center": [1.0, 2.0], "radius": 3.0}
    assert Halfspace([0, 1], 2).descriptor() == {"type": "halfspace", "normal": [0.0, 1.0], "offset": 2.0}
    with pytest.raises(ValueError, match="^segment descriptor missing fields: a, b$"):
        from_descriptor({"type": "segment"})
    with pytest.raises(ValueError, match="^ray descriptor has unknown fields: a, z$"):
        from_descriptor({"type": "ray", "direction": [1, 0], "z": 0, "a": 1})
