"""The compiled single-point kernels against the hand-written ones they replaced."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kernel_oracle, make_set, project_rows_loop
from cyclex import (
    Ball,
    Box,
    ConvexSet,
    Ellipsoid,
    EllipsoidNewtonFailure,
    Family,
    SolverConfig,
    project_blocks,
    run_periodic,
)

CLOSED_FORM = ("singleton", "segment", "ray", "ball", "box", "halfspace")
COMPILED = CLOSED_FORM + ("ellipsoid",)


def kernel_set(variant, dim, rng):
    """A catalog set, or a box with signed-zero bounds, or a radius-0 ball."""
    if variant == "zero_box":
        return Box(*np.where(rng.random((2, dim)) < 0.5, -0.0, 0.0))
    if variant == "zero_ball":
        return Ball(rng.uniform(-5, 5, dim), 0.0)
    return make_set(variant, dim, rng)


def hexes(p):
    # float.hex tells -0.0 from 0.0
    return [float(v).hex() for v in p]


def scaled_set(s, k):
    """The set s with every field times 10^k."""
    return type(s)(**{name: getattr(s, name) * 10.0**k for name in s._fields})


def probe_point(kind, s, k, rng):
    """A point inside or outside the set s (scaled by 10^k), its first field
    (a tie in the kernel's tests), signed zeros, or a point at either end of
    the float range."""
    dim = s.dim
    if kind == "field":
        return getattr(s, s._fields[0]).copy()
    if kind == "inside":
        # a member of the unscaled set, scaled: sampling the scaled set could overflow
        return scaled_set(s, -k).sample(rng) * 10.0**k
    if kind == "outside":
        return rng.uniform(-20, 20, dim) * 10.0**k
    if kind == "zeros":
        return np.where(rng.random(dim) < 0.5, -0.0, 0.0)
    exponents = rng.uniform(150, 308, dim) if kind == "huge" else rng.uniform(-320, -150, dim)
    return rng.choice([-1.0, 1.0], dim) * 10.0**exponents


def assert_kernels_agree(s, x):
    x = np.asarray(x, float).tolist()
    assert hexes(s._project(x)) == hexes(kernel_oracle(s)._project(x))


@settings(max_examples=400, deadline=None)
@given(
    variant=st.sampled_from(CLOSED_FORM + ("zero_box", "zero_ball")),
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([0, -300, -160, 160, 300]),
    kinds=st.lists(st.sampled_from(["inside", "outside", "field", "zeros", "huge", "tiny"]), min_size=1, max_size=4),
)
def test_compiled_kernels_equal_the_hand_written_ones(variant, dim, seed, k, kinds):
    # bit for bit, on one set across several points: badly scaled sets and
    # points go through _rescaled, whose copy binds its own kernel
    rng = np.random.default_rng(seed)
    s = scaled_set(kernel_set(variant, dim, rng), k)
    for kind in kinds:
        assert_kernels_agree(s, probe_point(kind, s, k, rng))


@pytest.mark.parametrize("variant", CLOSED_FORM)
@pytest.mark.parametrize("dim", [1, 300, 5000])
def test_compiled_kernels_at_the_dimension_edges(variant, dim):
    # d = 1 unpacks one name; d = 5000 sums in statements of a bounded length
    rng = np.random.default_rng(dim)
    s = make_set(variant, dim, rng)
    for kind in ("inside", "outside", "huge"):
        x = probe_point(kind, s, 0, rng)
        assert_kernels_agree(s, x)
        assert hexes(s.project(x)) == hexes(kernel_oracle(s).project(x))


def test_one_set_projects_a_rescaled_point_then_another():
    # the first call's scaled copy binds its own kernel and leaves the set's alone
    s = Ball([-1e308, 0.0], 1.0)
    first, second = s.project([3.0, 0.0]), s.project([1e308, 0.0])
    assert hexes(first) == hexes(Ball([-1e308, 0.0], 1.0).project([3.0, 0.0]))
    assert hexes(second) == hexes(Ball([-1e308, 0.0], 1.0).project([1e308, 0.0]))
    assert hexes(second) == hexes(kernel_oracle(s).project([1e308, 0.0]))


def outcome(s, x):
    """The bits of ``s._project(x)``, or the message of the Newton failure it raises."""
    try:
        return hexes(s._project(np.asarray(x, float).tolist()))
    except EllipsoidNewtonFailure as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    ratio=st.sampled_from([0, 2, 4]),
    k=st.sampled_from([0, -300, -160, -5, 5, 160, 300]),
    kinds=st.lists(st.sampled_from(["inside", "outside", "field", "zeros", "huge", "tiny"]), min_size=1, max_size=4),
)
def test_compiled_ellipsoid_equals_the_hand_written_one(dim, seed, ratio, k, kinds):
    # axes 10^ratio apart; a badly scaled set or point goes through _rescaled,
    # a Newton failure raises the same message
    rng = np.random.default_rng(seed)
    s = scaled_set(Ellipsoid(rng.uniform(-5, 5, dim), 10.0 ** rng.uniform(-ratio / 2, ratio / 2, dim)), k)
    for kind in kinds:
        x = probe_point(kind, s, k, rng)
        assert outcome(s, x) == outcome(kernel_oracle(s), x)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 300])
def test_compiled_ellipsoid_at_each_dimension(dim):
    # d = 300 sums in statements of a bounded length inside the Newton loop
    rng = np.random.default_rng(dim)
    s = Ellipsoid(rng.uniform(-5, 5, dim), 10.0 ** rng.uniform(-2, 2, dim))
    for kind in ("inside", "outside", "huge", "tiny"):
        x = probe_point(kind, s, 0, rng)
        assert outcome(s, x) == outcome(kernel_oracle(s), x)
        assert hexes(s.project(x)) == hexes(kernel_oracle(s).project(x))


def scaled_copy(s, axes):
    """The copy ``_rescaled`` makes of the ellipsoid s, with the given axes."""
    twin = object.__new__(type(s))
    vars(twin).update(s.__getstate__(), _scaled=True, _axes=axes)
    return twin


@pytest.mark.parametrize("axis", [1e-200, 1e200])
def test_scaled_copy_with_flat_or_unbounded_axes(axis):
    # an a^2 out of range sends the point to _rescaled, whose copy holds a^2 = 0
    # (a flat axis) or a^2 = inf (an unbounded one) and takes the limit formula
    s = Ellipsoid([0.0, 0.0], [axis, 1.0])
    a = math.ldexp(axis, -s._exponent([0.0, 3.0]))
    assert a * a in (0.0, math.inf)
    for x in ([0.0, 3.0], [0.5, -4.0], [-axis, 2.0]):
        assert outcome(s, x) == outcome(kernel_oracle(s), x)
    for axes in ((0.0, 1.0), (math.inf, 1.0), (0.0, math.inf), (math.inf, 0.5)):
        for x in ([0.5, 3.0], [0.0, -2.0]):
            assert outcome(scaled_copy(s, axes), x) == outcome(scaled_copy(kernel_oracle(s), axes), x)


def test_ellipsoid_newton_failure_keeps_its_message():
    # a subnormal a_0^2 at e = 0: the loop bisects towards t ~ 1e-320 for 200 steps
    s = Ellipsoid([0.0, 0.0], [1e-160, 1.0])
    with pytest.raises(EllipsoidNewtonFailure, match=r"^secular residual \S+ after 200 iterations$") as got:
        s.project([3e-160, 0.5])
    with pytest.raises(EllipsoidNewtonFailure) as want:
        kernel_oracle(s).project([3e-160, 0.5])
    assert str(got.value) == str(want.value)


def test_one_ellipsoid_projects_a_rescaled_point_then_another():
    # the rescaled point's copy binds its own kernel and leaves the set's alone
    s = Ellipsoid([0.0, 0.0], [1.0, 2.0])
    far, near = s.project([1e300, 1e300]), s.project([3.0, 3.0])
    assert hexes(far) == hexes(kernel_oracle(s).project([1e300, 1e300]))
    assert hexes(near) == hexes(Ellipsoid([0.0, 0.0], [1.0, 2.0]).project([3.0, 3.0]))
    assert hexes(near) == hexes(kernel_oracle(s).project([3.0, 3.0]))


@pytest.mark.parametrize("variant", COMPILED)
def test_sets_pickle_and_copy_after_projecting(variant):
    rng = np.random.default_rng(3)
    s = make_set(variant, 3, rng)
    x = rng.uniform(-8, 8, 3)
    want = hexes(s.project(x))
    for clone in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
        assert clone.descriptor() == s.descriptor()
        assert hexes(clone.project(x)) == want
        assert clone._project is not s._project


def test_family_pickles_and_copies_after_project_blocks():
    rng = np.random.default_rng(4)
    family = Family(tuple(make_set(v, 2, rng) for v in CLOSED_FORM + ("ball", "ball", "ball", "box")))
    y = rng.uniform(-8, 8, (family.m, 2))
    want = project_blocks(family, y)
    for clone in (pickle.loads(pickle.dumps(family)), copy.deepcopy(family)):
        assert clone.descriptor() == family.descriptor()
        assert project_blocks(clone, y).tobytes() == want.tobytes()


class UnitSquare(ConvexSet):
    """A user subclass that defines only ``_project``: the box [0, 1]^2."""

    dim = 2
    bounded = True

    def _project(self, x):
        return [0.0 if v <= 0.0 else 1.0 if v >= 1.0 else v for v in x]


def test_user_subclass_projects_through_its_own_method():
    square, box = UnitSquare(), Box([0.0, 0.0], [1.0, 1.0])
    ball = Ball([3.0, 0.5], 1.0)
    cfg = SolverConfig()
    traj, cycle = run_periodic(Family((square, ball)), [5.0, 5.0], cfg)
    want_traj, want_cycle = run_periodic(Family((box, ball)), [5.0, 5.0], cfg)
    assert traj.iterates.tobytes() == want_traj.iterates.tobytes()
    assert cycle.residual == want_cycle.residual
    family = Family((square, UnitSquare(), ball))
    y = np.array([[2.0, -1.0], [0.5, 0.25], [0.0, 0.0]])
    assert project_blocks(family, y).tobytes() == project_rows_loop(family, y).tobytes()
    assert project_blocks(family, y).tobytes() == project_blocks(Family((box, box, ball)), y).tobytes()


def test_subclass_without_a_kernel_is_not_implemented():
    class Bare(ConvexSet):
        dim = 2

    with pytest.raises(NotImplementedError):
        Bare().project([0.0, 0.0])
