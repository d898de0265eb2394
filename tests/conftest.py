"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import csv
import io
import math
import sys
import tracemalloc
from itertools import repeat
from functools import reduce
from operator import add, mul, sub, truediv

import numpy as np

from cyclex import (
    AffineSubspace,
    Ball,
    Box,
    Ellipsoid,
    EllipsoidNewtonFailure,
    Halfspace,
    Ray,
    Segment,
    Singleton,
)
from cyclex.geometry import _SECULAR_MAX_ITER, _SECULAR_TOL
from cyclex.sums import dot_last

VARIANTS = (
    "singleton",
    "segment",
    "ray",
    "ball",
    "box",
    "halfspace",
    "affine",
    "ellipsoid",
)


def random_unit(rng, dim):
    while True:
        g = rng.standard_normal(dim)
        n = float(np.linalg.norm(g))
        if n > 1e-6:
            return g / n


def make_set(variant, dim, rng):
    """A random instance of one catalog variant in the given dimension."""
    if variant == "singleton":
        return Singleton(rng.uniform(-5, 5, dim))
    if variant == "segment":
        a = rng.uniform(-5, 5, dim)
        if rng.random() < 0.05:
            return Segment(a, a)  # degenerate endpoint pair
        return Segment(a, rng.uniform(-5, 5, dim))
    if variant == "ray":
        return Ray(random_unit(rng, dim) * rng.uniform(0.5, 2.0))
    if variant == "ball":
        return Ball(rng.uniform(-5, 5, dim), rng.uniform(0.0, 3.0))
    if variant == "box":
        lower = rng.uniform(-5, 0, dim)
        return Box(lower, lower + rng.uniform(0.0, 4.0, dim))
    if variant == "halfspace":
        return Halfspace(random_unit(rng, dim), rng.uniform(-5, 5))
    if variant == "affine":
        k = int(rng.integers(1, dim + 1))
        q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
        return AffineSubspace(rng.uniform(-5, 5, dim), q.T)
    if variant == "ellipsoid":
        return Ellipsoid(rng.uniform(-5, 5, dim), rng.uniform(0.3, 3.0, dim))
    raise ValueError(variant)


def ellipse_boundary_oracle(ellipsoid: Ellipsoid, x, grid=4096):
    """Nearest boundary point of a 2-D ellipse by dense search over the
    boundary parameterization: grid scan, golden section, then a bisection
    polish on the (analytic) distance derivative, which sidesteps the
    sqrt-eps accuracy floor of comparison-only minimization.

    Independent of the secular-equation path; valid for exterior points,
    where the nearest point of the solid ellipse lies on the boundary.
    """
    c = ellipsoid.center
    a1, a2 = ellipsoid.axes
    x = np.asarray(x, float)

    def boundary(theta):
        return np.stack([c[0] + a1 * np.cos(theta), c[1] + a2 * np.sin(theta)], axis=-1)

    def dist2(theta):
        p = boundary(theta)
        d = p - x
        return np.sum(d * d, axis=-1)

    def ddist2(theta):
        px = c[0] + a1 * math.cos(theta)
        py = c[1] + a2 * math.sin(theta)
        return -2.0 * ((x[0] - px) * (-a1 * math.sin(theta)) + (x[1] - py) * (a2 * math.cos(theta)))

    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    k = int(np.argmin(dist2(thetas)))
    span = 2.0 * math.pi / grid
    lo, hi = thetas[k] - span, thetas[k] + span

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    u, v = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fu, fv = dist2(u), dist2(v)
    while hi - lo > 1e-6:
        if fu < fv:
            hi, v, fv = v, u, fu
            u = hi - invphi * (hi - lo)
            fu = dist2(u)
        else:
            lo, u, fu = u, v, fv
            v = lo + invphi * (hi - lo)
            fv = dist2(v)

    glo, ghi = ddist2(lo), ddist2(hi)
    if glo < 0.0 < ghi:
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if ddist2(mid) < 0.0:
                lo = mid
            else:
                hi = mid
    return boundary(0.5 * (lo + hi))


def ellipsoid_kkt_defects(ellipsoid: Ellipsoid, x, p):
    """How far ``p`` is from satisfying the KKT conditions of projecting
    the point ``x`` onto a solid ellipsoid, from the conditions alone
    (no secular equation, no multiplier from the kernel).

    For x outside, p is the projection iff p lies on the boundary and
    x - p = mu (p - c) / a^2 for some mu >= 0.  Returns
    ``(boundary, mu, misalignment)``: the boundary defect
    |sum(((p - c)/a)^2) - 1| as a multiple of its allowance
    ``rtol + 4 eps (1 + ||p/a|| + ||c/a||)``; the least-squares mu; and
    ||x - p - mu (p - c)/a^2|| as a multiple of its allowance
    ``rtol ||x - p|| + 16 eps (||x|| + ||p|| + mu ||(|p| + |c|)/a^2||)``.
    The eps terms are what rounding p and c to float64 alone can cause,
    so a correct projection reads at most 1 on both defects.
    """
    rtol = 1e-12
    eps = np.finfo(float).eps
    c, a = ellipsoid.center, ellipsoid.axes
    x, p = np.asarray(x, float), np.asarray(p, float)
    norm = np.linalg.norm
    z = (p - c) / a
    boundary = abs(float(z @ z) - 1.0) / (rtol + 4 * eps * (1 + norm(p / a) + norm(c / a)))
    g = z / a  # outer normal (p - c) / a^2
    r = x - p
    mu = float(r @ g) / float(g @ g)
    slack = rtol * norm(r) + 16 * eps * (norm(x) + norm(p) + mu * norm((abs(p) + abs(c)) / a**2))
    misalignment = float(norm(r - mu * g)) / slack
    return boundary, mu, misalignment


def ellipsoid_plain_solve(ellipsoid: Ellipsoid, x):
    """The projection of ``x`` onto an ellipsoid by the plain secular
    solve (see ``cyclex.Ellipsoid``) written in numpy, or None where one of
    its intermediates overflows, divides by zero or is invalid.

    Its elementwise operations come in the kernel's order, and each sum
    is an ``np.add.accumulate``, which adds in index order: where it
    returns a point, the float kernel must return the same bits.
    """
    c, a = ellipsoid.center, ellipsoid.axes
    x = np.asarray(x, float)
    w = x - c

    def total(v):
        return float(np.add.accumulate(v)[-1])

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            q = w / a
            if total(q * q) <= 1.0:
                return x
            a2, aw = a * a, a * w
            t = max(0.0, float((np.abs(aw) - a2).max()))
            lo, hi = t, math.sqrt(total(aw * aw))
            for _ in range(200):
                d = a2 + t
                r2 = (aw / d) * (aw / d)
                s = total(r2)
                if abs(s - 1.0) <= 1e-13:
                    break
                if s > 1.0:
                    lo = t
                else:
                    hi = t
                t_new = t + s * (math.sqrt(s) - 1.0) / total(r2 / d)
                t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
            else:
                raise EllipsoidNewtonFailure(f"secular residual {s - 1.0:.3e} after 200 iterations")
            return c + (a2 * w) / (a2 + t)
    except FloatingPointError:
        return None


def affine_plain_formula(affine: AffineSubspace, x):
    """anchor + B^T (B (x - anchor)) with numpy, each sum of products in
    index order: the bits the affine kernel returns in the normal range."""
    b, anchor = affine.basis, affine.anchor
    return anchor + dot_last(b.T, dot_last(b, np.asarray(x, float) - anchor))


def within_scaled(got, want, x, c, rtol=1e-12):
    """Whether ||got - want|| <= rtol ||x - c||, both norms taken on the
    points scaled by the power of two that brings the largest coordinate
    of x and c into [0.5, 1), where neither norm overflows or underflows."""
    e = math.frexp(float(np.max(np.abs([x, c]))))[1]

    def scaled(v):
        return np.ldexp(np.asarray(v, float), -e)

    return np.linalg.norm(scaled(got) - scaled(want)) <= rtol * np.linalg.norm(scaled(x) - scaled(c))


def central_difference_gradient(obj, y, h=1e-6):
    """Blockwise central finite differences of an objective's value."""
    y = np.asarray(y, float)
    grad = np.zeros_like(y)
    for i in range(y.shape[0]):
        for j in range(y.shape[1]):
            bump = np.zeros_like(y)
            bump[i, j] = h
            grad[i, j] = (obj.value(y + bump) - obj.value(y - bump)) / (2.0 * h)
    return grad


def equilateral_ball_family_oracle(centers, radius):
    """Symmetric limit of the parallel scheme on equidistant balls.

    Reduces to the travel distance t of every block from its center
    toward the common centroid and solves the 1-D fixed-point equation
    t = min(radius, distance from center to the mean of the other blocks)
    by bisection on [0, R0].
    """
    centers = np.asarray(centers, float)
    centroid = centers.mean(axis=0)
    r0 = float(np.linalg.norm(centroid - centers[0]))

    def step(t):
        # mean of the others sits at distance r0 + (r0 - t)/2 from a center
        return min(radius, r0 + 0.5 * (r0 - t))

    lo, hi = 0.0, r0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if step(mid) > mid:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    blocks = []
    for c in centers:
        v = (centroid - c) / np.linalg.norm(centroid - c)
        blocks.append(c + t * v)
    return np.asarray(blocks), t


def dot_in_order(u, v):
    """u . v as the literal loop on Python floats: the first product, then
    each further product added in index order.  cyclex defines every dot
    product and norm by this one order, so that IEEE-754 alone fixes their
    bits (a BLAS dot picks its own order per CPU)."""
    u, v = np.asarray(u, float).tolist(), np.asarray(v, float).tolist()
    total = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        total += a * b
    return total


def pairwise_squared_loop(y):
    """Pairwise objective as the literal double loop over i < j, summed left
    to right from 0.0 with one in-order dot product per pair."""
    m = y.shape[0]
    total = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            d = y[i] - y[j]
            total += dot_in_order(d, d)
    return total / (2.0 * (m - 1.0))


def rescaled_norm_oracle(norm_of, row, underflow=True):
    """``norm_of(row)`` of a 1-D row; where the row is nonzero and its square
    sum overflows, or (``underflow``) is subnormal (its root below 2^-511),
    2^e norm_of(2^-e row) with 2^e above the row's largest |coordinate| by
    less than a factor of two."""
    value = float(norm_of(row))
    if math.isnan(value) or not row.any() or (2.0**-511 if underflow else 0.0) <= value < math.inf:
        return value
    e = math.frexp(float(np.max(np.abs(row))))[1]
    return math.ldexp(float(norm_of(np.array([math.ldexp(v, -e) for v in row.tolist()]))), e)


def in_order_norm_oracle(row, underflow=True):
    """The in-order norm of a 1-D row, rescaled where its squares leave the range."""
    return rescaled_norm_oracle(lambda v: math.sqrt(dot_in_order(v, v)), np.asarray(row, float), underflow)


def perimeter_formula(y):
    """Sum of the cyclic block distances of one (m, d) tuple, each its in-order
    norm; an edge whose squares overflow is rescaled."""
    edges = y - np.roll(y, -1, axis=0)
    return np.sum([in_order_norm_oracle(e, underflow=False) for e in edges])


def cyclic_squared_formula(y):
    """Sum of the squared cyclic block distances of one (m, d) tuple."""
    d = y - np.roll(y, -1, axis=0)
    return np.sum(d * d)


def quadratic_to_target_formula(y, target):
    """Half the squared product distance of one (m, d) tuple to the target."""
    d = y - target
    return 0.5 * float(np.sum(d * d))


# each builtin candidate's value at one (m, d) tuple, written out apart
# from the stacked kernels of cyclex.impossibility
CANDIDATE_FORMULAS = {
    "perimeter": perimeter_formula,
    "pairwise2": pairwise_squared_loop,
    "cyclic2": cyclic_squared_formula,
    "constant": lambda y: 0.0,
    "tuple_norm": lambda y: in_order_norm_oracle(y.ravel(), underflow=False),
}


def project_rows_loop(family, y):
    """The blockwise projection row by row: one ``_project`` call per block,
    on the block's list of Python floats."""
    return np.array([s._project(row) for s, row in zip(family.sets, y.tolist())])


def assert_rows_replay_sweeps(family, traj):
    """Each sweep's rows equal, bit for bit, the sets' own ``_project`` applied
    last set first, replayed from the recorded start."""
    x, rows = traj.start.tolist(), []
    for _ in range(traj.sweeps_used):
        for s in reversed(family.sets):
            x = s._project(x)
            rows.append(x)
    assert np.array_equal(traj.iterates, np.array(rows, dtype=float).reshape(-1, family.dim))


def traced_peak(run):
    """``run()`` under tracemalloc: its result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def csv_writer_bytes(header, rows):
    """What ``csv.writer`` with newline line ends writes for a header and rows
    whose cells are ints or floats; floats are written as their repr."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, int) else repr(float(c)) for c in row])
    return buf.getvalue().encode()


def iteration_csv_bytes(log):
    """What ``csv.writer`` writes for an iteration log: the header, then per
    row the iteration, the three scalars and the blocks, every float by its
    repr."""
    _, m, d = log["blocks"].shape
    header = ["iter", "objective_value", "displacement", "stationarity_residual"]
    header += [f"block{i}_x{j}" for i in range(m) for j in range(d)]
    rows = [
        [i, r["objective"], r["displacement"], r["stationarity"], *r["blocks"].ravel()]
        for i, r in enumerate(log)
    ]
    return csv_writer_bytes(header, rows)


def falsify_candidate_loop(candidate, m, z, rho, sphere_samples, rng):
    """The falsifier as a plain per-probe loop: every probe tuple stacked
    with ``np.stack`` and evaluated through the validating ``candidate(...)``,
    each sphere point computed on its own with ``math.cos``/``math.sin``."""
    from cyclex.impossibility import (
        EQUALITY_1,
        EQUALITY_2,
        STRICT_1,
        STRICT_2,
        VERDICT_FALSIFIED,
        VERDICT_LOOP_SATISFIED,
        FalsificationReport,
        orthogonal_completion,
    )

    z = np.asarray(z, dtype=float)
    zeros = [np.zeros(z.shape[0])] * (m - 2)

    def tup(mid, last):
        return np.stack(zeros + [mid, last])

    rz = rho * z
    v1, v2, v3, v4 = (candidate(tup(mid, last)) for mid, last in ((z, rz), (-z, rz), (-z, -rz), (z, -rz)))
    perp = orthogonal_completion(z)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=sphere_samples)
    sphere = [rho * (math.cos(a) * z + math.sin(a) * perp) for a in angles]

    def constancy_gap(mid, anchor_values):
        values = list(anchor_values) + [candidate(tup(mid, w)) for w in sphere]
        return max(values) - min(values), values

    eq1_gap, eq1_values = constancy_gap(-z, (v2, v3))
    eq2_gap, eq2_values = constancy_gap(z, (v4, v1))
    eq_tol = 1e-12 * (1.0 + max(abs(v) for v in eq1_values + eq2_values))
    links = (
        (STRICT_1, v1 >= v2, v1 - v2),
        (EQUALITY_1, eq1_gap > eq_tol, eq1_gap),
        (STRICT_2, v3 >= v4, v3 - v4),
        (EQUALITY_2, eq2_gap > eq_tol, eq2_gap),
    )
    chain = (v1, v2, v3, v4)
    for name, violated, gap in links:
        if violated:
            return FalsificationReport(candidate.label, chain, name, float(gap), VERDICT_FALSIFIED)
    return FalsificationReport(candidate.label, chain, None, 0.0, VERDICT_LOOP_SATISFIED)


_TINY = sys.float_info.min


# The hand-written single-point kernels that the compiled templates of
# cyclex.geometry replaced, kept verbatim as oracles.  A set of one of these
# subclasses projects through its method, and so does the copy its
# ``_rescaled`` makes, which has the same class.
dot = dot_in_order  # the name the kernels call


class SingletonOracle(Singleton):
    def _project(self, x):
        return list(self._point)


class SegmentOracle(Segment):
    def _project(self, x):
        a = self._a
        d = list(map(sub, self._b, a))
        w = list(map(sub, x, a))
        dd = dot(d, d)
        t = dot(w, d) / dd if _TINY <= dd < math.inf else math.nan
        if not (math.isfinite(t) or self._scaled):
            return self._rescaled(x)
        # clamped parameters, and a = b in the copy of _rescaled, return a stored endpoint bit-exactly
        if not t > 0.0:
            return list(a)
        if t >= 1.0:
            return list(self._b)
        return [ai + t * di for ai, di in zip(a, d)]


class RayOracle(Ray):
    def _project(self, x):
        u = self._direction
        t = dot(x, u) / dot(u, u)
        if not (math.isfinite(t) or self._scaled):
            return self._rescaled(x)
        if t <= 0.0:
            return [0.0] * self.dim
        return [t * ui for ui in u]


class BallOracle(Ball):
    def _project(self, x):
        c = self._center
        w = list(map(sub, x, c))
        ww = dot(w, w)
        # a w . w that underflows is inside a ball of radius^2 in range
        if not (_TINY <= ww < math.inf or ww < _TINY <= self._radius * self._radius or self._scaled):
            return self._rescaled(x)
        n = math.sqrt(ww)
        if n <= self._radius:
            return x
        return list(map(add, c, map(mul, repeat(self._radius / n), w)))


class BoxOracle(Box):
    def _project(self, x):
        # a tie returns the bound (np.clip's rule), which fixes the sign of a zero
        return [lo if v <= lo else hi if v >= hi else v for v, lo, hi in zip(x, self._lower, self._upper)]


class HalfspaceOracle(Halfspace):
    def _project(self, x):
        u = self._normal
        s = dot(u, x) - self._offset
        if s <= 0.0:
            return x
        k = s / dot(u, u)
        if not (math.isfinite(k) or self._scaled):
            return self._rescaled(x)
        return [xi - k * ui for xi, ui in zip(x, u)]


class EllipsoidOracle(Ellipsoid):
    def _project(self, x):
        c, a = self._center, self._axes
        w = list(map(sub, x, c))
        if not self._scaled:  # the copy projects a point found outside; its axes may be 0
            q = list(map(truediv, w, a))
            if dot(q, q) <= 1.0:
                return x
        a2 = list(map(mul, a, a))
        aw = list(map(mul, a, w))
        hh = dot(aw, aw)
        # a^2 w stays finite where both a^2 and a w @ a w do
        if not (self._normal_axes and _TINY <= hh < math.inf or self._scaled):
            return self._rescaled(x)
        t = _secular_root(aw, a2, math.sqrt(hh))
        if self._scaled:
            # this takes the limits of unbounded (a^2 = inf) and flat (a^2 = 0) axes
            return [ci + (wi / (1.0 + t / a2i) if a2i else 0.0) for ci, wi, a2i in zip(c, w, a2)]
        return [ci + a2i * wi / (a2i + t) for ci, a2i, wi in zip(c, a2, w)]


def _secular_root(aw, a2, hi):
    """The multiplier t of an exterior point c + w and an ellipsoid of axes
    a centered at c (see ``Ellipsoid``), from aw = a w, a2 = a^2, hi = ||a w||."""
    # 1/||v(t)|| is concave and increasing, so Newton on psi from left
    # of the root climbs to it monotonically.  Every |v_i| <= 1 at the
    # root, so the start t_0 lies left of it, and s(hi) < 1.
    lo = t = max(0.0, max(map(sub, map(abs, aw), a2)))
    for _ in range(_SECULAR_MAX_ITER):
        d = [a2i + t or math.inf for a2i in a2]  # a flat axis (a^2 = 0) at t = 0 has term 0
        r = list(map(truediv, aw, d))
        r2 = list(map(mul, r, r))
        s = reduce(add, r2)  # ||v(t)||^2
        if abs(s - 1.0) <= _SECULAR_TOL or lo == hi:  # or the root lies within one float of t
            break
        if s > 1.0:
            lo = t
        else:
            hi = t
        q = reduce(add, map(truediv, r2, d))  # -s'(t) / 2
        t_new = t + s * (math.sqrt(s) - 1.0) / q if q else lo
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
    else:
        raise EllipsoidNewtonFailure(
            f"secular residual {s - 1.0:.3e} after {_SECULAR_MAX_ITER} iterations"
        )
    return t


KERNEL_ORACLES = {
    cls.__base__: cls
    for cls in (SingletonOracle, SegmentOracle, RayOracle, BallOracle, BoxOracle, HalfspaceOracle, EllipsoidOracle)
}


def kernel_oracle(s):
    """The set ``s`` again, projecting through its hand-written kernel."""
    return KERNEL_ORACLES[type(s)](**{name: getattr(s, name) for name in s._fields})
