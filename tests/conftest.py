"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from cyclex import (
    AffineSubspace,
    Ball,
    Box,
    Ellipsoid,
    Halfspace,
    Ray,
    Segment,
    Singleton,
)

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


def pairwise_squared_loop(y):
    """Pairwise objective as the literal double loop over i < j, summed left
    to right from 0.0 with one dot product per pair."""
    m = y.shape[0]
    total = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            d = y[i] - y[j]
            total += float(d @ d)
    return total / (2.0 * (m - 1.0))


def perimeter_formula(y):
    """Sum of the cyclic block distances of one (m, d) tuple."""
    return np.sum(np.linalg.norm(y - np.roll(y, -1, axis=0), axis=1))


def cyclic_squared_formula(y):
    """Sum of the squared cyclic block distances of one (m, d) tuple."""
    d = y - np.roll(y, -1, axis=0)
    return np.sum(d * d)


# each builtin candidate's value at one (m, d) tuple, written out apart
# from the stacked kernels of cyclex.impossibility
CANDIDATE_FORMULAS = {
    "perimeter": perimeter_formula,
    "pairwise2": pairwise_squared_loop,
    "cyclic2": cyclic_squared_formula,
    "constant": lambda y: 0.0,
    "tuple_norm": lambda y: np.linalg.norm(y),
}


def project_rows_loop(family, y):
    """The blockwise projection row by row: one ``_project`` call per block."""
    return np.array([s._project(row) for s, row in zip(family.sets, y)])


def csv_writer_bytes(header, rows):
    """What ``csv.writer`` with newline line ends writes for a header and rows
    whose cells are ints or floats; floats are written as their repr."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, int) else repr(float(c)) for c in row])
    return buf.getvalue().encode()


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
