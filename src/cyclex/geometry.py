"""Exact nearest-point projections onto a catalog of closed convex sets.

At the public boundary points are 1-D float64 numpy arrays; inside, all
eight projection kernels take and return lists of Python floats, with
every dot product added in the one order of ``cyclex.sums``, and one
range rule (``ConvexSet``) gives any finite input its nearest point.  A
variant is declared by its dataclass fields: the shared ``__post_init__``
stores each vector field read-only, all of the first one's length (the
set's ``dim``), next to a tuple of its Python floats, and the variant
adds only its own rules.  Every variant exposes ``project``,
a membership ``sample`` used by probe-style tests, and a JSON
``descriptor`` round-trip built from the same fields; ``from_descriptor``
finds the class by the descriptor's ``type`` in one registry.

A variant's one kernel is its ``_template`` (template -> compile per
(variant, d) -> lazy bind): straight-line code for dimension d compiled once
per process (``cyclex.sums.compiled``) when a set of that variant and d first
projects one point, which binds its fields into it.  The ellipsoid's holds its
secular Newton loop, unrolled per coordinate.  Nothing compiles at import;
only the affine subspace keeps a hand-written kernel.
"""

from __future__ import annotations

import math
import textwrap
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from operator import gt, sub

import numpy as np

from .errors import DimensionMismatch
from .sums import TINY, compiled, distance_kernel, dot, dot_last, norm, pow2, top_exponent

ORTHONORMAL_TOL = 1e-12

_SECULAR_TOL = 1e-13
_SECULAR_MAX_ITER = 200

Rows = np.ndarray  # a 2-D array of row vectors, left to its variant
Direction = np.ndarray  # a vector field that does not scale with the set

# Ball._kernel projects a group of balls from this many rows up, the row loop below it
# (Box._kernel from eight).  project_blocks, best of 7 x 3000 calls, d = 2..4 (numpy 2.4.6,
# 2-vCPU VM): the ball (box) kernel costs 12.5-15 us (8-9.5) at any row count, the compiled
# row loop 4.4-5.4 us for two rows and as much as the kernel at 10-13 (7-8) rows.
_BALL_BATCH_ROWS = 12


def as_vector(x, dim=None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, optionally checking length."""
    return as_floats(x, dim)[0]


def as_floats(x, dim=None):
    """``as_vector(x, dim)`` and the list of its Python floats, on which it is checked."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-D point, got shape {v.shape}")
    floats = v.tolist()
    if not all(map(math.isfinite, floats)):
        raise ValueError("point has non-finite coordinates")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"point has dimension {v.shape[0]}, expected {dim}")
    return v, floats


def _frozen(x, name):
    """A read-only copy of the vector field ``name`` and the list of its Python floats."""
    v = np.array(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array")
    floats = v.tolist()
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{name} has non-finite entries")
    v.flags.writeable = False
    return v, floats


class ConvexSet:
    """A nonempty closed convex subset of R^dim with an exact projection.

    ``project`` takes and returns a 1-D float64 array.  Its kernel
    ``_project`` takes a list of dim Python floats and returns the nearest
    point as a list of Python floats, which may be its input; neither list
    is changed afterwards.  Each converted field ``name`` also lives as
    ``_name`` for the kernels, a vector as a tuple of Python floats; a
    ``Direction`` there is scaled to a largest coordinate in [0.5, 1).  A
    kernel whose range test fails (a squared norm out of range, a t or k
    not finite) returns ``_rescaled(x)`` = 2^e P_{2^-e C}(2^-e x), where
    ``_exponent`` brings the largest coordinate of x and of every field but
    a direction into [0.5, 1); the copy's kernel (``_scaled``) runs to the end.

    A variant's ``_template`` is the body of ``project(x)`` over ``x{i}``, its
    fields ``_name`` (as ``name{i}`` or ``name``) and the ``_binds`` names
    (``scaled``, ``rescaled``, and for the ellipsoid ``normal_axes``), also
    without the underscore.  ``_project`` is it compiled for dim and bound to
    the set on first access, so ``s._project`` is the kernel itself; copies,
    and the copy of ``_rescaled``, bind their own.  ``AffineSubspace``, the one
    variant without a template, defines ``_project``.

    A variant with a closed form may add ``_kernel(sets)``, one batched
    projection of stacked rows, row i onto ``sets[i]`` (all of its type),
    bit-identical to ``_project`` row by row and leaving its input
    unchanged.  ``_batch_rows`` is the fewest rows of the type for which
    that kernel beats the row loop; ``Family._blocks`` projects smaller
    groups, and every variant without a kernel, row by row.
    """

    dim: int
    bounded: bool
    _batch_rows = math.inf
    _scaled = False
    _template = None
    _binds = ("scaled", "rescaled")

    def __post_init__(self):
        first = self._converted[0][0]
        for name, vector, scales in self._converted:
            if vector:
                value, own = _frozen(getattr(self, name), name)
            else:
                value = own = float(getattr(self, name))
            if name == first:
                object.__setattr__(self, "dim", value.shape[0])
            elif vector and value.shape[0] != self.dim:
                raise DimensionMismatch(f"{name} must match the dimension of {first}")
            object.__setattr__(self, name, value)
            if not scales:
                if not any(own):
                    raise ValueError(f"{name} must be nonzero")
                e = top_exponent(own)
                own = [math.ldexp(v, -e) for v in own]
            object.__setattr__(self, "_" + name, tuple(own) if vector else own)

    def project(self, x) -> np.ndarray:
        """Nearest point of the set to ``x``."""
        return np.array(self._project(as_floats(x, self.dim)[1]))

    @cached_property
    def _project(self):
        if self._template is None:
            raise NotImplementedError
        bind = compiled(self._source, self.dim)["bind"]
        return bind(*(getattr(self, "_" + name) for name in self._fields + self._binds))

    def __getstate__(self):
        # the bound kernel is a closure, which does not pickle; a copy binds its own
        return {k: v for k, v in vars(self).items() if k != "_project"}

    def _exponent(self, x) -> int:
        own = [(getattr(self, "_" + name), vector) for name, vector in self._lengths]
        return top_exponent(chain(x, *(v if vector else [v] for v, vector in own)))

    def _rescaled(self, x):
        e = self._exponent(x)
        copy = object.__new__(type(self))
        vars(copy).update(self.__getstate__(), _scaled=True)
        for name, vector in self._lengths:
            own = getattr(self, "_" + name)
            vars(copy)["_" + name] = tuple(math.ldexp(v, -e) for v in own) if vector else math.ldexp(own, -e)
        return [pow2(p, e) for p in copy._project([math.ldexp(v, -e) for v in x])]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A random member of the set (distribution unspecified)."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        """JSON-serializable descriptor, inverse of :func:`from_descriptor`.

        The set's type name plus one entry per dataclass field: arrays as
        nested lists, scalars (``radius``, ``offset``) as floats.
        """
        desc = {"type": self._type_name}
        for name in self._fields:
            value = getattr(self, name)
            desc[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return desc


_SET_TYPES = {}  # descriptor type name -> variant class


def _variant(type_name):
    """Declare a set variant, a frozen dataclass registered under ``type_name``.

    ``_fields`` names its fields in order.  ``ConvexSet.__post_init__``
    converts the fields annotated ``np.ndarray`` (the first field is one),
    ``Direction`` or ``float``, listed in order in ``_converted`` as (name,
    is vector, scales) triples; the variant converts the rest.  A variant with
    a ``_template`` also gets ``_source``, the template wrapped into ``bind``.
    """

    def declare(cls):
        cls = dataclass(frozen=True, eq=False)(cls)
        kinds = {"np.ndarray": (True, True), "Direction": (True, False), "float": (False, True)}
        cls._fields = tuple(f.name for f in fields(cls))
        cls._converted = tuple((f.name, *kinds[f.type]) for f in fields(cls) if f.type in kinds)
        cls._lengths = tuple((name, vector) for name, vector, scales in cls._converted if scales)
        cls._type_name = type_name
        _SET_TYPES[type_name] = cls
        if cls._template:  # its source, compiled per d on first use; all its fields are converted
            cls._source = "\n".join([
                f"from math import inf, isfinite, nan, sqrt\nfrom {__package__}.errors import EllipsoidNewtonFailure",
                f"TINY, SECULAR_TOL, SECULAR_MAX_ITER = {TINY!r}, {_SECULAR_TOL!r}, {_SECULAR_MAX_ITER!r}",
                f"def bind({', '.join(cls._fields + cls._binds)}):",
                *(f"    ALL({name}{{i}}) = {name}" for name, vector, _ in cls._converted if vector),
                "    def project(x):\n        ALL(x{i}) = x",
                textwrap.indent(textwrap.dedent(cls._template), " " * 8),
                "    return project",
            ])
        return cls

    return declare


@_variant("singleton")
class Singleton(ConvexSet):
    """The one-point set {point}."""

    point: np.ndarray

    bounded = True
    _template = "return [ALL(point{i})]"

    def sample(self, rng):
        return self.point.copy()


@_variant("segment")
class Segment(ConvexSet):
    """The closed segment [a, b]."""

    a: np.ndarray
    b: np.ndarray

    bounded = True
    # clamped parameters, and a = b in the copy of _rescaled, return a stored endpoint bit-exactly
    _template = """
        d{i} = b{i} - a{i}
        w{i} = x{i} - a{i}
        dd = SUM(d{i} * d{i})
        wd = SUM(w{i} * d{i})
        t = wd / dd if TINY <= dd < inf else nan
        if not (isfinite(t) or scaled):
            return rescaled(x)
        if not t > 0.0:
            return [ALL(a{i})]
        if t >= 1.0:
            return [ALL(b{i})]
        return [ALL(a{i} + t * d{i})]
    """

    def sample(self, rng):
        t = rng.random()
        return self.a + t * (self.b - self.a)


@_variant("ray")
class Ray(ConvexSet):
    """The ray {t * direction : t >= 0} anchored at the origin."""

    direction: Direction

    bounded = False
    _template = """
        xu = SUM(x{i} * direction{i})
        uu = SUM(direction{i} * direction{i})
        t = xu / uu
        if not (isfinite(t) or scaled):
            return rescaled(x)
        if t <= 0.0:
            return [ALL(0.0)]
        return [ALL(t * direction{i})]
    """

    def sample(self, rng):
        return (10.0 * rng.random()) * self.direction


@_variant("ball")
class Ball(ConvexSet):
    """The closed ball of given center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.radius) or self.radius < 0.0:
            raise ValueError("radius must be finite and >= 0")

    bounded = True
    _batch_rows = _BALL_BATCH_ROWS
    # a w . w that underflows is inside a ball of radius^2 in range
    _template = """
        w{i} = x{i} - center{i}
        ww = SUM(w{i} * w{i})
        if not (TINY <= ww < inf or ww < TINY <= radius * radius or scaled):
            return rescaled(x)
        n = sqrt(ww)
        if n <= radius:
            return x
        k = radius / n
        return [ALL(center{i} + k * w{i})]
    """

    @classmethod
    def _kernel(cls, sets):
        centers = np.array([s.center for s in sets])
        radii = np.array([s.radius for s in sets])

        def project_rows(x):
            # dot_last adds each row's squares in the order of _project; a
            # square that overflows or underflows sends the rows there
            try:
                with np.errstate(over="raise", under="raise"):
                    w = x - centers
                    n = np.sqrt(dot_last(w, w))
            except FloatingPointError:
                return [s._project(row) for s, row in zip(sets, x.tolist())]
            far = n > radii
            if far.all():
                return centers + (radii / n)[:, None] * w
            # rows inside divide by inf, never by zero, and keep x
            p = centers + (radii / np.where(far, n, math.inf))[:, None] * w
            return np.where(far[:, None], p, x)

        return project_rows

    def sample(self, rng):
        u = rng.standard_normal(self.dim)
        nu = norm(u.tolist())
        if nu == 0.0:
            return self.center.copy()
        r = self.radius * rng.random() ** (1.0 / self.dim)
        return self.center + (r / nu) * u


@_variant("box")
class Box(ConvexSet):
    """The axis-aligned box [lower, upper]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if any(map(gt, self._lower, self._upper)):
            raise ValueError("lower must be <= upper componentwise")

    bounded = True
    _batch_rows = 8
    # a tie returns the bound (np.clip's rule), which fixes the sign of a zero
    _template = "return [ALL(lower{i} if x{i} <= lower{i} else upper{i} if x{i} >= upper{i} else x{i})]"

    @classmethod
    def _kernel(cls, sets):
        lower = np.array([s.lower for s in sets])
        upper = np.array([s.upper for s in sets])
        # the comparisons of _project, so signed zeros agree with it
        return lambda x: np.where(x <= lower, lower, np.where(x >= upper, upper, x))

    def sample(self, rng):
        return self.lower + rng.random(self.dim) * (self.upper - self.lower)


@_variant("halfspace")
class Halfspace(ConvexSet):
    """The halfspace {y : <normal, y> <= offset}; ``_offset`` scales with ``_normal``."""

    normal: Direction
    offset: float

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")
        object.__setattr__(self, "_offset", pow2(self.offset, -top_exponent(self.normal.tolist())))
        if self._offset == -math.inf:
            raise ValueError("offset is too far below zero for the normal: no point is representable")

    bounded = False
    _template = """
        ux = SUM(normal{i} * x{i})
        s = ux - offset
        if s <= 0.0:
            return x
        uu = SUM(normal{i} * normal{i})
        k = s / uu
        if not (isfinite(k) or scaled):
            return rescaled(x)
        return [ALL(x{i} - k * normal{i})]
    """

    def sample(self, rng):
        g = 5.0 * rng.standard_normal(self.dim)
        # a point outside is reflected across the boundary to land inside
        return 2.0 * self.project(g) - g


@_variant("affine")
class AffineSubspace(ConvexSet):
    """An affine subspace given by an anchor and an orthonormal basis.

    ``basis`` holds the direction-space basis as rows; rows must be
    pairwise orthonormal to within ``ORTHONORMAL_TOL``.
    """

    anchor: np.ndarray
    basis: Rows

    def __post_init__(self):
        super().__post_init__()
        b = np.array(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] == 0:
            raise ValueError("basis must be a nonempty 2-D array of row vectors")
        if not np.all(np.isfinite(b)):
            raise ValueError("basis has non-finite entries")
        if b.shape[1] != self.dim:
            raise DimensionMismatch("basis vectors must match anchor dimension")
        if b.shape[0] > b.shape[1]:
            raise ValueError("basis has more vectors than the ambient dimension")
        gram = dot_last(b[:, None, :], b[None, :, :])
        if float(np.max(np.abs(gram - np.eye(b.shape[0])))) > ORTHONORMAL_TOL:
            raise ValueError(f"basis rows must be orthonormal to {ORTHONORMAL_TOL:g}")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "_basis", tuple(map(tuple, b.tolist())))

    bounded = False

    def _project(self, x):
        # anchor + B^T (B (x - anchor)), each sum of products in index order
        w = list(map(sub, x, self._anchor))
        coef = [dot(row, w) for row in self._basis]
        if not (all(map(math.isfinite, coef)) or self._scaled):
            return self._rescaled(x)
        return [ai + dot(column, coef) for ai, column in zip(self._anchor, zip(*self._basis))]

    def sample(self, rng):
        t = 5.0 * rng.standard_normal(self.basis.shape[0])
        return self.anchor + dot_last(self.basis.T, t)


@_variant("ellipsoid")
class Ellipsoid(ConvexSet):
    """The solid ellipsoid {y : sum(((y_i - c_i)/axes_i)^2) <= 1}.

    The only variant without a closed-form projection.  An exterior point
    x = c + w projects to c + a^2 w / (a^2 + t), where the multiplier
    t >= 0 solves the secular equation sum(a_i^2 w_i^2 / (a_i^2 + t)^2) = 1.
    It is found by Newton's method on the reformulation
    psi(t) = 1 - 1/||v(t)||, v_i = a_i w_i / (a_i^2 + t) (Moré and
    Sorensen 1983; Dai 2006), started at the lower bound
    t_0 = max(0, max_i(a_i |w_i| - a_i^2)) and kept inside a bisection
    bracket, until the secular residual is at most 1e-13.

    Where an a_i^2 or ||a w||^2 leaves the normal range, ``_rescaled``
    solves at the scale that brings the largest |a_i w_i| to about 1.
    """

    center: np.ndarray
    axes: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if min(self._axes) <= 0.0:
            raise ValueError("axes must be positive")
        object.__setattr__(self, "_normal_axes", all(TINY <= a * a < math.inf for a in self._axes))

    bounded = True
    _binds = ("normal_axes", "scaled", "rescaled")
    _template = """
        w{i} = x{i} - center{i}
        # the copy of _rescaled projects a point found outside; its axes may be 0
        if not scaled:
            z{i} = w{i} / axes{i}
            zz = SUM(z{i} * z{i})
            if zz <= 1.0:
                return x
        a2{i} = axes{i} * axes{i}
        aw{i} = axes{i} * w{i}
        hh = SUM(aw{i} * aw{i})
        # a^2 w stays finite where both a^2 and a w . a w do
        if not (normal_axes and TINY <= hh < inf or scaled):
            return rescaled(x)
        # 1/||v(t)|| is concave and increasing, so Newton on psi from left
        # of the root climbs to it monotonically.  Every |v_i| <= 1 at the
        # root, so the start t_0 lies left of it, and s(hi) < 1.
        g{i} = abs(aw{i}) - a2{i}
        lo = t = max(0.0, max((ALL(g{i}))))
        hi = sqrt(hh)
        for _ in range(SECULAR_MAX_ITER):
            # a flat axis (a^2 = 0) at t = 0 has term 0; s = ||v(t)||^2, q = -s'(t) / 2
            den{i} = a2{i} + t or inf
            v{i} = aw{i} / den{i}
            vv{i} = v{i} * v{i}
            s = SUM(vv{i})
            # stop at the tolerance, or where the root lies within one float of t
            if abs(s - 1.0) <= SECULAR_TOL or lo == hi:
                break
            if s > 1.0:
                lo = t
            else:
                hi = t
            q = SUM(vv{i} / den{i})
            t_new = t + s * (sqrt(s) - 1.0) / q if q else lo
            t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
        else:
            raise EllipsoidNewtonFailure(f"secular residual {s - 1.0:.3e} after {SECULAR_MAX_ITER} iterations")
        if scaled:
            # this takes the limits of unbounded (a^2 = inf) and flat (a^2 = 0) axes
            y{i} = center{i} + (w{i} / (1.0 + t / a2{i}) if a2{i} else 0.0)
            return [ALL(y{i})]
        y{i} = center{i} + a2{i} * w{i} / (a2{i} + t)
        return [ALL(y{i})]
    """

    def _exponent(self, x):
        # t scales as a^2: the largest |a_i w_i| (w halved is finite) goes to about 1
        pairs = zip(self._axes, (xi / 2.0 - ci / 2.0 for xi, ci in zip(x, self._center)))
        e = max(((math.frexp(ai)[1] + math.frexp(wi)[1] + 1) // 2 for ai, wi in pairs if wi), default=-math.inf)
        return max(e, super()._exponent(x) - 1023)

    def sample(self, rng):
        u = rng.standard_normal(self.dim)
        nu = norm(u.tolist())
        if nu == 0.0:
            return self.center.copy()
        r = rng.random() ** (1.0 / self.dim)
        return self.center + self.axes * (r / nu) * u


def _on_row(project):
    """A ``_project`` that takes one 1-D array row."""
    return lambda row: project(row.tolist())


@dataclass(frozen=True, eq=False)
class Family:
    """An ordered family of m >= 2 convex sets sharing one ambient space."""

    sets: tuple

    def __post_init__(self):
        sets = tuple(self.sets)
        if len(sets) < 2:
            raise ValueError("a family needs at least two sets")
        dim = sets[0].dim
        for i, s in enumerate(sets):
            if not isinstance(s, ConvexSet):
                raise TypeError(f"sets[{i}] is not a ConvexSet")
            if s.dim != dim:
                raise DimensionMismatch(f"sets[{i}] has dimension {s.dim}, expected {dim}")
        object.__setattr__(self, "sets", sets)

    @property
    def m(self) -> int:
        return len(self.sets)

    @property
    def dim(self) -> int:
        return self.sets[0].dim

    @cached_property
    def _blocks(self) -> tuple:
        """The blockwise projection, grouped by set type on first use.

        (rows, project) pairs: ``project(y[rows])`` projects those rows of a
        stacked (m, d) point.  A type with at least ``_batch_rows`` sets gets
        one pair, its ``_kernel`` over an index array; every other set keeps
        its ``_project``, on the list of an int row.
        """
        groups = {}
        for i, s in enumerate(self.sets):
            groups.setdefault(type(s), []).append(i)
        blocks = []
        for cls, rows in groups.items():
            if len(rows) >= cls._batch_rows:
                blocks.append((np.array(rows), cls._kernel([self.sets[i] for i in rows])))
            else:
                blocks.extend((i, _on_row(self.sets[i]._project)) for i in rows)
        return tuple(blocks)

    def __getstate__(self):
        # the cached kernels are closures, which do not pickle; a copy regroups
        return {"sets": self.sets}

    def descriptor(self):
        return [s.descriptor() for s in self.sets]


def project(s: ConvexSet, x) -> np.ndarray:
    """Nearest point of ``s`` to ``x``."""
    return s.project(x)


def min_norm_point(s: ConvexSet) -> np.ndarray:
    """The element of minimal norm of ``s`` (projection of the origin)."""
    return s.project(np.zeros(s.dim))


def contains(s: ConvexSet, x, tol: float) -> bool:
    """Whether ``x`` is within distance ``tol`` of ``s``."""
    if tol < 0.0:
        raise ValueError("tolerance must be >= 0")
    x = as_floats(x, s.dim)[1]
    return distance_kernel(s.dim)(x, s._project(x)) <= tol


def from_descriptor(desc: dict) -> ConvexSet:
    """Build a set from its JSON descriptor (see ``ConvexSet.descriptor``)."""
    if not isinstance(desc, dict):
        raise ValueError("set descriptor must be a JSON object")
    kind = desc.get("type")
    cls = _SET_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        known = ", ".join(sorted(_SET_TYPES))
        raise ValueError(f"unknown set type {kind!r} (known: {known})")
    names = cls._fields
    missing = [name for name in names if name not in desc]
    if missing:
        raise ValueError(f"{kind} descriptor missing fields: {', '.join(missing)}")
    extra = set(desc) - set(names) - {"type"}
    if extra:
        raise ValueError(f"{kind} descriptor has unknown fields: {', '.join(sorted(extra))}")
    return cls(**{name: desc[name] for name in names})
