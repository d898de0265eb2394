"""Numerical witnesses that no functional's minimizers are exactly the cycles.

Three ingredients:

* a polygonal spiral that projects a point through angularly equispaced
  rays, shrinking its norm by cos(alpha/n) per step while ending collinear
  with a chosen inner target;
* degenerate families (origin singletons, a symmetric segment, a far
  singleton) whose unique cycles are known in closed form;
* a falsifier that evaluates any candidate functional around a four-tuple
  loop over those families and reports the first broken link: every
  genuine function must break at least one.
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import SolverConfig
from .csvio import write_csv
from .errors import (
    AntipodalAmbiguity,
    DegenerateInput,
    InvalidRho,
    InvalidUnitVector,
)
from .geometry import Family, Segment, Singleton, as_vector
from .product import OBJECTIVES, as_product_point, solve_projected_gradient
from .sweep import Cycle, run_periodic

_COLLINEAR_RTOL = 1e-12
UNIT_NORM_TOL = 1e-12

STRICT_1 = "strict-1"
EQUALITY_1 = "equality-1"
STRICT_2 = "strict-2"
EQUALITY_2 = "equality-2"

VERDICT_FALSIFIED = "candidate falsified"
VERDICT_LOOP_SATISFIED = "loop satisfied (contradiction; check evaluator)"


@dataclass(frozen=True)
class SpiralSpec:
    """Inputs of the spiral: outer start, strictly shorter inner target.

    ``plane`` optionally supplies a tie-break direction spanning the
    working plane with the start; it is required only when start and
    target point in exactly opposite directions.
    """

    target: np.ndarray  # inner point x, nonzero
    start: np.ndarray  # outer point y with ||x|| < ||y||
    n: int
    plane: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "target", as_vector(self.target))
        object.__setattr__(self, "start", as_vector(self.start, self.target.shape[0]))
        if self.plane is not None:
            object.__setattr__(self, "plane", as_vector(self.plane, self.target.shape[0]))
        if int(self.n) < 1:
            raise ValueError("n must be >= 1")
        object.__setattr__(self, "n", int(self.n))

    @property
    def alpha(self) -> float:
        """Angle between target and start, in [0, pi]."""
        nx = float(np.linalg.norm(self.target))
        ny = float(np.linalg.norm(self.start))
        c = float(self.target @ self.start) / (nx * ny)
        return math.acos(min(1.0, max(-1.0, c)))


def spiral(spec: SpiralSpec):
    """Project the start through n equispaced rays toward the target's ray.

    Returns ``(points, final_norm)`` with points of shape (n+1, d):
    points[0] is the start and each subsequent point is the projection of
    its predecessor onto the next ray.  The norms obey
    ||points[k]|| = ||start|| * cos(alpha/n)^k, so the final point is
    collinear with the target at norm ||start|| * cos(alpha/n)^n.
    """
    x, y, n = spec.target, spec.start, spec.n
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0:
        raise DegenerateInput("inner target must be nonzero")
    if nx >= ny:
        raise DegenerateInput(
            f"inner target norm {nx} must be strictly below start norm {ny}"
        )

    e1 = y / ny
    along = float(x @ e1)
    residual = x - along * e1
    n_res = float(np.linalg.norm(residual))

    if n_res <= _COLLINEAR_RTOL * nx:
        if along > 0.0:
            # zero angle: every ray coincides with the start's ray
            points = np.tile(y, (n + 1, 1))
            return points, ny
        if spec.plane is None:
            raise AntipodalAmbiguity(
                "start and target are antipodal; supply a plane direction to break the tie"
            )
        hint = spec.plane - float(spec.plane @ e1) * e1
        n_hint = float(np.linalg.norm(hint))
        if n_hint <= _COLLINEAR_RTOL * float(np.linalg.norm(spec.plane)):
            raise AntipodalAmbiguity("plane direction is collinear with the start")
        e2 = hint / n_hint
        alpha = math.pi
    else:
        e2 = residual / n_res
        alpha = math.atan2(n_res, along)

    # sequential ray projections, carried in plane coordinates (p, q)
    ps = np.empty(n + 1)
    qs = np.empty(n + 1)
    ps[0], qs[0] = ny, 0.0
    p, q = ny, 0.0
    for k in range(1, n + 1):
        theta = alpha * (k / n)
        ct = math.cos(theta)
        st = math.sin(theta)
        r = p * ct + q * st
        if r < 0.0:
            r = 0.0
        p = r * ct
        q = r * st
        ps[k] = p
        qs[k] = q
    points = np.outer(ps, e1) + np.outer(qs, e2)
    points[0] = y
    return points, float(np.linalg.norm(points[n]))


def orthogonal_completion(z: np.ndarray) -> np.ndarray:
    """A deterministic unit vector orthogonal to z (coordinate swap rule).

    Uses the first nonzero coordinate i and the smallest other index j:
    the completion has -z_j at slot i and z_i at slot j.
    """
    z = as_vector(z)
    if z.shape[0] < 2:
        raise ValueError("orthogonal completion needs dimension >= 2")
    if not np.any(z != 0.0):
        raise ValueError("cannot complete the zero vector")
    i = int(np.flatnonzero(z)[0])
    j = 0 if i != 0 else 1
    w = np.zeros_like(z)
    w[i] = -z[j]
    w[j] = z[i]
    return w / float(np.linalg.norm(w))


@dataclass(frozen=True)
class DegenerateFamilies:
    """The two closed-form families and their unique cycles."""

    positive_family: Family
    negative_family: Family
    positive_cycle: Cycle
    negative_cycle: Cycle


def _check_unit_rho(z, rho: float):
    z = as_vector(z)
    if abs(float(np.linalg.norm(z)) - 1.0) > UNIT_NORM_TOL:
        raise InvalidUnitVector(f"z must have unit norm to {UNIT_NORM_TOL:g}")
    if not (rho > 1.0):
        raise InvalidRho("rho must exceed 1")
    return z


def degenerate_families(
    m: int,
    z,
    rho: float,
    rng: Optional[np.random.Generator] = None,
    verify: bool = True,
) -> DegenerateFamilies:
    """Families ({0},...,{0},[-z,z],{rho z}) and ({0},...,{0},[-z,z],{-rho z}).

    For unit z and rho > 1 each family has a single cycle, returned here
    in closed form: (0,...,0, z, rho z) and its negation.  With ``verify``
    the closed-form residuals are checked to be exactly zero and the
    periodic engine is run from five random starts against each cycle.
    """
    z = _check_unit_rho(z, rho)
    if m < 3:
        raise ValueError("degenerate families need m >= 3")
    d = z.shape[0]
    origin = Singleton(np.zeros(d))
    seg = Segment(-z, z)
    fam_pos = Family((origin,) * (m - 2) + (seg, Singleton(rho * z)))
    fam_neg = Family((origin,) * (m - 2) + (seg, Singleton(-(rho * z))))
    zeros = tuple(np.zeros(d) for _ in range(m - 2))
    cyc_pos = Cycle.from_points(fam_pos, zeros + (z.copy(), rho * z))
    cyc_neg = Cycle.from_points(fam_neg, zeros + (-z, -(rho * z)))

    if verify:
        rng = rng if rng is not None else np.random.default_rng(0)
        for fam, cyc in ((fam_pos, cyc_pos), (fam_neg, cyc_neg)):
            if cyc.residual != 0.0:
                raise RuntimeError(f"closed-form cycle has residual {cyc.residual}")
            for _ in range(5):
                x0 = rng.uniform(-10.0, 10.0, size=d)
                _, got = run_periodic(fam, x0)
                drift = max(
                    float(np.linalg.norm(a - b)) for a, b in zip(got.points, cyc.points)
                )
                if drift > 1e-10:
                    raise RuntimeError(f"periodic run drifted {drift:.3e} from the cycle")
    return DegenerateFamilies(fam_pos, fam_neg, cyc_pos, cyc_neg)


@dataclass(frozen=True)
class CandidateFunctional:
    """A total real-valued function of m-tuples, with a display label.

    ``evaluator`` maps one finite (m, d) tuple to its value.  The falsifier
    evaluates its probe tuples in (k, m, d) stacks through ``_values``,
    which calls the evaluator once per tuple in stack order; the builtin
    candidates instead map a whole stack to its k values in one call.
    """

    evaluator: Callable[[np.ndarray], float]
    label: str

    def __call__(self, blocks) -> float:
        return self._value(as_product_point(blocks))

    def _value(self, y: np.ndarray) -> float:
        """The value at ``y``, already a finite (m, d) float array."""
        v = float(self.evaluator(y))
        if not math.isfinite(v):
            raise self._non_finite()
        return v

    def _values(self, ys: np.ndarray) -> np.ndarray:
        """The values at a (k, m, d) stack of finite tuples, a (k,) array."""
        return np.array([self._value(y) for y in ys])

    def _non_finite(self) -> ValueError:
        return ValueError(f"candidate {self.label!r} returned a non-finite value")


class _StackedCandidate(CandidateFunctional):
    """A candidate whose evaluator also maps a (..., m, d) stack to its values."""

    def _values(self, ys: np.ndarray) -> np.ndarray:
        v = self.evaluator(ys)
        if not np.isfinite(v).all():
            raise self._non_finite()
        return v


def _perimeter(y):
    return np.add.reduce(np.linalg.norm(y - np.roll(y, -1, axis=-2), axis=-1), axis=-1)


def _tuple_norm(y):
    # a 1 x md by md x 1 matmul runs the dot loop of np.linalg.norm(tuple)
    flat = y.reshape(*y.shape[:-2], 1, -1)
    return np.sqrt((flat @ flat.swapaxes(-1, -2))[..., 0, 0])


def _objective_candidate(objective):
    """The evaluator ``y -> objective(m).value(y)``, building each m's objective once."""
    build = functools.lru_cache(maxsize=8)(objective)
    return lambda y: build(y.shape[-2]).value(y)


BUILTIN_CANDIDATES = {
    "perimeter": _StackedCandidate(_perimeter, "perimeter"),
    **{
        name: _StackedCandidate(_objective_candidate(objective), name)
        for name, objective in OBJECTIVES.items()
    },
    "constant": _StackedCandidate(lambda y: np.zeros(y.shape[:-2]), "constant"),
    "tuple_norm": _StackedCandidate(_tuple_norm, "tuple_norm"),
}

# Probe tuples are evaluated in stacks of k, with k set so that the largest
# kernel intermediate, the pairwise candidate's (k, m(m-1)/2, d) block
# differences, has at most this many float64 cells (128 KB).  Twice as many
# made pairwise2 at m = 40 slower than one probe at a time: past glibc's
# 128 KB mmap threshold each intermediate faults in fresh pages.
_PROBE_CELLS = 1 << 14


@dataclass(frozen=True)
class FalsificationReport:
    """Outcome of driving a candidate around the four-tuple loop."""

    candidate: str
    chain_values: tuple
    violated_link: Optional[str]
    gap: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate,
            "chain": [float(v) for v in self.chain_values],
            "violated_link": self.violated_link,
            "gap": float(self.gap),
            "verdict": self.verdict,
        }


def falsify_candidate(
    candidate: CandidateFunctional,
    m: int,
    z,
    rho: float,
    sphere_samples: int,
    rng: Optional[np.random.Generator] = None,
) -> FalsificationReport:
    """Test a candidate functional around the closed-form cycle loop.

    The loop demands Phi(..., z, rho z) < Phi(..., -z, rho z), constancy of
    Phi(..., -z, .) on the sphere of radius rho, Phi(..., -z, -rho z) <
    Phi(..., z, -rho z), and constancy of Phi(..., z, .) on the same
    sphere; jointly these are contradictory, so a correct evaluator must
    break at least one link.  Sphere constancy is probed at +-rho z and at
    ``sphere_samples`` random points of the sphere inside the plane of z.

    Reports the first violated link in the order strict-1, equality-1,
    strict-2, equality-2 together with the numeric gap.

    The 2 * sphere_samples + 4 probe tuples go to ``candidate._values`` in
    (k, m, d) stacks built one at a time, with k bounded so that no kernel
    intermediate exceeds ``_PROBE_CELLS`` cells; memory stays
    O(stack + sphere_samples * d).  Builtin candidates evaluate a stack in
    one kernel call; any other candidate is called once per probe, in the
    order (z, rho z), (-z, rho z), (-z, -rho z), (z, -rho z), then -z and
    then z against each sphere point.
    """
    z = _check_unit_rho(z, rho)
    if m < 3:
        raise ValueError("the loop construction needs m >= 3")
    if sphere_samples < 2:
        raise ValueError("sphere_samples must be >= 2")
    rng = rng if rng is not None else np.random.default_rng(0)

    rz = rho * z
    perp = orthogonal_completion(z)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=sphere_samples)
    cos = np.array([math.cos(a) for a in angles])
    sin = np.array([math.sin(a) for a in angles])
    sphere = rho * (cos[:, None] * z + sin[:, None] * perp)
    # every probe tuple is built from z, rho z and the sphere: check them once
    if not (np.all(np.isfinite(rz)) and np.all(np.isfinite(sphere))):
        raise ValueError("tuple has non-finite coordinates")

    # probe p is the tuple (0, ..., 0, mids[p], lasts[p]): the four chain
    # tuples, then -z and then z against every sphere point
    s, d = sphere_samples, z.shape[0]
    mids = np.repeat(np.array((z, -z, -z, z, -z, z)), (1, 1, 1, 1, s, s), axis=0)
    lasts = np.concatenate((np.array((rz, rz, -rz, -rz)), sphere, sphere))
    k = max(1, _PROBE_CELLS // (m * (m - 1) // 2 * d))
    values = np.empty(len(mids))
    for start in range(0, len(mids), k):
        chunk = slice(start, start + k)
        ys = np.zeros((len(mids[chunk]), m, d))
        ys[:, -2] = mids[chunk]
        ys[:, -1] = lasts[chunk]
        values[chunk] = candidate._values(ys)

    v1, v2, v3, v4 = values[:4].tolist()
    eq1_gap = np.ptp(np.concatenate((values[1:3], values[4 : 4 + s])))
    eq2_gap = np.ptp(np.concatenate((values[[0, 3]], values[4 + s :])))
    eq_tol = 1e-12 * (1.0 + np.max(np.abs(values)))

    links = (
        (STRICT_1, v1 >= v2, v1 - v2),
        (EQUALITY_1, eq1_gap > eq_tol, eq1_gap),
        (STRICT_2, v3 >= v4, v3 - v4),
        (EQUALITY_2, eq2_gap > eq_tol, eq2_gap),
    )
    for name, violated, gap in links:
        if violated:
            return FalsificationReport(
                candidate=candidate.label,
                chain_values=(v1, v2, v3, v4),
                violated_link=name,
                gap=float(gap),
                verdict=VERDICT_FALSIFIED,
            )
    return FalsificationReport(
        candidate=candidate.label,
        chain_values=(v1, v2, v3, v4),
        violated_link=None,
        gap=0.0,
        verdict=VERDICT_LOOP_SATISFIED,
    )


@dataclass(frozen=True)
class GapExhibit:
    """Periodic cycle vs. constrained minimizer of a smooth candidate."""

    candidate_kind: str
    cycle: Cycle
    minimizer: np.ndarray
    gap: float
    displacement: float

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate_kind,
            "cycle_points": [[float(c) for c in p] for p in self.cycle.points],
            "cycle_residual": float(self.cycle.residual),
            "minimizer": [[float(c) for c in b] for b in self.minimizer],
            "gap": float(self.gap),
            "displacement": float(self.displacement),
        }


def candidate_gap(family: Family, candidate_kind: str, x0, cfg: Optional[SolverConfig] = None) -> GapExhibit:
    """Compare the periodic-projection cycle with a smooth candidate's minimizer.

    Returns the cycle, the constrained minimizer of the chosen smooth
    candidate over the product of the sets, the value gap
    candidate(cycle) - candidate(minimizer) >= 0 up to solver accuracy,
    and the largest blockwise distance between the two tuples.  A clearly
    positive displacement exhibits that the cycle does not minimize the
    candidate.
    """
    if candidate_kind not in OBJECTIVES:
        raise ValueError(f"candidate_kind must be one of {sorted(OBJECTIVES)}")
    cfg = cfg if cfg is not None else SolverConfig()
    x0 = as_vector(x0, family.dim)
    _, cycle = run_periodic(family, x0, cfg)
    obj = OBJECTIVES[candidate_kind](family.m)
    start = np.tile(x0, (family.m, 1))
    solution = solve_projected_gradient(family, obj, start, cfg)
    cyc_blocks = np.stack(cycle.points)
    gap = obj.value(cyc_blocks) - obj.value(solution.blocks)
    displacement = float(np.max(np.linalg.norm(cyc_blocks - solution.blocks, axis=1)))
    return GapExhibit(
        candidate_kind=candidate_kind,
        cycle=cycle,
        minimizer=solution.blocks,
        gap=float(gap),
        displacement=displacement,
    )


def write_spiral_csv(points: np.ndarray, out) -> None:
    """Spiral rows: k, x_0, ..., x_{d-1}, norm.

    ``out`` is a path, or an open text file that is written and left open.
    """
    points = np.ascontiguousarray(points, dtype=float)
    d = points.shape[1]

    def columns(start, stop):
        block = points[start:stop]
        # a 1 x d by d x 1 matmul runs the dot kernel of np.linalg.norm(row)
        norms = np.sqrt((block[:, None, :] @ block[:, :, None]).ravel())
        return [range(start, stop), *block.T.tolist(), norms.tolist()]

    header = ["k"] + [f"x_{j}" for j in range(d)] + ["norm"]
    with nullcontext(out) if hasattr(out, "write") else open(out, "w", newline="") as fh:
        write_csv(fh, header, 1, len(points), columns)
