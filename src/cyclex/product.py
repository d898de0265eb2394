"""Product-space solvers: relaxed projected gradient and parallel projections.

Tuples (y_1, ..., y_m) are handled as (m, d) float arrays, one block per
row, normed by the product norm sqrt(sum_i ||y_i||^2).  The constraint is
the product set C_1 x ... x C_m whose projection acts blockwise.  Both
solvers share one loop: parallel projections are projected gradient on the
product space (Pierra 1984) with their own target map and no relaxation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import SolverConfig, choice
from .csvio import write_csv
from .errors import BlockCountMismatch, DimensionMismatch, InvalidStepSize, NotConverged, TooFewSets
from .geometry import Family, as_vector
from .sums import dot_last, max_distance, pow2, top_exponent

# the point each block of a parallel sweep projects, by variant
_PARALLEL_TARGETS = {
    "others_mean": lambda x: (x.sum(axis=0) - x) / (len(x) - 1.0),
    "full_mean": lambda x: np.broadcast_to(x.sum(axis=0) / len(x), x.shape),
}
PARALLEL_VARIANTS = tuple(_PARALLEL_TARGETS)
# the float fields of an iteration log row, besides its (m, d) blocks
_LOG_SCALARS = ("objective", "displacement", "stationarity")

# Stacked objective calls take k tuples at a time, with k set so that the
# largest kernel intermediate, the pairwise objective's (k, m(m-1)/2, d)
# block differences, has at most this many float64 cells (128 KB).  Twice
# as many made pairwise2 at m = 40 slower than one tuple at a time: past
# glibc's 128 KB mmap threshold each intermediate faults in fresh pages.
_STACK_CELLS = 1 << 14


def stack_size(m: int, d: int) -> int:
    """Tuples per stacked objective call at m blocks of dimension d."""
    return max(1, _STACK_CELLS // (m * (m - 1) // 2 * d))


def as_product_point(blocks, m: Optional[int] = None, dim: Optional[int] = None) -> np.ndarray:
    """Coerce to a finite (m, d) float64 array of stacked blocks."""
    y = np.asarray(blocks, dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    if y.ndim != 2 or y.size == 0:
        raise ValueError(f"expected an (m, d) tuple of blocks, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("tuple has non-finite coordinates")
    if m is not None and y.shape[0] != m:
        raise BlockCountMismatch(f"tuple has {y.shape[0]} blocks, expected {m}")
    if dim is not None and y.shape[1] != dim:
        raise DimensionMismatch(f"blocks have dimension {y.shape[1]}, expected {dim}")
    return y


def project_blocks(family: Family, y: np.ndarray) -> np.ndarray:
    """Projection onto the product set: each block onto its own set.

    Each set type with at least ``_batch_rows`` sets goes through one
    kernel over that type's stacked parameters, and every other set
    through its own ``_project`` (``Family._blocks``); both are
    bit-identical to projecting row by row with ``_project``.  The result
    is a fresh C-order array even when ``y`` is a broadcast view, so later
    sums over it add in row order.
    """
    y = as_product_point(y, family.m, family.dim)
    out = np.empty(y.shape)
    for rows, project in family._blocks:
        out[rows] = project(y[rows])
    return out


def diagonal_project(y: np.ndarray) -> np.ndarray:
    """Projection onto the diagonal: every block replaced by the block mean."""
    return np.broadcast_to(_block_mean(y), y.shape).copy()


def _block_mean(y: np.ndarray) -> np.ndarray:
    """The mean of the blocks, ``y.mean(axis=0)``; where a block sum overflows, it is taken at
    the power-of-two scale that brings y's largest |coordinate| into [0.5, 1), then scaled back."""
    with np.errstate(over="ignore"):
        mean = y.mean(axis=0)
        if np.isinf(mean).any():
            e = top_exponent(y.ravel().tolist())
            mean = pow2(pow2(y, -e).mean(axis=0), e)
    return mean


class PairwiseSquared:
    """Phi(y) = (1/(2(m-1))) * sum_{i<j} ||y_i - y_j||^2.

    The gradient norm is exactly m/(m-1), so beta = 1 - 1/m.
    """

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("pairwise objective needs m >= 2")
        self.m = int(m)
        self._pairs = np.triu_indices(self.m, 1)

    @property
    def lipschitz_inverse_beta(self) -> float:
        return self.m / (self.m - 1.0)

    def value(self, y: np.ndarray):
        """Phi at an (m, d) tuple, or an array of Phi over a (..., m, d) stack."""
        # Bit-identical to summing the in-order d . d over i < j in a double
        # loop: dot_last adds each pair's squares in that order, and
        # add.accumulate (cumsum) adds the terms strictly in order (a sum
        # would pair them).
        i, j = self._pairs
        d = y.take(i, axis=-2) - y.take(j, axis=-2)
        terms = dot_last(d, d)
        return _scalar(np.add.accumulate(terms, axis=-1)[..., -1]) / (2.0 * (self.m - 1.0))

    def gradient(self, y: np.ndarray) -> np.ndarray:
        s = y.sum(axis=0)
        return y - (s - y) / (self.m - 1.0)


def _scalar(v):
    """A float for a 0-d result, the array itself for a stack of them."""
    return float(v) if v.ndim == 0 else v


class CyclicSquared:
    """Phi(y) = sum_i ||y_i - y_{i+1}||^2 with cyclic indexing.

    8 is a Lipschitz constant of the gradient for every m (the spectral
    bound of the cyclic second-difference operator).
    """

    lipschitz_inverse_beta = 8.0

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("cyclic objective needs m >= 2")
        self.m = int(m)
        # y.take(self._next, axis=-2) is np.roll(y, -1, axis=-2) without its per-call overhead
        self._next = np.roll(np.arange(self.m), -1)
        self._prev = np.roll(np.arange(self.m), 1)

    def value(self, y: np.ndarray):
        """Phi at an (m, d) tuple, or an array of Phi over a (..., m, d) stack."""
        d = y - y.take(self._next, axis=-2)
        return _scalar(np.add.reduce(d * d, axis=(-2, -1)))

    def gradient(self, y: np.ndarray) -> np.ndarray:
        return 2.0 * (2.0 * y - y.take(self._prev, axis=-2) - y.take(self._next, axis=-2))


# the smooth candidate objectives, by name; each is built from the block count m
OBJECTIVES = {"pairwise2": PairwiseSquared, "cyclic2": CyclicSquared}


class QuadraticToTarget:
    """Phi(y) = 0.5 * ||y - target||^2 in the product norm."""

    lipschitz_inverse_beta = 1.0

    def __init__(self, target):
        self.target = as_product_point(target)
        self.m = self.target.shape[0]

    def value(self, y: np.ndarray):
        """Phi at an (m, d) tuple, or an array of Phi over a (..., m, d) stack."""
        d = y - self.target
        return 0.5 * _scalar(np.add.reduce(d * d, axis=(-2, -1)))

    def gradient(self, y: np.ndarray) -> np.ndarray:
        return y - self.target


# the objectives whose ``value`` maps a (..., m, d) stack to its values,
# matched by exact type: a subclass may redefine ``value``
_STACKED_OBJECTIVES = (PairwiseSquared, CyclicSquared, QuadraticToTarget)


@dataclass(frozen=True)
class ProductSolution:
    """Limit tuple of a product-space run plus its certification residuals.

    ``log`` is a record array, row n after iteration n: fields ``objective``,
    ``displacement``, ``stationarity`` (NaN in row 0, the start) and ``blocks``.
    """

    blocks: np.ndarray
    fair_point: np.ndarray
    objective: float
    stationarity: float
    membership: float
    iterations: int
    stop_reason: str
    log: np.recarray

    def to_dict(self) -> dict:
        return {
            "points": self.blocks.tolist(),
            "residual": float(self.stationarity),
            "sweeps": int(self.iterations),
            "stop_reason": self.stop_reason,
            "objective": float(self.objective),
            "fair_point": self.fair_point.tolist(),
        }


def solve_projected_gradient(family: Family, obj, x0, cfg: Optional[SolverConfig] = None):
    """Relaxed projected-gradient iteration over the product of the sets.

    Runs x_{i,n+1} = x_{i,n} + lambda_n (P_i(x_{i,n} - gamma G_i(x_n)) - x_{i,n})
    blockwise until the product-space displacement drops below
    cfg.sweep_tol.  gamma must lie in ]0, 2*beta[ for the objective's
    gradient Lipschitz bound 1/beta; the default is gamma = beta.

    Returns a ProductSolution whose blocks lie in their sets (within
    cfg.cycle_tol) and satisfy the blockwise fixed-point identity within
    cfg.fixpoint_tol.  Raises NotConverged (solution attached) otherwise,
    with stop_reason "max_iterations" when the budget ran out and
    "certificate_failed" when the iteration settled on a tuple that fails
    either check.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    x = as_product_point(x0, m=family.m, dim=family.dim)
    if obj.m != family.m:
        raise BlockCountMismatch(f"objective expects m={obj.m}, family has m={family.m}")
    if hasattr(obj, "target"):  # target blocks of the wrong length would broadcast
        as_product_point(obj.target, dim=family.dim)
    beta = 1.0 / float(obj.lipschitz_inverse_beta)
    gamma = beta if cfg.gamma is None else float(cfg.gamma)
    if not 0.0 < gamma < 2.0 * beta:
        raise InvalidStepSize(f"gamma = {gamma} outside ]0, {2.0 * beta}[")
    delta = min(1.0, beta / gamma) + 0.5

    def step(n, x, proj):
        lam = cfg.relaxation(n)
        if not 0.0 <= lam <= delta:
            raise InvalidStepSize(f"lambda_{n} = {lam} outside [0, {delta}]")
        return x + lam * (proj - x)

    return _iterate(family, x, lambda x: x - gamma * obj.gradient(x), step, obj, cfg, "projected-gradient")


def parallel_variant(variant, m: int) -> str:
    """``variant`` if it names a parallel scheme that ``m`` sets can run."""
    choice(variant, "variant", PARALLEL_VARIANTS)
    if variant == "others_mean" and m < 3:
        raise TooFewSets("variant others_mean needs at least three sets")
    return variant


def solve_parallel(family: Family, x0, cfg: Optional[SolverConfig] = None, variant: str = "others_mean"):
    """Parallel projections: every block projects a mean of the others.

    variant "others_mean" iterates x_{i,n+1} = P_i(mean of the other
    blocks) and needs m >= 3; "full_mean" iterates x_{i,n+1} = P_i(mean of
    all blocks) and works for m >= 2.  The limit tuple minimizes the sum
    of squared pairwise distances over the product of the sets, and the
    block average of the limit is the returned fair point.  Raises
    NotConverged (solution attached) when the budget runs out or the limit
    fails the certificate that solve_projected_gradient also applies.
    """
    m = family.m
    parallel_variant(variant, m)
    cfg = cfg if cfg is not None else SolverConfig()
    x = as_product_point(x0, m=m, dim=family.dim)
    # the step is proj itself, not x + 1.0 * (proj - x), which rounds differently
    target_of = _PARALLEL_TARGETS[variant]
    return _iterate(family, x, target_of, lambda n, x, proj: proj, PairwiseSquared(m), cfg, "parallel")


def _iterate(family, x, target_of, step, obj, cfg, label) -> ProductSolution:
    """The product-space loop both solvers run, then its certificate.

    Iteration n projects ``target_of(x)`` blockwise, moves to
    ``step(n, x, proj)`` and stops once the move's product norm is at most
    cfg.sweep_tol.  Each row goes, in the log's record layout, into one
    array of doubles that the log then views: the history costs 8 B per
    number.  The objective column is filled after the loop: one
    stacked ``obj.value`` call per ``stack_size`` logged tuples for the
    objectives of this module, one call per tuple for any other, whose
    ``value`` may take a single (m, d) tuple only.
    """
    fields = [(name, float) for name in _LOG_SCALARS] + [("blocks", float, x.shape)]
    with np.errstate(over="ignore"):  # a far start logs inf objectives, not a warning
        rows = array("d", (math.nan, math.nan, math.nan))  # the start's row, objective to come
        rows.frombytes(x.tobytes())
        stop_reason = "max_iterations"
        for n in range(cfg.max_iters):
            proj = project_blocks(family, target_of(x))
            stationarity = max_distance(proj, x)
            x_new = step(n, x, proj)
            displacement = max_distance(x_new.ravel(), x.ravel())
            x = x_new
            rows.extend((math.nan, displacement, stationarity))
            rows.frombytes(x.tobytes())
            if displacement <= cfg.sweep_tol:
                stop_reason = "converged"
                break

        log = np.frombuffer(rows, dtype=fields).view(np.recarray)
        if type(obj) in _STACKED_OBJECTIVES:
            values, blocks, k = log["objective"], log["blocks"], stack_size(*x.shape)
            for start in range(0, len(log), k):
                values[start : start + k] = obj.value(blocks[start : start + k])
        else:
            log.objective = [obj.value(y) for y in log["blocks"]]
        return _certify(family, x, target_of(x), cfg, stop_reason, log, label)


def _certify(family, x, target, cfg, stop_reason, log, label) -> ProductSolution:
    """Certify the limit tuple ``x`` of a product-space run.

    ``target`` is the point the solver's map projects blockwise, so the
    stationarity residual max_i ||P_i(target_i) - x_i|| vanishes at a fixed
    point; membership is max_i ||P_i(x_i) - x_i||.  A converged run whose
    membership exceeds cfg.cycle_tol or whose stationarity exceeds
    cfg.fixpoint_tol becomes "certificate_failed".  Returns the solution
    when converged and certified, else raises NotConverged with it attached.
    The objective is the last log row's.
    """
    iterations = len(log) - 1
    stationarity = max_distance(project_blocks(family, target), x)
    membership = max_distance(project_blocks(family, x), x)
    if stop_reason == "converged" and (membership > cfg.cycle_tol or stationarity > cfg.fixpoint_tol):
        stop_reason = "certificate_failed"
    solution = ProductSolution(
        blocks=x,
        fair_point=_block_mean(x),
        objective=float(log.objective[-1]),
        stationarity=stationarity,
        membership=membership,
        iterations=iterations,
        stop_reason=stop_reason,
        log=log,
    )
    if stop_reason != "converged":
        raise NotConverged(
            f"{label} run stopped after {iterations} iterations "
            f"(stop_reason={stop_reason}, stationarity={stationarity:.3e})",
            solution=solution,
        )
    return solution


def fair_point_residual(family: Family, y) -> float:
    """||y - mean_i P_i y||: zero iff y is the average of its projections.

    Stationarity of phi(y) = sum_i ||y - P_i y||^2 is equivalent to that
    average property, so a small residual certifies an approximate
    minimizer of phi.
    """
    v = as_vector(y, family.dim)
    mean = _block_mean(project_blocks(family, np.broadcast_to(v, (family.m, family.dim))))
    with np.errstate(over="ignore"):
        return max_distance(v, mean)


def fixpoint_check(family: Family, blocks):
    """Residuals of the two alternating fixed-point identities.

    Returns (r1, r2) with r1 = ||y - P_C(P_D y)|| and r2 = ||z - P_D(P_C z)||
    where z = P_D y, P_C projects blockwise and P_D onto the diagonal.
    Small r1 certifies y as a minimizer of the pairwise objective over the
    product; small r2 certifies the block average as a fair point.
    """
    y = as_product_point(blocks, m=family.m, dim=family.dim)
    z = diagonal_project(y)
    pcz = project_blocks(family, z)
    with np.errstate(over="ignore"):
        return max_distance(y.ravel(), pcz.ravel()), max_distance(z.ravel(), diagonal_project(pcz).ravel())


def write_iteration_csv(log, path) -> None:
    """Iteration log rows: iter,objective_value,displacement,stationarity_residual,blocks."""
    _, m, d = log.blocks.shape
    header = ["iter", "objective_value", "displacement", "stationarity_residual"]
    header += [f"block{i}_x{j}" for i in range(m) for j in range(d)]
    values = np.asarray(log).view(np.float64).reshape(len(log), len(header) - 1)  # the fields in header order

    def columns(start, stop):
        return [np.arange(start, stop)], values[start:stop]

    write_csv(path, header, 1, len(log), columns)
