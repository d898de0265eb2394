"""Periodic projection engine, cycle extraction, and cycle verification.

A sweep applies the family's projections in reverse order (the last set
first), so a converged sweep's outputs read back-to-front as the cycle
tuple (y_1, ..., y_m) with y_i = P_i y_{i+1} cyclically.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import SolverConfig
from .csvio import write_csv
from .errors import LengthMismatch, NotConverged
from .geometry import Family, as_floats, as_vector
from .sums import distance_kernel, max_distance

_CHUNK_FLOATS = 4096  # coordinates a run holds as Python floats, 32 B each, between flushes


@dataclass(frozen=True)
class Cycle:
    """An ordered tuple of points with its recomputed cycle residual."""

    points: tuple
    residual: float

    @classmethod
    def from_points(cls, family: Family, points) -> "Cycle":
        pts = tuple(as_vector(p, family.dim) for p in points)
        return cls(points=pts, residual=cycle_residual(family, pts))

    def to_dict(self, sweeps: int, stop_reason: str) -> dict:
        return {
            "points": [p.tolist() for p in self.points],
            "residual": float(self.residual),
            "sweeps": int(sweeps),
            "stop_reason": stop_reason,
        }


@dataclass(frozen=True)
class Trajectory:
    """Every projection output of a run, in chronological order.

    ``iterates`` is an (N, d) array with one row per projection.  Row k
    is inner step k % m of sweep k // m, the output of set
    ``default_order(m)[k % m]``.  It views the doubles the run recorded,
    so the history costs 8 B per coordinate, plus one chunk while it runs.
    """

    start: np.ndarray
    iterates: np.ndarray
    stop_reason: str  # "converged" | "max_iterations" | "certificate_failed"
    sweeps_used: int

    @property
    def m(self) -> int:
        """Projections per sweep (every sweep records one row per set)."""
        return len(self.iterates) // self.sweeps_used

    def sweep_ends(self):
        """The sweep boundary points x_0, x_m, x_{2m}, ... as one array."""
        m = self.m
        return np.concatenate([self.start[None, :], self.iterates[m - 1 :: m]])


def default_order(m: int):
    """Application order of a sweep: last set first, first set last."""
    return tuple(range(m - 1, -1, -1))


def sweep_once(family: Family, x, order: Optional[Sequence[int]] = None):
    """One full sweep from ``x``.

    Returns the final point and the m intermediate projection outputs in
    application order.  ``order`` lists 0-based set indices; the default
    applies set m-1 first, then m-2, ..., then set 0.
    """
    x = as_floats(x, family.dim)[1]
    if order is None:
        order = default_order(family.m)
    else:
        order = tuple(int(i) for i in order)
        if sorted(order) != list(range(family.m)):
            raise ValueError("order must be a permutation of 0..m-1")
    sets = family.sets
    intermediates = []
    for i in order:
        x = sets[i]._project(x)
        intermediates.append(np.array(x))
    return intermediates[-1], intermediates


def cycle_residual(family: Family, points) -> float:
    """max_i ||y_i - P_i y_{i+1}|| with indices cyclic (y_{m+1} = y_1).

    Zero exactly on cycles; otherwise the worst defect of the cycle
    relations over the family.
    """
    pts = [as_floats(p, family.dim)[1] for p in points]
    if len(pts) != family.m:
        raise LengthMismatch(f"expected {family.m} points, got {len(pts)}")
    distance = distance_kernel(family.dim)
    worst = 0.0
    for i in range(family.m):
        succ = pts[(i + 1) % family.m]
        gap = distance(pts[i], family.sets[i]._project(succ))
        if gap > worst:
            worst = gap
    return worst


def run_periodic(family: Family, x0, cfg: Optional[SolverConfig] = None):
    """Iterate full sweeps from ``x0`` until the sweep displacement settles.

    Stops when ||x_{m(n+1)} - x_{mn}|| <= cfg.sweep_tol, then reads the
    last sweep's outputs as the candidate cycle (the output of set i is
    reported as y_i).  Returns ``(Trajectory, Cycle)``.

    Raises NotConverged, with the trajectory and best candidate attached,
    when the sweep budget runs out (stop_reason "max_iterations") or the
    sweeps settle on a candidate whose residual exceeds cfg.cycle_tol
    (stop_reason "certificate_failed").
    """
    cfg = cfg if cfg is not None else SolverConfig()
    start, x = as_floats(x0, family.dim)
    start = start.copy()
    if not any(s.bounded for s in family.sets):
        warnings.warn(
            "no set in the family is bounded; the periodic iteration may not settle",
            RuntimeWarning,
            stacklevel=2,
        )
    m = family.m
    chain = [family.sets[i]._project for i in default_order(m)]
    distance = distance_kernel(family.dim)
    sweep_tol = cfg.sweep_tol
    history, chunk = array("d"), []  # the coordinates of every projection output, in order
    record = chunk.extend
    per_flush = max(1, _CHUNK_FLOATS // (m * family.dim))
    stop_reason = "max_iterations"
    for first in range(0, cfg.max_sweeps, per_flush):
        for n in range(first, min(first + per_flush, cfg.max_sweeps)):
            x_prev = x
            for project in chain:
                x = project(x)
                record(x)
            displacement = distance(x, x_prev)
            if displacement <= sweep_tol:
                stop_reason = "converged"
                break
            if not math.isfinite(displacement):
                as_vector(x)  # raises ValueError when the iterate is not finite
        history.fromlist(chunk)
        chunk.clear()
        if stop_reason == "converged":
            break
    sweeps_used = n + 1
    iterates = np.frombuffer(history).reshape(-1, family.dim)
    # the last sweep's outputs, read back to front, as copies apart from iterates
    cycle = Cycle.from_points(family, iterates[-m:][::-1].copy())
    if stop_reason == "converged" and cycle.residual > cfg.cycle_tol:
        stop_reason = "certificate_failed"
    trajectory = Trajectory(
        start=start,
        iterates=iterates,
        stop_reason=stop_reason,
        sweeps_used=sweeps_used,
    )
    if stop_reason != "converged":
        raise NotConverged(
            f"periodic run stopped after {sweeps_used} sweeps "
            f"(stop_reason={stop_reason}, residual={cycle.residual:.3e})",
            trajectory=trajectory,
            cycle=cycle,
        )
    return trajectory, cycle


def min_distance_pair(c1, c2, x0, cfg: Optional[SolverConfig] = None):
    """Closest pair between two sets by alternating projections.

    Returns ``((y1, y2), distance)`` where y1 in c1, y2 in c2 form a
    two-set cycle; when the run converges the distance is the minimal
    distance between the sets.
    """
    family = Family((c1, c2))
    _, cycle = run_periodic(family, x0, cfg)
    y1, y2 = cycle.points
    with np.errstate(over="ignore"):
        return (y1, y2), max_distance(y1, y2)


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """One row per projection application: sweep,n_inner,set_index,x_0..x_{d-1}."""
    m = trajectory.m
    order = np.array(default_order(m))
    header = ["sweep", "n_inner", "set_index"] + [f"x_{j}" for j in range(trajectory.iterates.shape[1])]

    def columns(start, stop):
        k = np.arange(start, stop)
        inner = k % m
        return [k // m, inner, order[inner]], trajectory.iterates[start:stop]

    write_csv(path, header, 3, len(trajectory.iterates), columns)
