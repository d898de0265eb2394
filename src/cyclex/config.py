"""Solver configuration shared by the sweep and product-space engines, and
the one rule for each kind of input: ``count``, ``real``, ``positive`` and
``choice`` for scalars, ``reals`` for arrays (points, product tuples and the
vector fields of sets).  Each returns the value it accepts and raises naming
the key.  ``SOLVER_RULES`` says which rule each numeric SolverConfig field takes."""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BlockCountMismatch, DimensionMismatch

# SolverConfig's defaults, tabled in the README; a config file's "solver" object overrides them key by key.
DEFAULTS = {
    "sweep_tol": 1e-12,
    "cycle_tol": 1e-9,
    "fixpoint_tol": 1e-8,
    "max_sweeps": 100_000,
    "max_iters": 100_000,
}


def count(value, name, low):
    """``value`` as an int >= ``low``: an int or a numpy integer, never a bool."""
    try:
        if not isinstance(value, bool) and operator.index(value) >= low:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer >= {low}")


def real(value, name):
    """``value`` as a finite float: an int or a float, numpy's too, never a bool or a string."""
    big = sys.float_info.max  # an int past it is refused, not rounded to inf
    # float and int first: the ABC check that numpy's scalars need costs 0.4 us
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool) and -big <= value <= big:
        return float(value)
    raise ValueError(f"{name} must be a finite number")


def positive(value, name):
    """``value`` as a positive finite float (``real``, then > 0)."""
    value = real(value, name)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive and finite")
    return value


def choice(value, name, options):
    """``value`` if it is one of the strings ``options``."""
    if isinstance(value, str) and value in options:
        return value
    raise ValueError(f"{name} must be one of {', '.join(options)}")


_FLAT = {int, float}  # the element types of a JSON point
_NUMBERS = (int, float, np.integer, np.floating)
_SHAPES = {1: "a nonempty 1-D array", 2: "a nonempty 2-D array of row vectors"}


def reals(value, name, ndim=1, dim=None, m=None):
    """``value`` as a finite float64 array: a point (``ndim`` 1) of ``dim``
    coordinates, ``m`` rows of ``dim`` (``ndim`` 2), or either (``ndim`` (1, 2)).

    Every element is an int or a float, numpy's too, never a bool, a string or
    None, at any depth; a float or int ndarray has only its dtype checked.
    Raises ValueError, DimensionMismatch or BlockCountMismatch naming ``name``.
    """
    # a float or int ndarray and a flat list of Python numbers need no walk
    if not (type(value) is np.ndarray and value.dtype.kind in "fiu"
            or type(value) is list and {*map(type, value)} <= _FLAT):
        pending = [value]
        while pending:  # a loop, not recursion: JSON nests as deep as its parser allows
            item = pending.pop()
            if isinstance(item, np.ndarray):
                if item.dtype.kind not in "fiu":
                    pending.append(item.tolist())
            elif isinstance(item, (list, tuple)):
                pending.extend(reversed(item))  # the first bad element is the one reported
            elif isinstance(item, bool) or not isinstance(item, _NUMBERS):
                raise ValueError(f"{name} must hold only numbers, got {item!r}")
    ndims = ndim if isinstance(ndim, tuple) else (ndim,)
    try:
        v = np.asarray(value, dtype=float)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} has non-finite coordinates") from None
    except ValueError:  # ragged nesting
        v = np.empty(0)
    if v.ndim not in ndims or v.size == 0:
        raise ValueError(f"{name} must be {_SHAPES[max(ndims)]}")
    # a few coordinates are checked fastest as Python floats, a stack of rows by numpy
    if not (all(map(math.isfinite, v.tolist())) if v.ndim == 1 else np.isfinite(v).all()):
        raise ValueError(f"{name} has non-finite coordinates")
    if m is not None and v.ndim == 2 and v.shape[0] != m:
        raise BlockCountMismatch(f"{name} has {v.shape[0]} blocks, expected {m}")
    if dim is not None and v.shape[-1] != dim:
        noun = f"{name} has" if v.ndim == 1 else f"{name} blocks have"
        raise DimensionMismatch(f"{noun} dimension {v.shape[-1]}, expected {dim}")
    return v


# the rule of each SolverConfig field that takes a number, which the CLI applies to a config's "solver" too
SOLVER_RULES = {
    **dict.fromkeys(("gamma", "sweep_tol", "cycle_tol", "fixpoint_tol"), positive),
    **dict.fromkeys(("max_sweeps", "max_iters"), lambda value, name: count(value, name, 1)),
}


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, iteration caps, and step parameters.

    gamma
        Projected-gradient step size; ``None`` picks the midpoint of the
        admissible range for the objective at hand (gamma = beta).
    lambda_schedule
        Callable ``n -> lambda_n`` producing relaxation weights; ``None``
        means the constant schedule lambda_n = 1.  Each value must lie in
        [0, delta] where delta = min(1, beta/gamma) + 1/2 is computed by
        the solver, never supplied.
    sweep_tol
        Full-sweep (or full-iteration) displacement below which the
        iteration is declared converged.
    cycle_tol
        Acceptance threshold on the cycle residual / blockwise set
        membership of a returned solution.
    fixpoint_tol
        Acceptance threshold on the blockwise fixed-point residual of a
        product-space solution.
    """

    gamma: Optional[float] = None
    lambda_schedule: Optional[Callable[[int], float]] = None
    sweep_tol: float = DEFAULTS["sweep_tol"]
    cycle_tol: float = DEFAULTS["cycle_tol"]
    fixpoint_tol: float = DEFAULTS["fixpoint_tol"]
    max_sweeps: int = DEFAULTS["max_sweeps"]
    max_iters: int = DEFAULTS["max_iters"]

    def __post_init__(self):
        for name, rule in SOLVER_RULES.items():
            if name != "gamma" or self.gamma is not None:  # gamma None: the solver picks the step
                object.__setattr__(self, name, rule(getattr(self, name), name))

    def relaxation(self, n: int) -> float:
        """lambda_n of the configured schedule (constant 1 by default)."""
        if self.lambda_schedule is None:
            return 1.0
        return float(self.lambda_schedule(n))
