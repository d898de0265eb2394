"""Solver configuration shared by the sweep and product-space engines, and
the one rule for each kind of scalar input: ``count``, ``real``, ``positive``
and ``choice`` each return the value they accept and raise ValueError naming
the key.  ``SOLVER_RULES`` says which rule each numeric SolverConfig field takes."""

from __future__ import annotations

import numbers
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Optional

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
