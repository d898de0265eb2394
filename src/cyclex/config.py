"""Solver configuration shared by the sweep and product-space engines."""

from __future__ import annotations

import math
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
        if self.gamma is not None and (not math.isfinite(self.gamma) or self.gamma <= 0.0):
            raise ValueError("gamma must be positive and finite")
        for name in ("sweep_tol", "cycle_tol", "fixpoint_tol"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("max_sweeps", "max_iters"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1")

    def relaxation(self, n: int) -> float:
        """lambda_n of the configured schedule (constant 1 by default)."""
        if self.lambda_schedule is None:
            return 1.0
        return float(self.lambda_schedule(n))
