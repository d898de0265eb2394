"""Projection-methods toolkit: exact convex projectors, periodic sweep
engines with cycle extraction, product-space projected-gradient and
parallel solvers, and numerical demonstrations that no objective
function's constrained minimizers coincide with the limit cycles across
all families."""

from .config import DEFAULTS, SolverConfig
from .errors import (
    AntipodalAmbiguity,
    BlockCountMismatch,
    ConfigValidation,
    CyclexError,
    DegenerateInput,
    DimensionMismatch,
    EllipsoidNewtonFailure,
    InvalidRho,
    InvalidStepSize,
    InvalidUnitVector,
    LengthMismatch,
    NotConverged,
    TooFewSets,
)
from .geometry import (
    AffineSubspace,
    Ball,
    Box,
    ConvexSet,
    Ellipsoid,
    Family,
    Halfspace,
    Ray,
    Segment,
    Singleton,
    as_vector,
    contains,
    from_descriptor,
    min_norm_point,
    project,
)
from .impossibility import (
    BUILTIN_CANDIDATES,
    CandidateFunctional,
    DegenerateFamilies,
    FalsificationReport,
    GapExhibit,
    SpiralSpec,
    candidate_gap,
    degenerate_families,
    falsify_candidate,
    orthogonal_completion,
    spiral,
)
from .product import (
    CyclicSquared,
    PairwiseSquared,
    ProductSolution,
    QuadraticToTarget,
    as_product_point,
    diagonal_project,
    fair_point_residual,
    fixpoint_check,
    project_blocks,
    solve_parallel,
    solve_projected_gradient,
)
from .sweep import (
    Cycle,
    Trajectory,
    cycle_residual,
    min_distance_pair,
    run_periodic,
    sweep_once,
)

__version__ = "0.1.0"

# Loaded on first use (PEP 562), so that ``python -m cyclex.cli`` does not
# find cyclex.cli already imported by its package.
_CLI_NAMES = ("ExperimentConfig", "run_experiment", "validate_config")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AffineSubspace",
    "AntipodalAmbiguity",
    "BUILTIN_CANDIDATES",
    "Ball",
    "BlockCountMismatch",
    "Box",
    "CandidateFunctional",
    "ConfigValidation",
    "ConvexSet",
    "Cycle",
    "CyclexError",
    "CyclicSquared",
    "DEFAULTS",
    "DegenerateFamilies",
    "DegenerateInput",
    "DimensionMismatch",
    "Ellipsoid",
    "EllipsoidNewtonFailure",
    "ExperimentConfig",
    "FalsificationReport",
    "Family",
    "GapExhibit",
    "Halfspace",
    "InvalidRho",
    "InvalidStepSize",
    "InvalidUnitVector",
    "LengthMismatch",
    "NotConverged",
    "PairwiseSquared",
    "ProductSolution",
    "QuadraticToTarget",
    "Ray",
    "Segment",
    "Singleton",
    "SolverConfig",
    "SpiralSpec",
    "TooFewSets",
    "Trajectory",
    "as_product_point",
    "as_vector",
    "candidate_gap",
    "contains",
    "cycle_residual",
    "degenerate_families",
    "diagonal_project",
    "fair_point_residual",
    "falsify_candidate",
    "fixpoint_check",
    "from_descriptor",
    "min_distance_pair",
    "min_norm_point",
    "orthogonal_completion",
    "project",
    "project_blocks",
    "run_experiment",
    "run_periodic",
    "solve_parallel",
    "solve_projected_gradient",
    "spiral",
    "sweep_once",
    "validate_config",
]
