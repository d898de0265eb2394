"""Exception types shared across the toolkit."""


class CyclexError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(CyclexError):
    """Operands live in spaces of different dimension."""


class LengthMismatch(CyclexError):
    """A point list does not match the family size."""


class BlockCountMismatch(CyclexError):
    """A product-space tuple has the wrong number of blocks."""


class EllipsoidNewtonFailure(CyclexError):
    """The secular equation for an ellipsoid projection did not converge."""


class InvalidStepSize(CyclexError):
    """Step size or relaxation parameter outside its admissible range."""


class TooFewSets(CyclexError):
    """The requested scheme needs more sets than the family provides."""


class DegenerateInput(CyclexError):
    """Spiral construction inputs violate its norm ordering hypotheses."""


class AntipodalAmbiguity(CyclexError):
    """Opposite directions leave the working plane undetermined."""


class InvalidUnitVector(CyclexError):
    """A direction that must be unit length is not."""


class InvalidRho(CyclexError):
    """The sphere radius rho is not above 1."""


class ConfigValidation(CyclexError):
    """A config failed validation; ``errors`` lists every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class NotConverged(CyclexError):
    """Iteration budget exhausted or a post-run certificate failed.

    Solvers attach whatever diagnostic objects they had on hand
    (trajectory, best candidate cycle, partial solution) so callers can
    still emit artifacts for a failed run.
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics
