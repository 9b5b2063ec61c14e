"""Exception types shared across the package."""


class MaxentLabError(Exception):
    """Base class for all errors raised by maxent_lab."""


class ValidationError(MaxentLabError):
    """Bad user input: malformed labels, weights, config fields."""


class DegenerateCoordinateError(ValidationError):
    """A constraint coordinate is constant over the sample space, so its
    covariance row is identically zero and no solution exists."""


class TargetOutsideHullError(ValidationError):
    """The target moment vector lies outside the convex hull of the
    statistic values; no distribution can satisfy the constraint."""


class BoundaryTargetError(MaxentLabError):
    """The target lies on the hull boundary; the exponential-form solution
    does not exist there. Restrict the sample space and retry."""


class SingularCovarianceError(MaxentLabError):
    """The statistic covariance matrix is numerically singular, typically
    because coordinates are affinely dependent."""


class InternalCheckError(MaxentLabError):
    """An internal consistency check failed, such as the solver's entropy
    cross-check: the computed result is wrong, so it is not returned."""


class ConvergenceError(MaxentLabError):
    """The dual Newton iteration did not reach tolerance."""


class LatticeBlowupError(MaxentLabError):
    """A lattice table would exceed the configured cell budget. Reduce n,
    drop event dimensions, or coarsen the statistic."""


class EnumerationInfeasibleError(MaxentLabError):
    """An exhaustive enumeration would exceed its size guard."""
