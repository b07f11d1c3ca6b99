"""Exception types shared across the package.

Each maps onto one CLI exit code: ConfigError -> 2, numerical
non-convergence (QuadratureConvergenceError, BracketingError,
EigensolverConvergenceError) -> 3, InfeasiblePackingError -> 4.
"""


class DepolgasError(Exception):
    """Base class for package errors."""


class ConfigError(DepolgasError):
    """Invalid or inconsistent run configuration."""


class ScaleSeparationError(ConfigError):
    """A required length-scale inequality is violated."""


class QuadratureConvergenceError(DepolgasError):
    """A quadrature failed to reach the requested tolerance."""


class BracketingError(DepolgasError):
    """Root bracketing or bisection failed to converge."""


class EigensolverConvergenceError(DepolgasError):
    """The iterative eigensolver did not converge."""


class NoCriticalDensityError(DepolgasError):
    """The gas is stable at every density for the given pair statistics."""


class InfeasiblePackingError(DepolgasError):
    """Hard-sphere configuration cannot be sampled at the requested density."""
