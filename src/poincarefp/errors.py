"""Exception types shared across the package."""


class PoincarefpError(Exception):
    """Base class for all package errors."""


class ExpressionError(PoincarefpError):
    """Syntax or semantic error while parsing an expression."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EvalDomainError(PoincarefpError):
    """Evaluation left the real domain (log/sqrt of a negative, division
    by zero), overflowed, or was asked for at a non-finite t."""


class ComplexRoots(PoincarefpError):
    """The characteristic polynomial has roots with a nonnegligible
    imaginary part; the real-simple-spectrum hypothesis fails."""


class RepeatedRoots(PoincarefpError):
    """Two characteristic roots coincide within tolerance; the
    simple-spectrum hypothesis fails."""


class QuadratureFailure(PoincarefpError):
    """An improper integral could not be resolved to the requested
    accuracy (unbounded tail mass or nonconvergence)."""


class DivergenceDetected(PoincarefpError):
    """Successive-approximation ratios stayed at or above 1."""


class InvarianceViolated(PoincarefpError):
    """An iterate escaped the ball of radius eta in the sup-jet norm."""


class IntegrationFailure(PoincarefpError):
    """The reference integrator could not continue: its step fell below
    the minimum step, or its error estimate was not finite."""


class MaxIterations(PoincarefpError):
    """The iteration budget was exhausted before the tolerance was met."""


class ConfigError(PoincarefpError):
    """Problem configuration file is malformed or inconsistent."""
