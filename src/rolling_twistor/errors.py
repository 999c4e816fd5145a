"""Exception types shared across the package."""


class RollingTwistorError(Exception):
    """Base class for all package errors."""


class DomainError(RollingTwistorError):
    """A point lies outside the valid chart/parameter domain."""


class IntegrablePointError(DomainError):
    """The two surfaces have equal curvature at the point: the velocity
    distribution closes up and the (2,3,5) invariants are undefined."""


class StepSizeError(RollingTwistorError):
    """A finite-difference or integration step is unusable (zero, negative,
    or small enough that cancellation dominates)."""


class QuadratureError(RollingTwistorError):
    """A quadrature rule cannot deliver an integral to its tolerance: the
    integrand is not finite, an end is not integrable, or the level cap is hit."""


class SpecParseError(RollingTwistorError, ValueError):
    """A surface spec string, control file, or CLI grid spec failed to parse.

    `position` carries the character index (or line number for files) of the
    offending token when known.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
