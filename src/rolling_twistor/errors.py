"""Exception types shared across the package, and the replay of a failing stack."""

import numpy as np


class RollingTwistorError(Exception):
    """Base class for all package errors."""


class DomainError(RollingTwistorError):
    """A point lies outside the valid chart/parameter domain."""


class IntegrablePointError(DomainError):
    """The two surfaces have equal curvature at the point: the velocity
    distribution closes up and the (2,3,5) invariants are undefined."""


class ChartOverflowError(DomainError, OverflowError):
    """The frame data overflow a float: the point lies outside the chart."""


class StepSizeError(RollingTwistorError):
    """A finite-difference or integration step is unusable (zero, negative,
    or small enough that cancellation dominates)."""


class QuadratureError(RollingTwistorError):
    """A quadrature rule cannot deliver an integral to its tolerance: the
    integrand is not finite, an end is not integrable, or the level cap is hit."""


class SpecParseError(RollingTwistorError, ValueError):
    """A surface spec string, control file, or CLI grid spec failed to parse,
    or the -o output file cannot be opened.  The message names the offending
    token and, when known, its character position in the spec or its line
    in the file."""


def first_failing_row(fn, *columns):
    """fn(*columns) on a stack of rows (the columns share their first axis),
    with numpy's floating-point warnings off: fn checks for non-finite values
    itself.  If fn raises a package, arithmetic or value error, it is called
    on each row in order, as a stack of one, so the first row that fails on
    its own raises its own error; if none does, the stack's error is
    raised.  A stack of one row is not replayed."""
    with np.errstate(all="ignore"):
        try:
            return fn(*columns)
        except (RollingTwistorError, ArithmeticError, ValueError):
            if len(columns[0]) > 1:
                for i in range(len(columns[0])):
                    fn(*(c[i : i + 1] for c in columns))
            raise
