"""Exception types shared across the package, each with its CLI exit code.

The exit codes live here and nowhere else: ``exit_code`` is set once per
type and inherited by its subclasses. Parse failures exit 2, precondition
violations (capacity and undefined decay rates among them) exit 3, and
inconclusive Monte-Carlo estimates exit 5. Every other error is a fault in
the package itself and exits 1.
"""


class ChainError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class ParseError(ChainError):
    """Malformed input file or serialized object."""

    exit_code = 2


class PreconditionError(ChainError, ValueError):
    """An operation was called outside its documented domain."""

    exit_code = 3


class CapacityError(PreconditionError):
    """Request exceeds a hard size cap (e.g. the exact-enumeration limit)."""


class DecayRateUndefinedError(PreconditionError):
    """Covariance is not positive, so -log(cov)/distance is undefined."""


class InconclusiveEstimateError(ChainError):
    """A Monte-Carlo estimate too uncertain to judge: its denominator is not
    separated from zero, or its standard error is 0 with the mean away from
    the exact value."""

    exit_code = 5


class OracleMismatchError(ChainError):
    """The O(N) solver and the enumeration oracle disagree beyond tolerance."""
