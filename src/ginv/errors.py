"""Exception types shared across the package.

Absence of a generalized inverse is a normal result (functions return None
or a result object with exists=False); exceptions are reserved for caller
errors and violated internal invariants.
"""


class GinvError(Exception):
    """Base class for all errors raised by this package."""


class DomainMismatch(GinvError):
    """Operands live in different scalar domains."""


class ShapeMismatch(GinvError):
    """Matrix shapes are not conformable for the requested operation."""


class NotInvertible(GinvError):
    """Scalar division by zero or by a zero-divisor."""


class UnsupportedDomain(GinvError):
    """The operation is not defined over this scalar domain."""


class PreconditionFailed(GinvError):
    """A documented precondition was violated by the caller."""


class RouteDisagreement(GinvError):
    """Two computation routes for the same inverse produced different values.

    This is an internal invariant violation (the governing identities force
    all routes to agree), never a normal outcome.
    """


class TooLarge(GinvError):
    """Requested finite ring exceeds the configured cap."""


class UnknownTheorem(GinvError):
    """Theorem id not present in the verification catalog."""


class ToleranceWarning(UserWarning):
    """A floating-point route failed near the decision tolerance."""
