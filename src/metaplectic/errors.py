"""Typed error hierarchy for numerical-domain failures.

Every precondition violation raises a subclass of :class:`NumericalDomainError`
so callers (and the command line tool) can distinguish domain problems from
programming errors.  Accuracy degradations that do not invalidate a result are
signalled with :class:`BandwidthExceededWarning` instead.
"""


class NumericalDomainError(ValueError):
    """Base class: input lies outside the numerical domain of an operation."""


class NotFreeError(NumericalDomainError):
    """Symplectic matrix has a singular upper-right block, so no generating
    function of the free form exists."""


class SingularSMinusIError(NumericalDomainError):
    """det(S - I) is below the singularity threshold; the Cayley transform
    and the phase-space integral forms are undefined."""


class SingularMMinusHalfJError(NumericalDomainError):
    """det(M - J/2) is below threshold; the inverse Cayley map is undefined."""


class DegenerateMatrixError(NumericalDomainError):
    """A matrix that must be invertible (or a quadratic form that must be
    nondegenerate) failed its conditioning check."""


class ParityMismatchError(NumericalDomainError):
    """Integer branch is incompatible with the sign of det L."""


class NonIntegralIndexError(NumericalDomainError):
    """A Maslov or Conley-Zehnder index is not a finite integral value."""


class OutOfDomainError(NumericalDomainError):
    """Requested evaluation points leave the sampled domain."""


class GridMismatchError(NumericalDomainError):
    """Operands are sampled on incompatible grids or with different hbar."""


class TruncationError(NumericalDomainError):
    """Estimated truncation error of a quadrature exceeds its budget."""


class FactorizationFailedError(NumericalDomainError):
    """No factorization with well-separated det(S_W - I) factors was found."""


class DegeneratePhaseError(NumericalDomainError):
    """Stationary-phase Hessian is singular at the requested tolerance."""


class SingularAngleError(NumericalDomainError):
    """Rotation angle is a multiple of pi, where the generating function of
    the rotation family degenerates."""


class BandwidthExceededWarning(UserWarning):
    """Spectral content reaches the edge of the dual grid; results may lose
    accuracy to aliasing."""
