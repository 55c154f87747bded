"""Exception types shared across the package."""

__all__ = [
    "QdsaError",
    "DimMismatch",
    "NotHermitian",
    "NotPSD",
    "OutOfUnitInterval",
    "NotUnital",
    "NegativeTime",
    "FamilyNotSubharmonic",
    "NotFixedPoint",
    "TheoremViolation",
    "ConvergenceFailure",
    "InternalError",
    "ParseError",
    "ValidationError",
]


class QdsaError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QdsaError, ValueError):
    """An input (a parsed object or an argument) violates a semantic
    constraint; also a ValueError.  DimMismatch, NotHermitian, NotPSD and
    NotUnital are its named rules."""


class DimMismatch(ValidationError):
    """Operands have incompatible shapes or an invalid dimension."""


class NotHermitian(ValidationError):
    """A matrix expected to be Hermitian is not, within tolerance."""


class NotPSD(ValidationError):
    """A matrix expected to be positive semidefinite is not."""


class OutOfUnitInterval(QdsaError):
    """An operator expected to satisfy 0 <= x <= 1 violates the bound."""


class NotUnital(ValidationError):
    """A Kraus family fails the unitality (trace-preservation) condition."""


class NegativeTime(QdsaError):
    """Evolution was requested for a negative time."""


class FamilyNotSubharmonic(QdsaError):
    """A lattice operation received a projection that is not sub-harmonic."""


class NotFixedPoint(QdsaError):
    """An operator expected to be invariant under the map is not."""


class TheoremViolation(QdsaError):
    """A numerically certified structural law failed decisively.

    This signals numerical breakdown (or a genuinely broken input), never a
    condition to be silently tolerated.
    """


class ConvergenceFailure(QdsaError):
    """An iterative refinement stalled without reaching a decisive state."""


class InternalError(QdsaError):
    """An internal consistency check failed (should never happen)."""


class ParseError(QdsaError):
    """A model or state file is structurally malformed."""
