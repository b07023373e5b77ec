"""Exception types shared across the package."""


class DegstabError(Exception):
    """Base class for all package-specific errors."""


class AnfSyntaxError(DegstabError, ValueError):
    """Malformed polynomial text."""


class VariableIndexError(DegstabError, ValueError):
    """Variable index out of the declared range (or zero)."""


class InvalidLengthError(DegstabError, ValueError):
    """Bit vector length is not a power of two, or n out of range."""


class DimensionMismatchError(DegstabError, ValueError):
    """Operands live in different numbers of variables."""


class EnumerationRangeError(DegstabError, ValueError):
    """Co-dimension, chunk size or subspace rank outside what enumeration supports."""


class ArrayLayoutError(DegstabError, ValueError):
    """Array is not the C-contiguous uint8 layout an in-place kernel needs."""


class NotCanonicalError(DegstabError, ValueError):
    """Subspace forms or constants are not the canonical (RREF) representative."""


class ZeroDirectionError(DegstabError, ValueError):
    """Derivative direction is the zero vector."""


class DependentDirectionsError(DegstabError, ValueError):
    """Iterated derivative directions are linearly dependent."""


class NotHomogeneousError(DegstabError, ValueError):
    """Operation requires a homogeneous function."""


class SingularMatrixError(DegstabError, ValueError):
    """Matrix is not invertible."""


class ZeroFunctionError(DegstabError, ValueError):
    """Operation undefined for the zero function."""


class ConstantFunctionError(DegstabError, ValueError):
    """Operation undefined for constant functions."""


class InvariantViolationError(DegstabError, AssertionError):
    """A result the mathematics guarantees did not hold.

    This signals an implementation bug, never bad input.
    """


class PreconditionViolatedError(DegstabError, ValueError):
    """Parameters outside the range where a construction is proven to work."""


class DivisibilityError(DegstabError, ValueError):
    """Circular construction needs (k+1) | n."""


class TooManyMonomialsError(DegstabError, ValueError):
    """Direct sum does not fit in the requested number of variables."""


class NotQuadraticError(DegstabError, ValueError):
    """Function has no degree-2 part of top degree."""


class NotSymmetricError(DegstabError, ValueError):
    """Function is not symmetric under variable permutations."""


class CatalogMismatchError(DegstabError):
    """Computed catalog values diverge from the stored expected values."""

    def __init__(self, rows):
        self.rows = list(rows)
        lines = ", ".join(str(r) for r in self.rows)
        super().__init__(f"catalog mismatch in {len(self.rows)} row(s): {lines}")
