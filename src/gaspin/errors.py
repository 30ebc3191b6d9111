"""Exception types shared across the library."""


class GAError(Exception):
    """Base class for all library errors."""


class NonFiniteValue(GAError, ValueError):
    """A coefficient is NaN or infinite, for instance after an overflow."""


class NotInSubalgebra(GAError, ValueError):
    """An element has parts outside the subalgebra an operation requires."""


class SignatureMismatch(GAError):
    """Operands belong to different algebras."""


class GradeOutOfRange(GAError):
    """A requested grade exceeds the dimension of the algebra."""


class NullVector(GAError):
    """A vector with (numerically) zero square cannot be inverted."""


class NotAVector(GAError):
    """Operation requires a pure grade-1 argument."""


class NonScalarSquare(GAError):
    """exp() argument whose square is not a real scalar."""


class PoleSingularity(GAError):
    """Stereographic projection evaluated at the excluded pole."""


class DomainViolation(GAError):
    """Point outside the open unit ball of the hyperbolic chart."""


class TagMismatch(GAError):
    """Spinors from different algebras cannot be combined."""


class DegenerateState(GAError):
    """Spinor state outside the chart (zero leading component or zero norm)."""


class NonTimelike(GAError):
    """Minkowski norm squared is not positive."""


class NotInIdeal(GAError):
    """Multivector does not lie in the expected spinor ideal."""


class NotOrthogonal(GAError):
    """Quaternion spinor lacks the orthogonality property."""


class ZeroQ0(GAError):
    """Canonical form requires a nonzero leading quaternion."""


class VerificationFailure(GAError):
    """A computed result failed its own runtime invariant check."""
