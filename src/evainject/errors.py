"""Exception hierarchy shared across the package.

Every domain error derives from AlgebraError.  InternalInvariantError and
its subclasses signal implementation bugs (two methods that must agree
disagreeing, an identity that is guaranteed by a theorem failing to hold);
the CLI maps those to exit code 70 instead of a normal verdict.
"""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class SpecMismatchError(AlgebraError):
    """Operands live in different fields."""


class SymbolicFieldError(AlgebraError):
    """Element arithmetic requested in a verdict-only field tag (ACF/RCF)."""


class DivisionByZeroError(AlgebraError, ZeroDivisionError):
    pass


class InfiniteFieldError(AlgebraError):
    """Enumeration requested for a field that is not finite."""


class InvalidFieldError(AlgebraError):
    """Bad field description: composite p, reducible modulus, size cap."""


class BothZeroError(AlgebraError):
    """gcd(0, 0) requested."""


class ZeroPolynomialError(AlgebraError):
    pass


class ConstantPolynomialError(AlgebraError):
    pass


class DegreeCapExceededError(AlgebraError):
    """Rational factorization requested above the supported degree."""


class CoefficientCapExceededError(AlgebraError):
    """Rational factorization requested above the coefficient-size cap."""


class ArityMismatchError(AlgebraError):
    """Evaluation point length does not match the number of variables."""


class NotMonicError(AlgebraError):
    pass


class DimensionTooSmallError(AlgebraError):
    pass


class TargetTooSmallError(AlgebraError):
    """Block embedding into a matrix smaller than the block."""


class LengthMismatchError(AlgebraError):
    """Vector length is not the expected square n*n."""


class NotAWitnessError(AlgebraError):
    """Claimed collision pair does not verify."""


class EnumerationCapExceededError(AlgebraError):
    """Exhaustive scan would exceed the configured enumeration cap."""


class ValueTooLongError(AlgebraError):
    """A rational value has more digits than Python's int-to-string limit
    lets it print."""


class ParseError(AlgebraError):
    """Input text rejected; carries the offending position (0-based)."""

    def __init__(self, message: str, text: str = "", position: int = -1):
        self.text = text
        self.position = position
        if position >= 0:
            message = f"{message} (at position {position}: {text[position:position + 12]!r})"
        super().__init__(message)


class InternalInvariantError(AlgebraError):
    """An internal consistency guarantee was violated: implementation bug."""


class InconsistentMethodsError(InternalInvariantError):
    """Two decision methods that must agree returned different answers."""


class GcdNotOneError(InternalInvariantError):
    """A gcd that is guaranteed to be 1 by the applicable case split is not."""
