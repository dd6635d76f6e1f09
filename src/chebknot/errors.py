"""Domain errors.

Every error raised on bad mathematical input derives from ChebknotError,
which is a ValueError, so callers that only care about "the input was
rejected" can catch either.
"""


class ChebknotError(ValueError):
    """Base class for all domain errors raised by this package."""


class ZeroQuotient(ChebknotError):
    """A continued fraction contained a zero quotient."""


class DivisionByZeroTail(ChebknotError):
    """A continued fraction tail evaluated to zero where it is inverted."""


class EmptySequence(ChebknotError):
    """An operation received an empty sequence."""


class NotGreaterThanOne(ChebknotError):
    """The operation requires a fraction strictly greater than one."""


class NonPositiveInput(ChebknotError):
    """The operation requires a strictly positive fraction."""


class NotOneRegular(ChebknotError):
    """A sign sequence violates one-regularity."""


class WrongLeadingSigns(ChebknotError):
    """A one-regular sequence must start with two +1 terms here."""


class NotPGPForm(ChebknotError):
    """The fraction's monoid word does not start and end with P."""


class NotCoprime(ChebknotError):
    """Arguments that must be coprime are not."""


class NotPairwiseCoprime(ChebknotError):
    """Three integers that must be pairwise coprime are not."""


class AlphaNonPositive(ChebknotError):
    """A Schubert numerator must be a positive integer."""


class IsLink(ChebknotError):
    """The fraction defines a two-component link where a knot is required."""


class IndexOutOfRange(ChebknotError):
    """A family or crossing index lies outside its defined range."""


class LengthMismatch(ChebknotError):
    """Two sequences that must have equal length do not."""


class InvalidForm(ChebknotError):
    """A sign sequence is not a valid Conway form for a Chebyshev diagram."""


class BadLambda(ChebknotError):
    """The twist parameter must be coprime to b and lie in (0, b/2)."""


class BDivisibleBy3(ChebknotError):
    """The diagram degree b must not be divisible by 3."""


class ADifferentFrom3(ChebknotError):
    """Harmonic classification is implemented for a <= 3 only."""


class TrivialKnot(ChebknotError):
    """The input reduces to the unknot, which has no canonical pair."""


class AmbiguousCrossing(ChebknotError):
    """The height cannot certify which strand passes over at a crossing."""


class NotTwoBridge(ChebknotError):
    """Diagram recovery is only defined for curves with a = 3."""
