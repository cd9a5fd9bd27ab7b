"""Exception hierarchy.

Every error raised on bad mathematical input derives from CohomrepsError so
callers (and the command line front end) can catch one type.
"""


class CohomrepsError(Exception):
    """Base class for all domain errors raised by this package."""


class BoxOverflow(CohomrepsError):
    """A partition does not fit inside the required p x q box."""


class NotNested(CohomrepsError):
    """The first partition is not contained in the second."""


class NotCompatible(CohomrepsError):
    """The skew diagram of a partition pair is not a corner chain of
    rectangles, so the pair parametrizes nothing here."""


class NotOrthogonal(CohomrepsError):
    """A partition is not self-complementary-compatible in its box, as the
    orthogonal parametrization requires."""


class PalindromeViolation(CohomrepsError):
    """Internal consistency tripwire: a centrally symmetric skew diagram
    failed the palindrome check that symmetry guarantees."""


class InvariantViolation(CohomrepsError):
    """Internal consistency tripwire: a quantity computed two independent
    ways (a lowest degree, a module dimension) came out different."""


class InexactDivision(CohomrepsError):
    """An exact integer division inside a character computation left a
    remainder. For multiplicity extraction this means the input was not an
    invariant character."""


class NotADivisor(CohomrepsError):
    """A modulus was required to divide a rank exactly and did not."""


class SignatureMismatch(CohomrepsError):
    """Numeric data (weight vector, exponent list) has the wrong length for
    the group it was paired with."""


class WrongFamily(CohomrepsError):
    """An operation specific to one family of groups was applied to a
    member of another."""


class BadRank(CohomrepsError):
    """A rank or signature parameter is out of the allowed range."""


class DomainError(CohomrepsError):
    """A numeric parameter lies outside the domain where the formula is
    defined."""
