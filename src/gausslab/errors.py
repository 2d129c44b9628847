"""Exception types shared across the library."""


class GausslabError(Exception):
    """Base class for all library-specific errors."""


class NonExactDivision(GausslabError):
    """Polynomial division left a nonzero remainder."""


class ZeroPolynomial(GausslabError):
    """Operation is undefined on the zero polynomial."""


class SlotOverflow(GausslabError):
    """A packed-integer product's coefficients did not fit their slots."""


class EnumerationBudgetExceeded(GausslabError):
    """A command's predicted size is past its limit (``cli._admit``, exit 3)."""


class NoSuccessor(GausslabError):
    """Partition already fills its box; no weight-increasing successor exists."""


class NotAnAntichain(GausslabError):
    """Input family contains a comparable pair (stored in ``pair``)."""

    def __init__(self, pair, message=None):
        self.pair = pair
        super().__init__(message or f"comparable pair: {pair[0]} <= {pair[1]}")


class PathMissesLine(GausslabError):
    """Path reflection requested about a line the path never touches."""


class ParityViolation(GausslabError):
    """Step count has the wrong parity for the requested endpoint."""
