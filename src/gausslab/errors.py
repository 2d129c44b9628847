"""The exceptions that are not ``ValueError``.

An argument outside a function's domain (the zero polynomial where a darga
is needed, a full partition, a comparable pair in an antichain, a path that
misses its line, a walk length of the wrong parity) raises ``ValueError``.
The classes here mark an inexact division, an overflowed packed slot and a
command refused by its predicted size.
"""


class GausslabError(Exception):
    """Base class for all library-specific errors."""


class NonExactDivision(GausslabError):
    """Polynomial division left a nonzero remainder."""


class SlotOverflow(GausslabError):
    """A packed-integer product's coefficients did not fit their slots."""


class EnumerationBudgetExceeded(GausslabError):
    """A command's predicted size is past its limit (``cli._admit``, exit 3)."""
