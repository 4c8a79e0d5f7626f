"""Exception hierarchy shared by all qmcnet modules."""


class QmcNetError(Exception):
    """Base class for all library errors."""


class InvalidParams(QmcNetError):
    """Parameters outside their documented window."""


class NotPrime(InvalidParams):
    """Base of a prime field failed the primality check."""


class BaseTooSmall(InvalidParams):
    """Prime base too small to pick the required distinct elements."""


class SizeOverflow(QmcNetError):
    """An enumeration would exceed the configured size limit."""


class NotPowerCardinality(QmcNetError):
    """Point set cardinality is not b**n where required."""


class InvalidRange(InvalidParams):
    """Index arguments outside their admissible range."""


class NonTerminatingExpansion(QmcNetError):
    """Coordinate has no terminating base-b digit expansion."""


class NetFileError(QmcNetError):
    """Malformed point-set file."""
