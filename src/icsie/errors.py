"""Exception hierarchy shared by all modules."""


class IcsieError(Exception):
    """Base class for all library errors."""


class NotPrimePowerError(IcsieError):
    pass


class FieldTooLargeError(IcsieError):
    pass


class FieldMismatchError(IcsieError):
    pass


class ParseError(IcsieError):
    pass


class BudgetExceededError(IcsieError):
    pass


class NoSolutionError(IcsieError):
    pass


class InconsistentError(IcsieError):
    pass


class DegenerateError(IcsieError):
    pass


class DimensionError(IcsieError, ValueError):
    """A generator with the wrong number of rows for the instance.  It
    is a ValueError too, the type callers of these checks catch."""


class CycleTooSmallError(IcsieError):
    pass


class DistanceTooSmallError(IcsieError):
    pass


class NotUnipartiteError(IcsieError):
    pass


class MismatchError(IcsieError):
    """Two exact routes to one answer disagree."""
