"""Exception hierarchy shared across the package."""


class DdaeStructError(Exception):
    """Base class for all errors raised by this package."""


class MalformedDocument(DdaeStructError):
    """Input document is not well-formed JSON."""


class SchemaViolation(DdaeStructError):
    """Document is valid JSON but does not match the interchange schema."""


class IndexOutOfRange(DdaeStructError):
    """A variable or equation index lies outside the declared ranges."""


class DuplicateOccurrence(DdaeStructError):
    """An equation lists the same (var, shift, deriv) triple twice."""


class NotExposed(DdaeStructError):
    """The queried equation is matched, so no connection query applies."""


class RootNotInGraph(DdaeStructError):
    """The requested root is not a node of the digraph."""


class CapExceeded(DdaeStructError):
    """Brute-force enumeration was asked to run beyond its size cap."""


class ArcNotInGraph(DdaeStructError):
    """A tree arc does not exist in the host graph."""


class BadSize(DdaeStructError):
    """A scenario size parameter out of range."""


class LimitExceeded(DdaeStructError):
    """The naive search exceeded its configured work cap."""
