"""Exception types for graph construction, parsing, search and verification."""


class CoronaColorError(Exception):
    """Base class for every error raised by this package."""


class SelfLoopError(CoronaColorError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(CoronaColorError):
    """The same unordered pair appears twice in an edge list."""


class EndpointOutOfRangeError(CoronaColorError):
    """An edge endpoint is not a valid vertex identifier."""


class NotSubcubicError(CoronaColorError):
    """A graph with maximum degree above three reached a subcubic-only routine."""


class BadCharError(CoronaColorError):
    """A byte outside the printable graph6 alphabet."""


class TruncatedPayloadError(CoronaColorError):
    """A graph6 line ends before the full adjacency payload."""


class TrailingGarbageError(CoronaColorError):
    """A graph6 line continues past the adjacency payload."""


class EdgeListParseError(CoronaColorError):
    """Malformed edge-list text; the message carries the line number."""


class SchemaViolationError(CoronaColorError):
    """A coloring document does not match the expected JSON schema."""


class ColorOutOfRangeError(CoronaColorError):
    """A color lies outside 1..max_color."""


class DimensionMismatchError(CoronaColorError):
    """A coloring does not cover the graph it is paired with."""


class BudgetExceededError(CoronaColorError):
    """An exact search ran out of its node-expansion budget."""
