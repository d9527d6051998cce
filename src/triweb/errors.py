"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, 3 for ``EvalDomainError``,
``TraceError`` and ``NonFiniteError`` and 2 for the others, so new error
types should subclass one of the classes below rather than ``TriwebError``
directly.
"""


class TriwebError(Exception):
    """Base class for all triweb errors."""


class ParseError(TriwebError):
    """Raised for malformed expression text.

    ``offset`` is the byte offset into the source string at which the
    problem was detected.
    """

    def __init__(self, message: str, source: str, offset: int):
        self.source = source
        self.offset = offset
        super().__init__(f"{message} (at offset {offset} in {source!r})")


class EvalDomainError(TriwebError):
    """Evaluation left the analytic domain of an expression.

    Carries the offending subexpression text and the point at which the
    violation happened.
    """

    def __init__(self, message: str, fragment: str, point):
        self.fragment = fragment
        self.point = tuple(point)
        super().__init__(f"{message} in {fragment!r} at point {self.point}")


class NormalFormError(TriwebError):
    """A web was required in normal form (u1 = x, u2 = y) but is not."""


class TraceError(TriwebError):
    """Leaf tracing or on-leaf root finding failed."""


class NonFiniteError(TriwebError):
    """A result to be reported is nan or infinite."""


class HexagonError(TraceError):
    """A hexagon traversal left the domain or a leg failed to close on its
    target level set."""


class ConfigError(TriwebError):
    """Invalid run configuration (bad grid, tolerance, box, or web spec)."""
