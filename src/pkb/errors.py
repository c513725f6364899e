"""Exception hierarchy shared across the package.

Everything raised on purpose derives from PkbError so callers (and the
CLI) can catch one type. Unification failure and empty query results are
normal return values, not exceptions.
"""


class PkbError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(PkbError, ValueError):
    """A truth pair violates belief >= 0, disbelief >= 0, belief + disbelief <= 1."""


class TotalConflict(PkbError, ArithmeticError):
    """Two evidence sources are in total conflict (one fully confirms, the
    other fully disconfirms); their combination is undefined."""


class NotCertainRemovable(PkbError):
    """A fully certain component cannot be removed from an accumulation."""


class NoValidResidual(PkbError):
    """Removing a component produced no residual satisfying the truth-value
    invariants (a numerical corner; callers should rebuild from scratch)."""


class DepthExceeded(PkbError):
    """Chaining went past the configured depth bound."""

    def __init__(self, goal, depth):
        super().__init__(f"chain depth {depth} exceeded at {goal}")
        self.goal = goal
        self.depth = depth


class NotFound(PkbError, KeyError):
    """A justification (or other keyed record) does not exist."""


class TautologicalResolvent(PkbError):
    """Resolving two clauses would produce a clause containing both a
    literal and its negation."""


class IterationBoundExceeded(PkbError):
    """Saturation hit its round bound before reaching a fixpoint.

    Carries the partial result accumulated so far in ``partial``.
    """

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class ParseError(PkbError, ValueError):
    """Malformed input text. Carries 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
