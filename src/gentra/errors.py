"""Exception types shared across the package."""


class GentraError(Exception):
    """Base class for every error raised by this package."""


class KindMismatchError(GentraError):
    """Virtual and actual trace events were mixed where one kind is required."""


class PrefixRangeError(GentraError):
    """Requested a prefix longer than the trace."""


class ClosureError(GentraError):
    """A set of prefixes that must be prefix-closed is not."""


class TransitionError(GentraError):
    """A transition rule was applied in a state that violates its conditions."""

    def __init__(self, rule, condition, index=None):
        self.rule = rule
        self.condition = condition
        self.index = index
        at = f" at event {index}" if index is not None else ""
        super().__init__(f"{rule}: {condition}{at}")


class ReconstructionError(GentraError):
    """An actual record could not be replayed into a virtual step."""

    def __init__(self, rule, condition, index=None):
        self.rule = rule
        self.condition = condition
        self.index = index
        at = f" at event {index}" if index is not None else ""
        super().__init__(f"{rule}: {condition}{at}")


class StateInvariantError(GentraError):
    """A solver state violates a structural invariant (e.g. the store partition)."""


class ProjectionError(GentraError):
    """A parameter/action projection is invalid for the semantics it targets."""


class MappingError(GentraError):
    """A trace or state cannot be carried through a level mapping."""


class TraceSyntaxError(GentraError):
    """Unparseable trace text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = "" if line is None else f" (line {line}" + ("" if column is None else f", col {column}") + ")"
        super().__init__(message + where)


class TraceShapeError(GentraError):
    """An event record does not have the attribute shape its type requires."""

    def __init__(self, event_type, message, line=None):
        self.event_type = event_type
        self.line = line
        where = "" if line is None else f" (line {line})"
        super().__init__(f"{event_type}: {message}{where}")


class ProblemError(GentraError):
    """Unparseable or semantically ill-formed problem text; ``entry`` names a built problem's faulty (field, index)."""

    def __init__(self, message, line=None, entry=None):
        self.line = line
        self.entry = entry
        where = "" if line is None else f" (line {line})"
        super().__init__(message + where)


class SolveLimitError(GentraError):
    """A solver run exceeded its node or event budget.

    Carries the trace produced so far so callers can inspect the partial run.
    """

    def __init__(self, message, partial_events=()):
        self.partial_events = tuple(partial_events)
        super().__init__(message)
