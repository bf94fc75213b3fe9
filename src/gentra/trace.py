"""Trace objects, prefixes, segments, and prefix-closed trace domains.

A trace is an initial state followed by a finite ordered sequence of events.
Events are either *virtual* (an action label plus the state it reaches) or
*actual* (a synthetic attribute record emitted by a tracer); a single trace
never mixes the two kinds.  Sets of prefixes that are closed under taking
shorter prefixes form a lattice under union and intersection, with the empty
set at the bottom and the full prefix set at the top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Hashable, Iterable, Iterator, NamedTuple

from .errors import ClosureError, KindMismatchError, PrefixRangeError


class VirtualPayload(NamedTuple):
    """One observed transition: the action taken and the state it reached.

    An immutable named tuple: it compares and hashes by value, as tuples do.
    """

    action: Hashable
    state: Hashable


class ActualPayload(NamedTuple):
    """One emitted record: the attributes a tracer wrote for a transition.

    An immutable named tuple: it compares and hashes by value, as tuples do.
    """

    record: Hashable


TraceEvent = VirtualPayload | ActualPayload

# the payload the class call builds, without its Python-level generated ``__new__``
_payload = tuple.__new__


def _actual_payloads(records: Iterable) -> tuple[ActualPayload, ...]:
    return tuple(map(_payload, repeat(ActualPayload), zip(records)))


@dataclass(frozen=True)
class Trace:
    """An initial state followed by a finite event sequence of one kind."""

    initial_state: Hashable
    events: tuple[TraceEvent, ...] = ()
    # provenance, not content: ==, hash and repr ignore it, and replace drops it
    applied_by: Any = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def built_by(cls, os: Any, initial_state: Hashable, events: tuple[TraceEvent, ...]) -> "Trace":
        """A trace whose every step ``os.apply`` built (replay and the solvers),
        which ``extract`` under ``os`` need not check; prefixes keep ``applied_by``."""
        trace = cls(initial_state, events)
        object.__setattr__(trace, "applied_by", os)
        return trace

    def __post_init__(self):
        # one test per distinct event type rather than per event
        if len({issubclass(t, VirtualPayload) for t in set(map(type, self.events))}) > 1:
            raise KindMismatchError("a trace cannot mix virtual and actual events")

    @property
    def size(self) -> int:
        return len(self.events)

    @property
    def kind(self) -> str | None:
        """'virtual' | 'actual', or None for the size-0 trace."""
        return ("virtual" if isinstance(self.events[0], VirtualPayload) else "actual") if self.events else None

    def prefix(self, k: int) -> "Trace":
        """The prefix made of the first ``k`` events (k=0 keeps just the state)."""
        if not 0 <= k <= self.size:
            raise PrefixRangeError(f"prefix size {k} out of range 0..{self.size}")
        return Trace.built_by(self.applied_by, self.initial_state, self.events[:k])

    def prefixes(self) -> Iterator["Trace"]:
        for k in range(self.size + 1):
            yield self.prefix(k)

    def is_prefix_of(self, other: "Trace") -> bool:
        return (
            self.initial_state == other.initial_state
            and self.size <= other.size
            and other.events[: self.size] == self.events
        )


@dataclass(frozen=True)
class Segment:
    """A pure event sequence (no initial state); concatenation is associative."""

    events: tuple[TraceEvent, ...] = ()

    def __add__(self, other: "Segment") -> "Segment":
        return concat(self, other)

    @property
    def size(self) -> int:
        return len(self.events)


EMPTY_SEGMENT = Segment()


def concat(a: Segment, b: Segment) -> Segment:
    return Segment(a.events + b.events)


PrefixSet = frozenset


def all_prefixes(traces: Iterable[Trace]) -> PrefixSet:
    """Every prefix of every trace, deduplicated.

    The result is prefix-closed and contains the input traces.  All traces
    must agree on the event kind.
    """
    traces = list(traces)
    kinds = {t.kind for t in traces if t.kind is not None}
    if len(kinds) > 1:
        raise KindMismatchError("cannot mix virtual and actual traces in one prefix set")
    out = set()
    for t in traces:
        out.update(t.prefixes())
    return frozenset(out)


def is_prefix_closed(prefixes: Iterable[Trace]) -> bool:
    ps = set(prefixes)
    return all(t.prefix(t.size - 1) in ps for t in ps if t.size > 0)


def _require_closed(ps, label):
    if not is_prefix_closed(ps):
        raise ClosureError(f"{label} operand is not prefix-closed")


def domain_join(x: PrefixSet, y: PrefixSet) -> PrefixSet:
    """Lattice join of two prefix-closed sets: plain union."""
    _require_closed(x, "join")
    _require_closed(y, "join")
    return frozenset(x | y)


def domain_meet(x: PrefixSet, y: PrefixSet) -> PrefixSet:
    """Lattice meet of two prefix-closed sets: plain intersection."""
    _require_closed(x, "meet")
    _require_closed(y, "meet")
    return frozenset(x & y)


BOTTOM_DOMAIN: PrefixSet = frozenset()


@dataclass(frozen=True)
class TraceDomain:
    """A finite family of prefix-closed sets, closed under union and intersection."""

    members: frozenset

    def __post_init__(self):
        for m in self.members:
            if not is_prefix_closed(m):
                raise ClosureError("trace-domain element is not prefix-closed")
        for a in self.members:
            for b in self.members:
                if frozenset(a | b) not in self.members or frozenset(a & b) not in self.members:
                    raise ClosureError("trace domain is not closed under union/intersection")

    @property
    def bottom(self) -> PrefixSet:
        return BOTTOM_DOMAIN

    @property
    def top(self) -> PrefixSet:
        out: set = set()
        for m in self.members:
            out |= m
        return frozenset(out)
