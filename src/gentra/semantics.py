"""Observational semantics: labelled transitions with extraction and reconstruction.

A semantics bundles a state domain, a partial transition function given as a
rule table (whose kinds are its action kinds), and the two local translation
functions between virtual steps and actual records.  Extraction turns a
virtual trace into the actual trace a tracer would emit; reconstruction
replays an actual trace back into virtual steps.  A semantics is *faithful* when the two are mutually inverse
on every replayable trace; this module checks that property rather than
assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, repeat
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .errors import ReconstructionError, TransitionError
from .trace import ActualPayload, Trace, VirtualPayload, _payload


class Action(NamedTuple):
    """A transition label: a rule kind plus its instantiated arguments.

    An immutable named tuple, so it compares and hashes by value, as tuples
    do.  ``args`` holds the argument values in the order
    ``gentra4cp.ARGS`` states for the kind, and the rules read them by
    position; ``of`` lays keyword arguments out in that order.
    """

    kind: str
    args: tuple = ()

    @classmethod
    def of(cls, kind: str, **kwargs: Any) -> "Action":
        """The ``kind`` action of keyword arguments, those left out at their default (None unless ``ARG_DEFAULTS``)."""
        from .gentra4cp import ARG_DEFAULTS, ARGS
        names = ARGS.get(kind, ())
        unknown = set(kwargs).difference(names)
        if unknown:
            raise TypeError(f"{kind} takes no argument {min(unknown)!r}")
        return cls(kind, tuple(kwargs.get(name, ARG_DEFAULTS.get(name)) for name in names))

    def __repr__(self) -> str:
        from .gentra4cp import ARG_DEFAULTS, ARGS
        names = ARGS.get(self.kind, ())
        if len(names) != len(self.args):  # not a gentra4cp action
            return f"Action({self.kind}, {self.args!r})"
        shown = (f", {k}={v!r}" for k, v in zip(names, self.args) if v is not None or k not in ARG_DEFAULTS)
        return f"Action({self.kind}{''.join(shown)})"  # an optional argument left at None is not shown


def _always(_: Any) -> bool:
    return True


def _outside_the_profile(state: Any, action: Action):
    raise TransitionError(action.kind, "event type outside the profile")


class Refinement(NamedTuple):
    """A rule table, ``rules``, each of whose rules is ``base``'s rule of its kind, with conditions and an update
    of only what ``map_state`` forgets: a step of it is a ``base`` step under the maps (``check_simulable``)."""

    rules: Mapping[str, Callable]
    base: Mapping[str, Callable]
    map_state: Callable[[Any], Any]
    map_action: Callable[[Action], Action]
    action_map: Mapping[str, str]
    guards: tuple[str, ...] = ()  # the run-level guards whose pre-state tests ``rules`` make


@dataclass(frozen=True)
class ObservationalSemantics:
    """States, transitions, and the trace translation pair.

    ``rules`` is the transition function as data: kind to rule, and the one
    statement of the action kinds (``action_kinds``).  ``apply`` applies the
    rule of an action's kind, and a rule raises :class:`TransitionError`
    outside its domain, which doubles as the membership test for the
    transition relation; a kind with no rule is ``event type outside the
    profile``.  ``extract_local`` maps a
    transition to its attribute record; ``read_action`` reads back the
    action a record encodes in a given state, raising
    :class:`ReconstructionError` when it encodes none.  Replaying a record
    is reading its action, applying it and checking the record against the
    successor (``check_record``, :func:`replay_records`), so a replayed step is a
    transition by construction.  The static tables (``param_deps``,
    ``action_writes``, ``neutral_writes``) say which state parameters each
    update depends on and each rule writes; the projection checks use them.
    ``refines`` is set when ``rules`` is a :class:`Refinement`'s table.
    """

    name: str
    rules: Mapping[str, Callable[[Any, Action], Any]]
    extract_local: Callable[[Any, Action, Any], Any]
    read_action: Callable[[Any, Any], Action]
    is_initial: Callable[[Any], bool]
    is_record: Callable[[Any], bool] = _always
    check_record: Callable[[Any, Any], None] = lambda _record, _successor: None
    parameters: tuple[str, ...] = ()
    param_deps: Mapping[str, frozenset] = field(default_factory=lambda: MappingProxyType({}))
    action_writes: Mapping[str, frozenset] = field(default_factory=lambda: MappingProxyType({}))
    # writes a projection may ignore: removal-only updates and wholesale
    # snapshot rebindings, which cannot move a pinned parameter off its
    # initial value or introduce information outside the kept parameters
    neutral_writes: Mapping[str, frozenset] = field(default_factory=lambda: MappingProxyType({}))
    refines: Refinement | None = None

    @cached_property
    def action_kinds(self) -> frozenset:
        """The kinds ``rules`` has a rule for, built once per bundle."""
        return frozenset(self.rules)

    def apply(self, state: Any, action: Action) -> Any:
        """The successor of ``state`` by the rule of ``action``'s kind; a kind with no rule is outside the profile."""
        return self.rules.get(action[0], _outside_the_profile)(state, action)


def transition_holds(os: ObservationalSemantics, state: Any, action: Action, successor: Any) -> bool:
    """Membership test for the transition relation."""
    try:
        return os.apply(state, action) == successor
    except TransitionError:
        return False


def extract(os: ObservationalSemantics, vtrace: Trace) -> Trace:
    """Turn a virtual trace into the actual trace its tracer would emit.

    Every consecutive pair must be a real transition; the first offending
    index is reported otherwise.  A trace ``os.apply`` built holds that by
    construction (``vtrace.applied_by is os``), and costs no rule application.
    """
    if not os.is_initial(vtrace.initial_state):
        raise TransitionError(os.name, "initial state not in the initial-state set")
    if vtrace.kind == "actual":
        raise TransitionError(os.name, "extract expects a virtual trace", index=0)
    checked, extract_local = vtrace.applied_by is not os, os.extract_local
    state = vtrace.initial_state
    records = []
    for i, (action, successor) in enumerate(vtrace.events):
        if checked and not transition_holds(os, state, action, successor):
            raise TransitionError(os.name, f"step is not a {action.kind} transition", index=i)
        records.append(_payload(ActualPayload, (extract_local(state, action, successor),)))
        state = successor
    return Trace(vtrace.initial_state, tuple(records))


def replay_records(os: ObservationalSemantics, state: Any, records: Iterable, start: int = 0) -> tuple:
    """The steps ``records`` encode from ``state``: each record's action, read in the state the step before
    reached, and the successor its rule (looked up in ``os.rules``) leads to, checked against the record
    (``os.check_record``).  A record that fails raises its :class:`ReconstructionError` at its index from
    ``start``, a rule's :class:`TransitionError` included, so a kind with no rule is refused where it occurs.
    """
    name, is_record, read, rules, check = os.name, os.is_record, os.read_action, os.rules, os.check_record
    steps = []
    for i, record in enumerate(records, start):
        if not is_record(record):
            raise ReconstructionError(name, "record outside the actual-state domain", index=i)
        try:
            action = read(state, record)
            try:
                state = rules.get(action[0], _outside_the_profile)(state, action)
            except TransitionError as exc:
                raise ReconstructionError(exc.rule, exc.condition) from exc
            check(record, state)
        except ReconstructionError as exc:
            raise ReconstructionError(exc.rule, exc.condition, index=i) from exc
        steps.append(_payload(VirtualPayload, (action, state)))
    return tuple(steps)


def reconstruct(os: ObservationalSemantics, atrace: Trace) -> Trace:
    """Replay an actual trace into the virtual trace it encodes, built by ``os``."""
    if not os.is_initial(atrace.initial_state):
        raise ReconstructionError(os.name, "initial state not in the initial-state set")
    if atrace.kind == "virtual":  # a trace has one kind, so the first event is the offending one
        raise ReconstructionError(os.name, "reconstruct expects an actual trace", index=0)
    records = tuple(map(itemgetter(0), atrace.events))
    return Trace.built_by(os, atrace.initial_state, replay_records(os, atrace.initial_state, records), records)


def first_divergence(a: Trace, b: Trace) -> int | None:
    """Index of the first differing position, or None when equal.

    Position -1 flags differing initial states; position ``min(size)`` flags
    a pure length mismatch.
    """
    if a.initial_state != b.initial_state:
        return -1
    for i, (x, y) in enumerate(zip(a.events, b.events)):
        if x != y:
            return i
    if a.size != b.size:
        return min(a.size, b.size)
    return None


class FaithfulnessEntry(NamedTuple):
    index: int
    ok: bool
    detail: str = ""
    divergence: int | None = None


class FaithfulnessReport(NamedTuple):
    entries: tuple[FaithfulnessEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def lines(self) -> list[str]:
        out = [f"{'PASS' if e.ok else 'FAIL'} faithfulness trace={e.index}"
               + (f" divergence={e.divergence}" if e.divergence is not None else "")
               + (f" {e.detail}" if e.detail else "")
               for e in self.entries]
        out.append(f"{'PASS' if self.ok else 'FAIL'} faithfulness traces={len(self.entries)}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _faithful_divergence(os: ObservationalSemantics, vtrace: Trace) -> int | None:
    """``first_divergence(vtrace, reconstruct(os, extract(os, vtrace)))`` with one rule application per step,
    none on a trace ``os`` built itself, and no pass at all on one ``os`` replayed from records through the
    format's own reader and extractor, whose rules refuse a generated event already pending: on every record
    they accept, reading back the extracted record gives the action read from it (a property the tests check).

    Otherwise each step's record is extracted as ``extract`` does, which proves ``apply(s, a) == s'``.  A record
    equal to the one ``os`` replayed the step from (``vtrace.records``) reads back as the step's own action,
    since a reader is a function of the state and the record; any other is read back, and an action equal to
    the step's own yields the step itself, since ``apply`` is a function of the state and the action.  From
    the first differing action on, the records are replayed in full along replay's own chain, so that a rule
    failure is still reported at its index.
    """
    if not os.is_initial(vtrace.initial_state) or vtrace.kind == "actual":
        extract(os, vtrace)  # refused as extract refuses it
    from .gentra4cp import extract_event, read_record
    checked = vtrace.applied_by is not os
    own_pair = os.read_action is read_record and os.extract_local is extract_event
    if own_pair and not checked and vtrace.records is not None:
        return None
    sources = repeat(object()) if checked or vtrace.records is None else vtrace.records  # object(): equals no record
    extract_local, is_record, read, state = os.extract_local, os.is_record, os.read_action, vtrace.initial_state
    for i, (action, successor), source in zip(count(), vtrace.events, sources):
        if checked and not transition_holds(os, state, action, successor):
            raise TransitionError(os.name, f"step is not a {action.kind} transition", index=i)
        record = extract_local(state, action, successor)
        if record != source:
            try:
                if not is_record(record) or read(state, record) != action:
                    break
            except ReconstructionError:
                break  # a record that encodes no action fails again, at its index, in the replay below
        state = successor
    else:
        return None
    # extracting again from the start, which only a failing trace pays, refuses a later non-transition first
    replay_records(os, state, map(itemgetter(0), extract(os, vtrace).events[i:]), i)
    return i


def check_faithful(os: ObservationalSemantics, samples: Iterable[Trace]) -> FaithfulnessReport:
    """Verify reconstruct(extract(t)) == t on each sample virtual trace.

    Each step of ``t`` costs one rule application (none on a trace ``os``
    built, ``t.applied_by is os``), and a step whose record is the one ``os``
    replayed it from is not read back; a trace that ``validate`` or
    ``reconstruct`` replays under ``make_semantics()`` costs no pass at all.
    Errors and divergence positions are those of
    ``first_divergence(t, reconstruct(os, extract(os, t)))``.
    """
    entries = []
    for i, t in enumerate(samples):
        try:
            pos = _faithful_divergence(os, t)
        except (TransitionError, ReconstructionError) as exc:
            entries.append(FaithfulnessEntry(i, False, detail=str(exc), divergence=exc.index))
            continue
        entries.append(FaithfulnessEntry(i, pos is None, divergence=pos))
    return FaithfulnessReport(tuple(entries))
