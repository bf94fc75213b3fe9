"""Observational semantics: labelled transitions with extraction and reconstruction.

A semantics bundles a state domain, a finite set of action kinds, a partial
transition function, and the two local translation functions between virtual
steps and actual records.  Extraction turns a virtual trace into the actual
trace a tracer would emit; reconstruction replays an actual trace back into
virtual steps.  A semantics is *faithful* when the two are mutually inverse
on every replayable trace; this module checks that property rather than
assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .errors import ReconstructionError, TransitionError
from .trace import ActualPayload, Trace, VirtualPayload, _payload


class Action(NamedTuple):
    """A transition label: a rule kind plus its instantiated arguments.

    An immutable named tuple, so it compares and hashes by value, as tuples
    do; ``of`` sorts the arguments by name, so equal labels are equal tuples.
    """

    kind: str
    args: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, kind: str, **kwargs: Any) -> "Action":
        return cls(kind, tuple(sorted(kwargs.items())))

    def get(self, name: str, default: Any = None) -> Any:
        for k, v in self.args:
            if k == name:
                return v
        return default

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.args)
        return f"Action({self.kind}{', ' if inner else ''}{inner})"


def _always(_: Any) -> bool:
    return True


@dataclass(frozen=True)
class ObservationalSemantics:
    """States, action kinds, transitions, and the trace translation pair.

    ``apply`` realizes the transition function and must raise
    :class:`TransitionError` outside its domain, which doubles as the
    membership test for the transition relation.  ``extract_local`` maps a
    transition to its attribute record; ``read_action`` reads back the
    action a record encodes in a given state, raising
    :class:`ReconstructionError` when it encodes none.  Replaying a record
    is reading its action, applying it and checking the record against the
    successor (``check_record``, :func:`replay`), so a replayed step is a
    transition by construction.  The static tables (``param_deps``,
    ``action_writes``, ``neutral_writes``) say which state parameters each
    update depends on and each rule writes; the projection checks use them.
    """

    name: str
    action_kinds: frozenset
    apply: Callable[[Any, Action], Any]
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
    state = vtrace.initial_state
    records = []
    for i, ev in enumerate(vtrace.events):
        if vtrace.applied_by is not os and not transition_holds(os, state, ev.action, ev.state):
            raise TransitionError(os.name, f"step is not a {ev.action.kind} transition", index=i)
        records.append(_payload(ActualPayload, (os.extract_local(state, ev.action, ev.state),)))
        state = ev.state
    return Trace(vtrace.initial_state, tuple(records))


def replay(os: ObservationalSemantics, state: Any, record: Any) -> VirtualPayload:
    """The step ``record`` encodes in ``state``: its action and the successor
    it leads to.

    A record whose action does not apply raises the rule's failure as a
    :class:`ReconstructionError`, as ``os.check_record`` does after it.
    """
    action = os.read_action(state, record)
    try:
        new = os.apply(state, action)
    except TransitionError as exc:
        raise ReconstructionError(exc.rule, exc.condition) from exc
    os.check_record(record, new)
    return _payload(VirtualPayload, (action, new))


def _check_replayable(os: ObservationalSemantics, atrace: Trace) -> None:
    """Refuse a trace ``reconstruct`` cannot start: a state outside the
    initial-state set, or virtual events (a trace has one kind, so the first
    event would be the offending one)."""
    if not os.is_initial(atrace.initial_state):
        raise ReconstructionError(os.name, "initial state not in the initial-state set")
    if atrace.kind == "virtual":
        raise ReconstructionError(os.name, "reconstruct expects an actual trace", index=0)


def _read_step(os: ObservationalSemantics, state: Any, i: int, ev: ActualPayload) -> Action:
    """The action record ``i`` encodes in ``state``, or the
    :class:`ReconstructionError` that ``reconstruct`` reports for reading it."""
    if not os.is_record(ev.record):
        raise ReconstructionError(os.name, "record outside the actual-state domain", index=i)
    try:
        return os.read_action(state, ev.record)
    except ReconstructionError as exc:
        raise ReconstructionError(exc.rule, exc.condition, index=i) from exc


def _replay_step(os: ObservationalSemantics, state: Any, i: int, ev: ActualPayload) -> VirtualPayload:
    """:func:`replay` of record ``i`` from ``state``: the step it encodes, or
    the :class:`ReconstructionError` that ``reconstruct`` reports."""
    if not os.is_record(ev.record):
        raise ReconstructionError(os.name, "record outside the actual-state domain", index=i)
    try:
        return replay(os, state, ev.record)
    except ReconstructionError as exc:
        raise ReconstructionError(exc.rule, exc.condition, index=i) from exc


def reconstruct(os: ObservationalSemantics, atrace: Trace) -> Trace:
    """Replay an actual trace into the virtual trace it encodes, built by ``os``."""
    _check_replayable(os, atrace)
    state = atrace.initial_state
    steps = []
    for i, ev in enumerate(atrace.events):
        step = _replay_step(os, state, i, ev)
        steps.append(step)
        state = step.state
    return Trace.built_by(os, atrace.initial_state, tuple(steps))


def replay_divergence(os: ObservationalSemantics, atrace: Trace, reference: Trace) -> int | None:
    """``first_divergence(reference, reconstruct(os, atrace))`` in one pass.

    Each replayed step is compared with the reference step as soon as it is
    built.  While the two agree, replay goes on from the reference's own
    state, which equals the replayed one: the next successor then shares
    every unchanged field with the next reference state, so comparing them
    costs what changed rather than the size of the state.  After the first
    divergence replay goes on along its own chain, as ``reconstruct`` does,
    so a later record that does not replay still raises its
    :class:`ReconstructionError`.
    """
    _check_replayable(os, atrace)
    refs = reference.events
    pos = None if reference.initial_state == atrace.initial_state else -1
    state = atrace.initial_state if pos is not None else reference.initial_state
    for i, ev in enumerate(atrace.events):
        step = _replay_step(os, state, i, ev)
        state = step.state
        if pos is None:
            if i == len(refs) or refs[i] != step:
                pos = i
            else:
                state = refs[i].state
    if pos is None and atrace.size < len(refs):
        pos = atrace.size
    return pos


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


@dataclass(frozen=True)
class FaithfulnessEntry:
    index: int
    ok: bool
    detail: str = ""
    divergence: int | None = None


@dataclass(frozen=True)
class FaithfulnessReport:
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
    """``replay_divergence(os, extract(os, vtrace), vtrace)`` with one rule
    application per step, or none on a trace ``os`` built itself.

    ``extract`` has proven ``apply(s, a) == s'`` for every step of
    ``vtrace`` (by applying the rule, or by ``vtrace.applied_by is os``),
    and ``apply`` is a function of the state and the action.  So
    while the action read back from a record equals the step's own action,
    the replayed step equals the step, and replay goes on from its state
    without applying the rule again.  A differing action makes the step
    differ whatever its successor.  From there on every record is replayed
    in full along replay's own chain, so that a rule failure is still
    reported at its index.
    """
    atrace = extract(os, vtrace)
    state = vtrace.initial_state
    pos = None
    for i, (ev, ref) in enumerate(zip(atrace.events, vtrace.events)):
        if pos is None:
            if _read_step(os, state, i, ev) == ref.action:
                state = ref.state
                continue
            pos = i
        state = _replay_step(os, state, i, ev).state
    return pos


def check_faithful(os: ObservationalSemantics, samples: Iterable[Trace]) -> FaithfulnessReport:
    """Verify reconstruct(extract(t)) == t on each sample virtual trace.

    Each step of ``t`` costs one rule application (none on a trace ``os``
    built, ``t.applied_by is os``): ``extract`` applies the rule to check
    that the step is a transition, and the replay of its record only reads
    the action back.  An action equal to the step's own yields the step
    itself, since ``apply`` is a function of the state and the action, so
    the rule is not applied again; replay goes on from ``t``'s own state.
    Only from the first differing action on does replay apply rules along
    its own chain.  Errors and divergence positions
    are those of ``first_divergence(t, reconstruct(os, extract(os, t)))``.
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
