"""The generic finite-domain solver trace format.

Fifteen event types describe a solver run.  Control events build and
navigate the search tree and manage declarations:

    newVariable v D     declare a variable with its initial domain
    newConstraint c     declare a constraint
    post c              activate a declared constraint (paired with bot)
    newChild n          open a child node at a quiescent state
    jumpTo n n'         make node n current and restore its snapshot
    solution n          close a branch at a solution state
    failure n           close a branch at a failed state
    deactivate c        drop a constraint from the store
    restore v D         return removed values to a domain

Propagation events narrate domain filtering:

    reduce c v a- D a   remove D from v's domain on behalf of (c, a),
                        generating the solver events a-
    suspend c           put the active constraint to sleep
    solved c            retire an entailed active constraint
    reject c a          retire an unsatisfiable active constraint
    awake c a           activate a sleeping constraint for event a
    schedule a          pick a pending solver event for propagation

This module implements each rule as a state transformer with explicit
precondition checks, the extraction of attribute records from transitions,
the reading of the action each record encodes (replay applies it to
validate foreign traces), and the run-level guard checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import filterfalse
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from .constraints import ConstraintDecl
from .errors import ReconstructionError, TransitionError
from .fdomain import FiniteDomain
from .semantics import Action, ObservationalSemantics, reconstruct
from .state import (
    BOTTOM,
    FullState,
    SolverEvent,
    SolverState,
    awake_condition,
    choice_point,
    failure_state,
    initial_state,
    schedulable,
    solution_state,
    store,
)
from .trace import Trace, _actual_payloads, _payload

CONTROL_TYPES = (
    "newVariable", "newConstraint", "post", "newChild", "jumpTo",
    "solution", "failure", "deactivate", "restore",
)
PROPAGATION_TYPES = ("reduce", "suspend", "solved", "reject", "awake", "schedule")
EVENT_TYPES = CONTROL_TYPES + PROPAGATION_TYPES

GUARD_NAMES = ("g3", "g4", "g5")
DEFAULT_GUARDS = ("g3",)


class GenericEvent(NamedTuple):
    """One actual-trace record: an event type, its depth, and typed attributes.

    Only the attributes proper to the type are populated; dialect extras
    (explanations, wake-kind annotations, source-name aliases) ride along in
    dedicated optional fields so parsers can preserve them.  A record is an
    immutable named tuple: it compares and hashes by value, as tuples do,
    and ``_replace`` copies it with some fields changed.
    """

    type: str
    depth: int = 0
    constraint: str | None = None
    variable: str | None = None
    node: int | None = None
    node2: int | None = None
    domain: FiniteDomain | None = None
    generated: tuple[SolverEvent, ...] | None = None
    cause: SolverEvent | None = None
    event: SolverEvent | None = None
    decl: ConstraintDecl | None = None
    decl_text: str | None = None
    explanation: tuple[str, ...] | None = None
    wake_kind: str | None = None
    var_alias: str | None = None


# required / optional attribute fields per event type (strict shape)
_SHAPES = {
    "newVariable": (("variable", "domain"), ("var_alias",)),
    "newConstraint": (("constraint",), ("decl", "decl_text")),
    "post": (("constraint",), ()),
    "newChild": (("node",), ()),
    "jumpTo": (("node", "node2"), ()),
    "solution": (("node",), ()),
    "failure": (("node",), ()),
    "deactivate": (("constraint",), ()),
    "restore": (("variable", "domain"), ("generated",)),
    "reduce": (("constraint", "variable", "generated", "domain", "cause"), ()),
    "suspend": (("constraint",), ()),
    "solved": (("constraint",), ()),
    "reject": (("constraint", "cause"), ()),
    "awake": (("constraint", "cause"), ()),
    "schedule": (("event",), ("constraint",)),
}

_ALL_ATTRS = ("constraint", "variable", "node", "node2", "domain",
              "generated", "cause", "event", "decl", "decl_text")
# the attributes foreign to each event type, in ``_ALL_ATTRS`` order
_FOREIGN = {kind: tuple(name for name in _ALL_ATTRS if name not in required + optional)
            for kind, (required, optional) in _SHAPES.items()}
# per event type, a getter of its foreign attributes (two or more, so it
# returns a tuple) and what it returns on a record that carries none
_FOREIGN_AT = {kind: (itemgetter(*map(GenericEvent._fields.index, names)), (None,) * len(names))
               for kind, names in _FOREIGN.items()}


def shape_error(ev: GenericEvent, strict: bool = True) -> str | None:
    """Return a description of the first shape violation, or None.

    In lenient mode missing attributes are tolerated (foreign traces omit
    generated events, causes, and node identifiers); attributes foreign to
    the event type are rejected in both modes.
    """
    foreign = _FOREIGN_AT.get(ev.type)
    if foreign is None:
        return f"unknown event type {ev.type!r}"
    at, nones = foreign
    if at(ev) != nones:
        for name in _FOREIGN[ev.type]:
            if getattr(ev, name) is not None:
                return f"attribute {name!r} does not belong to {ev.type}"
    if strict:
        for name in _SHAPES[ev.type][0]:
            if getattr(ev, name) is None:
                return f"missing required attribute {name!r}"
    return None


def generated_events(var: str, old: FiniteDomain, new: FiniteDomain, origin: str | None) -> tuple[SolverEvent, ...]:
    """The solver events a domain change produces.

    A change always signals ``dom``; ``min``/``max`` fire when the respective
    bound moved, ``val`` when the domain became a singleton.  An emptied
    domain signals ``dom`` only (there is no bound left to report).
    """
    if old == new:
        return ()
    out = [SolverEvent("dom", var, origin)]
    if not new.is_empty():
        if new.min_value() != old.min_value():
            out.append(SolverEvent("min", var, origin))
        if new.max_value() != old.max_value():
            out.append(SolverEvent("max", var, origin))
        if new.is_singleton() and not old.is_singleton():
            out.append(SolverEvent("val", var, origin))
    return tuple(out)


# transition rules


def _need(cond: bool, rule: str, text: str):
    if not cond:
        raise TransitionError(rule, text)


def _step_new_variable(full: FullState, act: Action) -> FullState:
    var, dom = act.get("variable"), act.get("domain")
    s = full.solver
    _need(var not in s.variables, "newVariable", f"{var} already declared")
    return full.with_solver(variables=s.variables + (var,), domains={**s.domains, var: dom},
                            initial_domains={**s.initial_domains, var: dom})


def _step_new_constraint(full: FullState, act: Action) -> FullState:
    cid, decl = act.get("constraint"), act.get("decl")
    s = full.solver
    _need(not s.is_declared(cid), "newConstraint", f"{cid} already declared")
    if decl is not None:
        missing = [v for v in decl.variables if v not in s.variables]
        _need(not missing, "newConstraint", f"undeclared variables {missing}")
    return full.with_solver(constraints=s.constraints.with_entry(cid, decl))


def _step_post(full: FullState, act: Action) -> FullState:
    cid = act.get("constraint")
    s = full.solver
    _need(s.is_declared(cid), "post", f"{cid} not declared")
    _need(cid not in store(s), "post", f"{cid} already in the store")
    return full.with_solver(active=s.active + ((cid, BOTTOM),))


def _node_event(full: FullState, act: Action, rule: str, state_pred) -> FullState:
    node = act.get("node")
    _need(not full.tree.has_node(node), rule, f"node {node} already exists")
    _need(state_pred(full.solver), rule, f"state does not satisfy the {rule} predicate")
    depth = full.tree.depth(full.tree.current) + 1
    return full._replace(tree=full.tree.with_node(node, full.solver, depth))


def _step_jump_to(full: FullState, act: Action) -> FullState:
    node = act.get("node")
    _need(full.tree.has_node(node), "jumpTo", f"unknown node {node}")
    _need(node != full.tree.current, "jumpTo", "target is already the current node")
    snap = full.tree.snapshot(node)
    _need(choice_point(snap), "jumpTo", f"node {node} is not a choice point")
    return full._replace(solver=snap, tree=full.tree.jumped_to(node))


def _step_deactivate(full: FullState, act: Action) -> FullState:
    cid = act.get("constraint")
    s = full.solver
    _need(cid in store(s), "deactivate", f"{cid} not in the store")
    return full.with_solver(active=tuple(p for p in s.active if p[0] != cid), sleeping=s.sleeping - {cid},
                            solved=s.solved - {cid}, rejected=s.rejected - {cid})


def _pushed(pending: tuple[SolverEvent, ...], events) -> tuple[SolverEvent, ...]:
    """The pending events followed by those of ``events`` not pending yet."""
    fresh = tuple(filterfalse(pending.__contains__, events))
    return pending + fresh if fresh else pending


def _step_restore(full: FullState, act: Action) -> FullState:
    var, values = act.get("variable"), act.get("values")
    generated = act.get("generated", ())
    s = full.solver
    _need(var in s.variables, "restore", f"{var} not declared")
    dom = s.domain(var)
    _need(values.disjoint(dom), "restore", "restored values are still in the domain")
    _need(values.issubset(s.initial_domain(var)), "restore", "restored values exceed the initial domain")
    return full.with_solver(domains={**s.domains, var: dom.union(values)}, pending=_pushed(s.pending, generated))


def _step_reduce(full: FullState, act: Action, strict: bool = False) -> FullState:
    cid, var = act.get("constraint"), act.get("variable")
    removed, generated, cause = act.get("removed"), act.get("generated", ()), act.get("cause")
    s = full.solver
    pair_event = s.active_event(cid)
    if pair_event is None or pair_event != cause:
        raise TransitionError("reduce", f"({cid}, {cause}) is not an active pair")
    decl = s.declaration(cid)
    if decl is None:
        raise TransitionError("reduce", f"no declaration recorded for {cid}")
    if var not in decl.variables:
        raise TransitionError("reduce", f"{var} is not a variable of {cid}")
    dom = s.domain(var)
    _need(removed.issubset(dom), "reduce", "removed values are not all in the domain")
    domains, pending = {**s.domains, var: dom.subtract(removed)}, _pushed(s.pending, generated)
    if strict:
        return full.with_solver(domains=domains, pending=pending, active=tuple(p for p in s.active if p[0] != cid))
    return full.with_solver(domains=domains, pending=pending)


def _retire(full: FullState, act: Action, rule: str) -> tuple[str, tuple]:
    """The retired constraint and the active pairs left without it."""
    cid = act.get("constraint")
    s = full.solver
    pair_event = s.active_event(cid)
    if pair_event is None:
        raise TransitionError(rule, f"{cid} is not active")
    cause = act.get("cause")
    if cause is not None and pair_event != cause:
        raise TransitionError(rule, f"({cid}, {cause}) is not the active pair")
    return cid, tuple(p for p in s.active if p[0] != cid)


def _step_suspend(full: FullState, act: Action) -> FullState:
    cid, active = _retire(full, act, "suspend")
    return full.with_solver(active=active, sleeping=full.solver.sleeping | {cid})


def _step_solved(full: FullState, act: Action) -> FullState:
    cid, active = _retire(full, act, "solved")
    s = full.solver
    decl = s.declaration(cid)
    _need(decl is not None, "solved", f"no declaration recorded for {cid}")
    _need(decl.entailed(s.domains), "solved", f"{cid} is not entailed")
    return full.with_solver(active=active, solved=s.solved | {cid})


def _step_reject(full: FullState, act: Action) -> FullState:
    cid, active = _retire(full, act, "reject")
    s = full.solver
    decl = s.declaration(cid)
    _need(decl is not None, "reject", f"no declaration recorded for {cid}")
    _need(decl.falsified(s.domains), "reject", f"{cid} is not falsified")
    return full.with_solver(active=active, rejected=s.rejected | {cid})


def _step_awake(full: FullState, act: Action) -> FullState:
    cid, cause = act.get("constraint"), act.get("cause")
    s = full.solver
    if cid not in s.sleeping:
        raise TransitionError("awake", f"{cid} is not sleeping")
    _need(cause in (BOTTOM, s.current_event), "awake",
          "waking event is neither bot nor the scheduled event")
    if not awake_condition(s, cid, cause):
        raise TransitionError("awake", f"{cid} does not watch {cause}")
    return full.with_solver(active=s.active + ((cid, cause),), sleeping=s.sleeping - {cid})


def _step_schedule(full: FullState, act: Action) -> FullState:
    event, witness = act.get("event"), act.get("witness")
    s = full.solver
    if event not in s.pending:
        raise TransitionError("schedule", f"{event} is not pending")
    _need(schedulable(s, event), "schedule", "no sleeping constraint reacts to the event")
    if witness is not None and not awake_condition(s, witness, event):
        raise TransitionError("schedule", f"{witness} does not react to the event")
    idx = s.pending.index(event)
    return full.with_solver(pending=s.pending[:idx] + s.pending[idx + 1:], current_event=event)


RULES = {
    "newVariable": _step_new_variable,
    "newConstraint": _step_new_constraint,
    "post": _step_post,
    "newChild": partial(_node_event, rule="newChild", state_pred=choice_point),
    "jumpTo": _step_jump_to,
    "solution": partial(_node_event, rule="solution", state_pred=solution_state),
    "failure": partial(_node_event, rule="failure", state_pred=failure_state),
    "deactivate": _step_deactivate,
    "restore": _step_restore,
    "reduce": _step_reduce,
    "suspend": _step_suspend,
    "solved": _step_solved,
    "reject": _step_reject,
    "awake": _step_awake,
    "schedule": _step_schedule,
}
STRICT_RULES = {**RULES, "reduce": lambda full, act: _step_reduce(full, act, strict=True)}


def apply_rule(rules, full: FullState, action: Action) -> FullState:
    """Apply the rule ``rules`` maps the action's kind to."""
    rule = rules.get(action.kind)
    if rule is None:
        raise TransitionError(action.kind, "unknown rule")
    return rule(full, action)


# extraction: transition -> attribute record


def _pending_suffix(old: SolverState, new: SolverState) -> tuple[SolverEvent, ...]:
    return new.pending[len(old.pending):]


def extract_event(full: FullState, action: Action, new: FullState) -> GenericEvent:
    """Compute the attribute record of a transition from its state delta."""
    kind = action.kind
    depth = new.tree.depth(new.tree.current)
    if kind == "newVariable":
        var = action.get("variable")
        return GenericEvent(kind, depth, variable=var, domain=new.solver.domain(var))
    if kind == "newConstraint":
        cid = action.get("constraint")
        return GenericEvent(kind, depth, constraint=cid, decl=new.solver.declaration(cid))
    if kind in ("post", "deactivate", "suspend", "solved"):
        return GenericEvent(kind, depth, constraint=action.get("constraint"))
    if kind in ("newChild", "solution", "failure"):
        return GenericEvent(kind, depth, node=action.get("node"))
    if kind == "jumpTo":
        return GenericEvent(kind, depth, node=action.get("node"), node2=full.tree.current)
    if kind == "restore":
        var = action.get("variable")
        removed = new.solver.domain(var).subtract(full.solver.domain(var))
        return GenericEvent(kind, depth, variable=var, domain=removed,
                            generated=_pending_suffix(full.solver, new.solver) or None)
    if kind == "reduce":
        var = action.get("variable")
        delta = full.solver.domain(var).subtract(new.solver.domain(var))
        return GenericEvent(kind, depth, constraint=action.get("constraint"), variable=var,
                            domain=delta, generated=_pending_suffix(full.solver, new.solver),
                            cause=action.get("cause"))
    if kind in ("reject", "awake"):
        return GenericEvent(kind, depth, constraint=action.get("constraint"), cause=action.get("cause"))
    if kind == "schedule":
        return GenericEvent(kind, depth, event=action.get("event"), constraint=action.get("witness"))
    raise TransitionError(kind, "unknown rule")


# reconstruction: attribute record -> transition


def _fail(rule, text):
    raise ReconstructionError(rule, text)


def _active_cause(full: FullState, ev: GenericEvent) -> SolverEvent:
    """The event of the record's active pair, checked against the recorded cause."""
    pair_event = full.solver.active_event(ev.constraint)
    if pair_event is None:
        _fail(ev.type, f"{ev.constraint} is not active")
    if ev.cause is not None and not pair_event.matches(ev.cause.kind, ev.cause.variable):
        _fail(ev.type, "recorded cause does not match the active pair")
    return pair_event


def _read_jump(full: FullState, ev: GenericEvent) -> Action:
    if ev.node2 is not None and ev.node2 != full.tree.current:
        _fail(ev.type, f"origin node {ev.node2} is not the current node")
    return _payload(Action, (ev.type, (("node", ev.node),)))


def _read_restore(full: FullState, ev: GenericEvent) -> Action:
    gen = tuple(SolverEvent(e.kind, e.variable) for e in ev.generated or ())
    return _payload(Action, (ev.type, (("generated", gen), ("values", ev.domain), ("variable", ev.variable))))


def _read_reduce(full: FullState, ev: GenericEvent) -> Action:
    cause = _active_cause(full, ev)
    gen = tuple(SolverEvent(e.kind, e.variable, ev.constraint) for e in ev.generated or ())
    return _payload(Action, (ev.type, (("cause", cause), ("constraint", ev.constraint), ("generated", gen),
                                       ("removed", ev.domain), ("variable", ev.variable))))


def _read_awake(full: FullState, ev: GenericEvent) -> Action:
    current = full.solver.current_event
    if ev.cause is None or ev.cause.kind == "bot":
        cause = BOTTOM
    elif current is not None and current.matches(ev.cause.kind, ev.cause.variable):
        cause = current
    else:
        _fail(ev.type, "recorded cause is not the scheduled event")
    return _payload(Action, (ev.type, (("cause", cause), ("constraint", ev.constraint))))


def _read_schedule(full: FullState, ev: GenericEvent) -> Action:
    event = next((e for e in full.solver.pending if e.matches(ev.event.kind, ev.event.variable)), None)
    if event is None:
        _fail(ev.type, f"no pending event matches {ev.event.kind} {ev.event.variable}")
    if ev.constraint is not None:
        return _payload(Action, (ev.type, (("event", event), ("witness", ev.constraint))))
    return _payload(Action, (ev.type, (("event", event),)))


# record readers: the action each record type encodes, read against the
# pre-state (solver events are serialized without their originating
# constraint; the origin is recovered from the active pair for causes and
# from the pending pool for scheduled events), arguments in ``Action.of``
# order; each builds its action positionally, without a Python-level call
READERS = {
    "newVariable": lambda full, ev: _payload(Action, (ev.type, (("domain", ev.domain), ("variable", ev.variable)))),
    "newConstraint": lambda full, ev: _payload(Action, (ev.type, (("constraint", ev.constraint), ("decl", ev.decl)))),
    **dict.fromkeys(("post", "deactivate", "suspend", "solved"),
                    lambda full, ev: _payload(Action, (ev.type, (("constraint", ev.constraint),)))),
    **dict.fromkeys(("newChild", "solution", "failure"),
                    lambda full, ev: _payload(Action, (ev.type, (("node", ev.node),)))),
    "jumpTo": _read_jump,
    "restore": _read_restore,
    "reduce": _read_reduce,
    "reject": lambda full, ev: _payload(Action, (ev.type, (("cause", _active_cause(full, ev)),
                                                          ("constraint", ev.constraint)))),
    "awake": _read_awake,
    "schedule": _read_schedule,
}


def read_record(full: FullState, ev: GenericEvent, readers=READERS) -> Action:
    """The action a record encodes in ``full``, read with ``readers``.

    Reading recovers every serialized-away origin from the replayed state, so
    replay yields structurally identical states to the original run.
    """
    problem = shape_error(ev, strict=False)
    if problem:
        _fail(ev.type, problem)
    read = readers.get(ev.type)
    if read is None:
        _fail(ev.type, "event type outside the rule set")
    return read(full, ev)


def check_depth(ev: GenericEvent, new: FullState) -> None:
    """A replayed record must carry the depth of the node its rule reached."""
    if ev.depth != new.tree.depth(new.tree.current):
        _fail(ev.type, f"depth {ev.depth} != current node depth {new.tree.depth(new.tree.current)}")


# semantics bundle and parameter tables

_SOLVER_PARAMS = ("variables", "constraints", "domains", "initial_domains", "active",
                  "solved", "rejected", "sleeping", "pending", "current_event")
_TREE_PARAMS = ("nodes", "snapshots", "depths", "current")
PARAMETERS = _SOLVER_PARAMS + _TREE_PARAMS

# Update-expression dependencies.  Snapshot traffic (whole solver states being
# copied into or out of the node map) is modelled as a dependency of
# ``snapshots`` on the solver parameters a profile actually lets vary; it is
# not charged to the copied parameters themselves.
PARAM_DEPS = {
    "variables": {"variables"},
    "constraints": {"constraints"},
    "domains": {"domains", "initial_domains"},
    "initial_domains": {"initial_domains"},
    "active": {"active", "constraints", "sleeping", "current_event"},
    "solved": {"solved", "active"},
    "rejected": {"rejected", "active"},
    "sleeping": {"sleeping", "active"},
    "pending": {"pending"},
    "current_event": {"current_event", "pending"},
    "nodes": {"nodes"},
    "snapshots": {"snapshots", "variables", "constraints", "domains", "initial_domains",
                  "active", "rejected", "sleeping", "pending", "current_event"},
    "depths": {"depths", "nodes"},
    "current": {"current", "nodes"},
}

_NODE_WRITES = {"nodes", "snapshots", "depths", "current"}

ACTION_WRITES = {
    "newVariable": {"variables", "domains", "initial_domains"},
    "newConstraint": {"constraints"},
    "post": {"active"},
    "newChild": set(_NODE_WRITES),
    "jumpTo": {"current"},
    "solution": set(_NODE_WRITES),
    "failure": set(_NODE_WRITES),
    "deactivate": {"active", "sleeping", "solved", "rejected"},
    "restore": {"domains", "pending"},
    "reduce": {"domains", "pending"},
    "suspend": {"active", "sleeping"},
    "solved": {"active", "solved"},
    "reject": {"active", "rejected"},
    "awake": {"active", "sleeping"},
    "schedule": {"pending", "current_event"},
}

# Writes a projection may discount: jumping rebinds the solver state to an
# existing snapshot and only navigates the tree; retiring rules merely remove
# entries (a removal can never move a pinned-empty parameter off its initial
# value, and emptying the active set stays expressible through the rules a
# profile keeps).
NEUTRAL_WRITES = {
    "jumpTo": set(_SOLVER_PARAMS) | {"current"},
    "solved": {"active"},
    "deactivate": {"active", "sleeping", "solved", "rejected"},
}


def get_parameter(full: FullState, name: str):
    if name in _SOLVER_PARAMS:
        return getattr(full.solver, name)
    return getattr(full.tree, name)


def reset_parameters(full: FullState, params: frozenset) -> FullState:
    """Pin the given parameters back to their initial (empty) values."""
    blank = SolverState()
    solver_updates = {p: getattr(blank, p) for p in params if p in _SOLVER_PARAMS}
    if not solver_updates:
        return full
    return full._replace(solver=full.solver._replace(**solver_updates),
                         tree=full.tree.with_snapshots(lambda snap: snap._replace(**solver_updates)))


_INITIAL = initial_state()  # compared with, never handed out


def is_initial(full: FullState) -> bool:
    return full == _INITIAL


def _build_semantics(strict_reduce: bool) -> ObservationalSemantics:
    writes = {k: frozenset(v) for k, v in ACTION_WRITES.items()}
    if strict_reduce:
        writes["reduce"] = writes["reduce"] | {"active"}
    return ObservationalSemantics(
        name="gentra4cp" + ("-strict" if strict_reduce else ""),
        action_kinds=frozenset(EVENT_TYPES),
        apply=partial(apply_rule, STRICT_RULES if strict_reduce else RULES),
        extract_local=extract_event,
        read_action=read_record,
        is_initial=is_initial,
        is_record=lambda r: isinstance(r, GenericEvent),
        check_record=check_depth,
        parameters=PARAMETERS,
        param_deps=MappingProxyType({k: frozenset(v) for k, v in PARAM_DEPS.items()}),
        action_writes=MappingProxyType(writes),
        neutral_writes=MappingProxyType({k: frozenset(v) for k, v in NEUTRAL_WRITES.items()}),
    )


_SEMANTICS = {strict: _build_semantics(strict) for strict in (False, True)}


def make_semantics(*, strict_reduce: bool = False) -> ObservationalSemantics:
    """The full trace semantics, optionally with the strict reduce rule.

    Under the default rule a reduce leaves the active pair in place and
    suspend/solved/reject are the only deactivators; the strict variant also
    removes the pair at each reduce.  Each variant is one shared bundle.
    """
    return _SEMANTICS[bool(strict_reduce)]


# guard checks


@dataclass(frozen=True)
class GuardViolation:
    index: int
    guard: str
    detail: str


@dataclass(frozen=True)
class GuardReport:
    guards: tuple[str, ...]
    checked: int
    violations: tuple[GuardViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = [f"FAIL guard {v.guard} event={v.index} {v.detail}" for v in self.violations]
        out.append(f"{'PASS' if self.ok else 'FAIL'} guards={','.join(self.guards)} events={self.checked}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def check_guards(vtrace: Trace, guards=DEFAULT_GUARDS) -> GuardReport:
    """Evaluate the run-level guards of a virtual trace (as produced by
    validation or a solver run) on the state each event fires in.

    g3: reduce fires only while nothing is rejected.
    g4/g5: awake/schedule fire only while nothing is rejected and nothing is
    active (the single-activation discipline profiles opt into).

    Names outside ``GUARD_NAMES`` are ignored; the report lists the guards
    it evaluated.
    """
    guards = tuple(g for g in guards if g in GUARD_NAMES)
    violations = []
    pre = vtrace.initial_state
    for i, ev in enumerate(vtrace.events):
        s = pre.solver
        kind = ev.action.kind
        if "g3" in guards and kind == "reduce" and s.rejected:
            violations.append(GuardViolation(i, "g3", "reduce while a constraint is rejected"))
        if "g4" in guards and kind == "awake" and (s.rejected or s.active):
            violations.append(GuardViolation(i, "g4", "awake requires no rejection and no active pair"))
        if "g5" in guards and kind == "schedule" and (s.rejected or s.active):
            violations.append(GuardViolation(i, "g5", "schedule requires no rejection and no active pair"))
        pre = ev.state
    return GuardReport(guards=guards, checked=vtrace.size, violations=tuple(violations))


# trace validation


@dataclass(frozen=True)
class ValidationError:
    index: int
    rule: str
    condition: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    checked: int
    error: ValidationError | None = None
    virtual: Trace | None = None
    guard_report: GuardReport | None = None

    def lines(self) -> list[str]:
        out = []
        if self.error is not None:
            out.append(f"FAIL validate event={self.error.index} rule={self.error.rule} {self.error.condition}")
        out.append(f"{'PASS' if self.ok else 'FAIL'} validate events={self.checked}")
        if self.guard_report is not None:
            out.extend(self.guard_report.lines())
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def validate(events, *, os: ObservationalSemantics | None = None,
             guards=DEFAULT_GUARDS) -> ValidationReport:
    """Replay an actual event sequence from the initial state.

    The records before the first one outside ``os``'s profile replay through
    :func:`reconstruct`.  Reports the first event that fails, a record
    outside the profile included (with the rule and violated condition, a
    wrong record depth included); on success returns the virtual trace
    ``os`` built and the guard-check log.
    """
    os = os or make_semantics()
    events = tuple(events)
    kept = next((i for i, ev in enumerate(events) if ev.type not in os.action_kinds), len(events))
    try:
        virtual = reconstruct(os, Trace(initial_state(), _actual_payloads(events[:kept])))
    except ReconstructionError as exc:
        return ValidationReport(False, exc.index, error=ValidationError(exc.index, exc.rule, exc.condition))
    if kept < len(events):
        error = ValidationError(kept, events[kept].type, "event type outside the profile")
        return ValidationReport(False, kept, error=error)
    guard_report = check_guards(virtual, guards)
    return ValidationReport(guard_report.ok, len(events), virtual=virtual, guard_report=guard_report)
