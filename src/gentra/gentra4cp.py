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

from functools import partial
from itertools import compress
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from .constraints import ConstraintDecl
from .errors import ReconstructionError, TransitionError
from .fdomain import FiniteDomain
from .semantics import Action, ObservationalSemantics, replay_records
from .state import (ACTIVE, BOTTOM, CONSTRAINTS, CURRENT_EVENT, DOMAINS, INITIAL_DOMAINS, PENDING, REJECTED,
                    SLEEPING, SOLVED, VARIABLES, FullState, SolverEvent, SolverState,
                    choice_point, failure_state, initial_state, outside_store, schedulable, solution_state, watches,
                    with_id, without_id)
from .trace import Trace, _payload

CONTROL_TYPES = (
    "newVariable", "newConstraint", "post", "newChild", "jumpTo",
    "solution", "failure", "deactivate", "restore",
)
PROPAGATION_TYPES = ("reduce", "suspend", "solved", "reject", "awake", "schedule")
EVENT_TYPES = CONTROL_TYPES + PROPAGATION_TYPES

# per run-level guard, the event kind it watches, its tests of the pre-state and action, each with its failure
# text, and its violation text; a rule table whose rule of that kind makes the tests carries the guard
_NOTHING_ACTIVE = ("a constraint is active", lambda full, act: not full.solver.active)
_NOTHING_REJECTED = ("a constraint is rejected", lambda full, act: not full.solver.rejected)
GUARDS = {"g3": ("reduce", (_NOTHING_REJECTED,), "reduce while a constraint is rejected"),
          "g4": ("awake", (_NOTHING_ACTIVE, _NOTHING_REJECTED), "awake requires no rejection and no active pair"),
          "g5": ("schedule", (_NOTHING_ACTIVE, _NOTHING_REJECTED), "schedule requires no rejection and no active pair")}
GUARD_NAMES = tuple(GUARDS)
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


DIALECT_EXTRAS = ("explanation", "wake_kind", "var_alias")

# The record layout, the format's reference: per event type, the record's
# attributes in text order, dialect extras included, each paired with whether
# a record may leave it out ("?" below).  A declaration is written as ``decl``,
# or as the foreign ``decl_text`` that could not be read as one.  The shape
# check, the strict reader's patterns and the writer are all derived from it.
LAYOUT = {kind: tuple((name.rstrip("?"), name.endswith("?")) for name in spec.split()) for kind, spec in {
    "newVariable": "variable var_alias? domain",
    "newConstraint": "constraint decl? decl_text?",
    "post": "constraint",
    "newChild": "node",
    "jumpTo": "node node2",
    "solution": "node",
    "failure": "node",
    "deactivate": "constraint",
    "restore": "variable domain generated?",
    "reduce": "constraint variable generated domain cause explanation? wake_kind?",
    "suspend": "constraint",
    "solved": "constraint",
    "reject": "constraint cause wake_kind?",
    "awake": "constraint cause wake_kind?",
    "schedule": "constraint? event",
}.items()}

# The action arguments, the rules' reference: per action kind, its argument names sorted, the order of an
# action's ``args``, which the rules read by position.  The optional ones, ``ARG_DEFAULTS``'s, are always there,
# at their default if left out: a generic reduce has palm's explanation slot, so both share one reduce rule.
ARGS = {kind: tuple(spec.split()) for kind, spec in {
    "newVariable": "domain variable", "newConstraint": "constraint decl", "post": "constraint",
    "newChild": "node", "jumpTo": "node origin", "solution": "node", "failure": "node", "deactivate": "constraint",
    "restore": "generated values variable", "reduce": "cause constraint explanation generated removed variable",
    "suspend": "constraint", "solved": "constraint", "reject": "cause constraint", "awake": "cause constraint",
    "schedule": "event witness",
}.items()}
ARG_DEFAULTS = {"explanation": None, "generated": (), "witness": None}

# required / optional attributes per event type (strict shape)
_SHAPES = {kind: (tuple(name for name, optional in layout if not optional),
                  tuple(name for name, optional in layout if optional))
           for kind, layout in LAYOUT.items()}

_ALL_ATTRS = tuple(name for name in GenericEvent._fields[2:] if name not in DIALECT_EXTRAS)
# the attributes foreign to each event type, in ``_ALL_ATTRS`` order
_FOREIGN = {kind: tuple(name for name in _ALL_ATTRS if name not in required + optional)
            for kind, (required, optional) in _SHAPES.items()}
# the required attributes replay reads and lenient mode requires: all but those lenient idioms leave out
_READ_NEEDS = {kind: tuple(name for name in required if name not in ("node", "node2", "cause", "generated"))
               for kind, (required, _) in _SHAPES.items()}
# per event type, a getter of its foreign attributes (two or more: it returns a tuple), what it returns on a
# record that carries none, and a getter of the type twice (so that it returns a tuple) and what replay reads
_SHAPE_AT = {kind: (itemgetter(*map(GenericEvent._fields.index, names)), (None,) * len(names),
                    itemgetter(0, 0, *map(GenericEvent._fields.index, _READ_NEEDS[kind])))
             for kind, names in _FOREIGN.items()}


def shape_error(ev: GenericEvent, strict: bool = True) -> str | None:
    """Return a description of the first shape violation, or None.

    In lenient mode the attributes foreign traces omit may be missing
    (generated events, causes, node identifiers and jumpTo's origin), but
    not those replay reads (``_READ_NEEDS``); attributes foreign to the
    event type are rejected in both modes.  ``read_record`` refuses exactly
    the records lenient mode does, with its text.
    """
    shape = _SHAPE_AT.get(ev.type)
    if shape is None:
        return f"unknown event type {ev.type!r}"
    if shape[0](ev) != shape[1]:
        for name in _FOREIGN[ev.type]:
            if getattr(ev, name) is not None:
                return f"attribute {name!r} does not belong to {ev.type}"
    for name in _SHAPES[ev.type][0] if strict else _READ_NEEDS[ev.type]:
        if getattr(ev, name) is None:
            return f"missing required attribute {name!r}"
    return None


def generated_events(var: str, old: FiniteDomain, new: FiniteDomain) -> tuple[SolverEvent, ...]:
    """The solver events a domain change produces, one shared tuple per (kinds, variable).

    A change always signals ``dom``; ``min``/``max`` fire when the respective
    bound moved, ``val`` when the domain became a singleton.  An emptied
    domain signals ``dom`` only (there is no bound left to report); a domain
    that was empty gains both bounds, so it signals ``dom``, ``min`` and
    ``max``, and ``val`` if it holds one value.
    """
    if old == new:
        return ()
    o, n = old.intervals, new.intervals
    fixed = n and n[0][0] == n[-1][1]  # ascending disjoint intervals: one value
    return (_GENERATED.get(var) or _generated_table(var))[
        0 if not n else 3 + 4 * fixed if not o else
        (n[0][0] != o[0][0]) + 2 * (n[-1][1] != o[-1][1]) + 4 * (fixed and o[0][0] != o[-1][1])]


_GENERATED: dict[str, tuple] = {}  # per variable, its generated tuples by the bits of min (1), max (2) and val (4)


def _generated_table(var: str) -> tuple[tuple[SolverEvent, ...], ...]:
    """``var``'s eight generated tuples: ``dom``, then each of ``min``, ``max`` and ``val`` whose bit is set."""
    if len(_GENERATED) >= 4096:  # a bounded table
        _GENERATED.clear()
    dom, *bounds = (SolverEvent(kind, var) for kind in ("dom", "min", "max", "val"))
    _GENERATED[var] = table = tuple((dom, *compress(bounds, (moved & 1, moved & 2, moved & 4))) for moved in range(8))
    return table


# transition rules


def _need(cond: bool, rule: str, text: str):
    if not cond:
        raise TransitionError(rule, text)


def _step_new_variable(full: FullState, act: Action) -> FullState:
    dom, var = act.args
    s = full.solver
    _need(var not in s.variables, "newVariable", f"{var} already declared")
    return full.with_solver(VARIABLES, s.variables + (var,), DOMAINS, {**s.domains, var: dom},
                            INITIAL_DOMAINS, {**s.initial_domains, var: dom})


def _step_new_constraint(full: FullState, act: Action) -> FullState:
    cid, decl = act.args
    s = full.solver
    _need(not s.is_declared(cid), "newConstraint", f"{cid} already declared")
    if decl is not None:
        missing = [v for v in decl.variables if v not in s.variables]
        _need(not missing, "newConstraint", f"undeclared variables {missing}")
    return full.with_solver(CONSTRAINTS, s.constraints.with_entry(cid, decl))


def _step_post(full: FullState, act: Action) -> FullState:
    cid, = act.args
    s = full.solver
    _need(s.is_declared(cid), "post", f"{cid} not declared")
    _need(outside_store(s, {cid}), "post", f"{cid} already in the store")
    return full.with_solver(ACTIVE, s.active + ((cid, BOTTOM),))


def _node_event(full: FullState, act: Action, rule: str, state_pred) -> FullState:
    node, = act.args
    _need(not full.tree.has_node(node), rule, f"node {node} already exists")
    _need(state_pred(full.solver), rule, f"state does not satisfy the {rule} predicate")
    depth = full.tree.current_depth() + 1
    return _payload(FullState, (full[0], full.tree.with_node(node, full.solver, depth), full[2]))


def _step_jump_to(full: FullState, act: Action) -> FullState:
    node, origin = act.args
    _need(origin == full.tree.current, "jumpTo", f"origin node {origin} is not the current node")
    _need(full.tree.has_node(node), "jumpTo", f"unknown node {node}")
    _need(node != full.tree.current, "jumpTo", "target is already the current node")
    snap = full.tree.snapshot(node)
    _need(choice_point(snap), "jumpTo", f"node {node} is not a choice point")
    return _payload(FullState, (snap, full.tree.jumped_to(node), full[2]))


def _step_deactivate(full: FullState, act: Action) -> FullState:
    cid, = act.args
    s = full.solver
    # the store's parts are disjoint: the constraint leaves the one holding it
    for part in (SLEEPING, SOLVED, REJECTED):
        if cid in s[part]:
            return full.with_solver(part, without_id(s[part], cid))
    _need(s.active_event(cid) is not None, "deactivate", f"{cid} not in the store")
    return full.with_solver(ACTIVE, _retire(s, cid, None, "deactivate"))


# what reduce and restore require of the generated events they list, in this order: each is one the domain change
# justifies (``generated_events``, by (kind, variable)), and none is pending already or listed twice
UNJUSTIFIED = "a generated event is not justified by the domain change"
NOT_FRESH = "a generated event is already pending or listed twice"


def _pending_after(rule: str, s: SolverState, var: str, old: FiniteDomain, new: FiniteDomain, generated) -> tuple:
    """The pending events once ``var``'s domain goes from ``old`` to ``new`` listing ``generated``: appended."""
    if generated:
        justified = generated_events(var, old, new)  # each event once
        if generated != justified and not all(map(justified.__contains__, generated)):
            raise TransitionError(rule, UNJUSTIFIED)
        if generated != justified and len(set(generated)) < len(generated) or s.pending and any(
                map(s.pending.__contains__, generated)):
            raise TransitionError(rule, NOT_FRESH)
    return s.pending + generated


def _step_restore(full: FullState, act: Action) -> FullState:
    generated, restored, var = act.args
    s = full.solver
    _need(var in s.variables, "restore", f"{var} not declared")
    dom = s.domain(var)
    _need(restored.disjoint(dom), "restore", "restored values are still in the domain")
    _need(restored.issubset(s.initial_domain(var)), "restore", "restored values exceed the initial domain")
    new = dom.union(restored)
    return full.with_solver(DOMAINS, {**s.domains, var: new}, PENDING, _pending_after("restore", s, var, dom, new,
                                                                                      generated))


def _step_reduce(full: FullState, act: Action, strict: bool = False) -> FullState:
    cause, cid, _explanation, generated, removed, var = act.args
    s = full.solver
    pair_event = s.active_event(cid)
    if pair_event is None or pair_event != cause:
        raise TransitionError("reduce", f"{cid} is not active" if pair_event is None else
                              f"({cid}, {cause}) is not an active pair")
    decl = s.declaration(cid)
    if decl is None:
        raise TransitionError("reduce", f"no declaration recorded for {cid}")
    if var not in decl.variables:
        raise TransitionError("reduce", f"{var} is not a variable of {cid}")
    dom = s.domain(var)
    _need(removed.issubset(dom), "reduce", "removed values are not all in the domain")
    new = dom.subtract(removed)
    domains, pending = {**s.domains, var: new}, _pending_after("reduce", s, var, dom, new, generated)
    if strict:
        return full.with_solver(DOMAINS, domains, PENDING, pending, ACTIVE, _retire(s, cid, None, "reduce"))
    return full.with_solver(DOMAINS, domains, PENDING, pending)


def _retire(s: SolverState, cid: str, cause: SolverEvent | None, rule: str) -> tuple:
    """The active pairs left without ``cid``'s, checked against ``cause`` when there is one."""
    for i, (c, event) in enumerate(s.active):
        if c == cid:
            if cause is not None and event != cause:
                raise TransitionError(rule, f"({cid}, {cause}) is not the active pair")
            return s.active[:i] + s.active[i + 1:]
    raise TransitionError(rule, f"{cid} is not active")


def _step_suspend(full: FullState, act: Action) -> FullState:
    cid, = act.args
    s = full.solver
    return full.with_solver(ACTIVE, _retire(s, cid, None, "suspend"), SLEEPING, with_id(s.sleeping, cid))


def _step_solved(full: FullState, act: Action) -> FullState:
    cid, = act.args
    s = full.solver
    active = _retire(s, cid, None, "solved")
    decl = s.declaration(cid)
    _need(decl is not None, "solved", f"no declaration recorded for {cid}")
    _need(decl.entailed(s.domains), "solved", f"{cid} is not entailed")
    return full.with_solver(ACTIVE, active, SOLVED, with_id(s.solved, cid))


def _step_reject(full: FullState, act: Action) -> FullState:
    cause, cid = act.args
    s = full.solver
    active = _retire(s, cid, cause, "reject")
    decl = s.declaration(cid)
    _need(decl is not None, "reject", f"no declaration recorded for {cid}")
    _need(decl.falsified(s.domains), "reject", f"{cid} is not falsified")
    return full.with_solver(ACTIVE, active, REJECTED, with_id(s.rejected, cid))


def _step_awake(full: FullState, act: Action) -> FullState:
    cause, cid = act.args
    s = full.solver
    if cid not in s.sleeping:
        raise TransitionError("awake", f"{cid} is not sleeping")
    if cause != BOTTOM and cause != s.current_event:
        raise TransitionError("awake", "waking event is neither bot nor the scheduled event")
    if not watches(s, cid, cause):
        raise TransitionError("awake", f"{cid} does not watch {cause}")
    return full.with_solver(ACTIVE, s.active + ((cid, cause),), SLEEPING, without_id(s.sleeping, cid))


def _step_schedule(full: FullState, act: Action) -> FullState:
    event, witness = act.args
    s = full.solver
    if event not in s.pending:
        raise TransitionError("schedule", f"{event} is not pending")
    if not schedulable(s, event):
        raise TransitionError("schedule", "no sleeping constraint reacts to the event")
    if witness is not None and not (witness in s.sleeping and watches(s, witness, event)):
        raise TransitionError("schedule", f"{witness} does not react to the event")
    idx = s.pending.index(event)
    return full.with_solver(PENDING, s.pending[:idx] + s.pending[idx + 1:], CURRENT_EVENT, event)


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


# extraction: transition -> attribute record

# the attribute each action argument is written as, where the two are named apart
_ATTRIBUTE_OF = {"origin": "node2", "removed": "domain", "values": "domain", "witness": "constraint"}


def _layout(kind: str) -> tuple:
    """How a ``kind`` step is written: a getter laying ``[type, depth, *args, None]`` out as its record, each
    argument as its attribute, the rest None; and the position of the one argument whose attribute is optional,
    left out if empty (0: none)."""
    names = ["type", "depth", *(_ATTRIBUTE_OF.get(name, name) for name in ARGS[kind])]
    optional, = [i for i, name in enumerate(names) if name in _SHAPES[kind][1]] or [0]
    return itemgetter(*(names.index(f) if f in names and f not in _FOREIGN[kind] else -1
                        for f in GenericEvent._fields)), optional


_LAYOUTS = {kind: _layout(kind) for kind in ARGS}


def extract_event(full: FullState, action: Action, new: FullState) -> GenericEvent:
    """The attribute record of a transition: its action's arguments laid out as attributes (``_layout``), at the
    depth of the node its rule reached."""
    kind, args = action
    lay_out, optional = _LAYOUTS[kind]
    values = [kind, new.tree.current_depth(), *args, None]
    if optional:
        values[optional] = values[optional] or None
    return _payload(GenericEvent, lay_out(values))


# reconstruction: attribute record -> transition


def _cause(full: FullState, ev: GenericEvent) -> SolverEvent | None:
    """The recorded cause, or, where lenient text leaves it out, the event of the record's active pair, if any."""
    return full.solver.active_event(ev.constraint) if ev.cause is None else ev.cause


# record readers: the action each record type encodes, read against the pre-state, each built positionally,
# its arguments in ``ARGS`` order; a reader fills in what lenient text may leave out, and the rules check it all
READERS = {
    "newVariable": lambda full, ev: _payload(Action, (ev.type, (ev.domain, ev.variable))),
    "newConstraint": lambda full, ev: _payload(Action, (ev.type, (ev.constraint, ev.decl))),
    **dict.fromkeys(("post", "deactivate", "suspend", "solved"),
                    lambda full, ev: _payload(Action, (ev.type, (ev.constraint,)))),
    **dict.fromkeys(("newChild", "solution", "failure"), lambda full, ev: _payload(Action, (ev.type, (ev.node,)))),
    "jumpTo": lambda full, ev: _payload(Action, (ev.type, (ev.node, full.tree.current if ev.node2 is None
                                                            else ev.node2))),
    "restore": lambda full, ev: _payload(Action, (ev.type, (ev.generated or (), ev.domain, ev.variable))),
    "reduce": lambda full, ev: _payload(Action, (ev.type, (
        _cause(full, ev), ev.constraint, None if ev.explanation is None else frozenset(ev.explanation),
        ev.generated or (), ev.domain, ev.variable))),
    "reject": lambda full, ev: _payload(Action, (ev.type, (_cause(full, ev), ev.constraint))),
    "awake": lambda full, ev: _payload(Action, (ev.type, (BOTTOM if ev.cause is None else ev.cause, ev.constraint))),
    "schedule": lambda full, ev: _payload(Action, (ev.type, (ev.event, ev.constraint))),
}


def read_record(full: FullState, ev: GenericEvent) -> Action:
    """The action a record encodes in ``full``, whether or not a bundle has a rule of its kind.

    A record with a foreign attribute, or without one that replay reads, is
    refused with the shape check's text; no other record is refused.
    """
    kind = ev[0]
    shape = _SHAPE_AT.get(kind)
    if shape is None or shape[0](ev) != shape[1] or None in shape[2](ev):
        raise ReconstructionError(kind, shape_error(ev, strict=False))
    return READERS[kind](full, ev)


def wake_kind_of(old: FiniteDomain, new: FiniteDomain) -> str:
    """The dominant effect of a domain change from ``old`` to ``new``, as a reduce's wake kind writes it."""
    if new.is_empty():
        return "empty"
    if new.is_singleton() and not old.is_singleton():
        return "val"
    min_moved = new.min_value() != old.min_value()
    max_moved = new.max_value() != old.max_value()
    if min_moved and not max_moved:
        return "min"
    if max_moved and not min_moved:
        return "max"
    return "dom"


def check_record(ev: GenericEvent, new: FullState) -> None:
    """A replayed record must carry the depth of the node its rule reached, and a reduce's written wake kind
    must be its domain change's, from the successor's domain plus the removed values to the successor's."""
    depth = new.tree.current_depth()
    if ev.depth != depth or ev.wake_kind is not None:  # one test for a record without a wake kind
        if ev.depth != depth:
            raise ReconstructionError(ev.type, f"depth {ev.depth} != current node depth {depth}")
        if ev.type == "reduce":
            dom = new.solver.domain(ev.variable)
            kind = wake_kind_of(dom.union(ev.domain), dom)
            if ev.wake_kind != kind:
                raise ReconstructionError("reduce", f"wake kind {ev.wake_kind} != domain change wake kind {kind}")


# semantics bundle and parameter tables

_SOLVER_PARAMS = SolverState._fields
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
        rules=STRICT_RULES if strict_reduce else RULES,
        extract_local=extract_event,
        read_action=read_record,
        is_initial=is_initial,
        is_record=GenericEvent.__instancecheck__,  # isinstance(r, GenericEvent), with no Python frame
        check_record=check_record,
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


class GuardViolation(NamedTuple):
    index: int
    guard: str
    detail: str


class GuardReport(NamedTuple):
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

    A step violates its kind's guard where one of the guard's tests (``GUARDS``) fails on its pre-state.
    Names outside ``GUARD_NAMES`` are ignored; the report lists the guards it evaluated.
    """
    guards = tuple(g for g in guards if g in GUARDS)
    watched = {kind: (name, tests, detail) for name, (kind, tests, detail) in GUARDS.items() if name in guards}
    if not watched:
        return GuardReport(guards=guards, checked=vtrace.size, violations=())
    violations = []
    pre = vtrace.initial_state
    for i, (action, state) in enumerate(vtrace.events):
        guard = watched.get(action[0])
        if guard is not None:
            for _text, holds in guard[1]:
                if not holds(pre, action):
                    violations.append(GuardViolation(i, guard[0], guard[2]))
                    break
        pre = state
    return GuardReport(guards=guards, checked=vtrace.size, violations=tuple(violations))


# trace validation


class ValidationError(NamedTuple):
    index: int
    rule: str
    condition: str


class ValidationReport(NamedTuple):
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

    The records replay through :func:`replay_records`, the loop :func:`reconstruct` runs.  Reports the first
    event that fails, with the rule and violated condition (a wrong record depth, or a kind ``os`` has no rule
    for, included); on success returns the virtual trace ``os`` built and the guard-check log.
    """
    os = os or make_semantics()
    start, records = initial_state(), tuple(events)
    try:
        virtual = Trace.built_by(os, start, replay_records(os, start, records), records)
    except ReconstructionError as exc:
        return ValidationReport(False, exc.index, error=ValidationError(exc.index, exc.rule, exc.condition))
    guard_report = check_guards(virtual, guards)
    return ValidationReport(guard_report.ok, virtual.size, virtual=virtual, guard_report=guard_report)
