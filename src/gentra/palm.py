"""An explanation-based solver simulator with repair backtracking.

The machine is the generic one of ``gentra4cp`` without the jump and solved
rules, and with six rules of its own.  At most one constraint is active at
a time (post); the pending solver events form a queue whose selected head
is the scheduled event, and waking starts only from an idle state (awake,
schedule); every value removal carries an *explanation*, the set of store
constraints justifying it (reduce); rejection needs an emptied domain
(reject).  Search undoes decisions by deactivating the responsible
constraint and restoring exactly the values whose explanations mention a
relaxed constraint (restore).

The state is the generic ``FullState`` with its explanation table filled
in: the solver part and every tree snapshot are generic solver states, and
snapshots need no explanations, since the machine never jumps back to one.
Mapping to the generic format empties the table and changes nothing else.

The rules make every state they return hold at most one active pair and
keep explained values out of their domains.  The one invariant no rule
makes is that every explanation names only store constraints after a
repair, when deactivation has shrunk the store under the table; the run
checks it once where each repair ends.  Everything else is checked from
outside, by replaying the emitted trace (``check-compliance``).

The element constraint is read 0-based here; ``palm_solve`` rebases its
input accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

from .constraints import ConstraintDecl
from .errors import GentraError, ReconstructionError, StateInvariantError, TransitionError
from .fdomain import EMPTY_DOMAIN, FiniteDomain
from .gentra4cp import (READERS, RULES, GenericEvent, _need, apply_rule, check_depth, extract_event,
                        is_initial, read_record)
from .semantics import Action, ObservationalSemantics
from .solver import (
    Problem,
    SolveLimits,
    SolveResult,
    _close_solution,
    _fresh_events,
    _next_alternatives,
    _Run,
)
from .state import FullState, SolverEvent, initial_state, store, watchers
from .trace import Trace, _payload

PALM_EVENT_TYPES = (
    "newVariable", "newConstraint", "post", "newChild", "solution", "failure",
    "deactivate", "restore", "reduce", "suspend", "reject", "awake", "schedule",
)


class PalmAssertionError(GentraError):
    """A run-level invariant failed while simulating; carries the event index."""

    def __init__(self, index, prop, detail):
        self.index = index
        self.prop = prop
        super().__init__(f"{prop} failed at event {index}: {detail}")


def palm_initial_state() -> FullState:
    """The generic initial state: the machine starts with an empty table."""
    return initial_state()


def broken_values(full: FullState, var: str) -> FiniteDomain:
    """Removed values of ``var`` whose explanation mentions a relaxed constraint."""
    sigma = store(full.solver)
    out = EMPTY_DOMAIN
    for vals, expl in full.explanations.get(var, ()):
        if not expl <= sigma:
            out = out.union(vals)
    return out


# transition rules: the generic ones, minus jump and solved, with six
# overrides that add single activation, explanations and repair


def _post(full: FullState, act: Action) -> FullState:
    new = RULES["post"](full, act)
    _need(not full.solver.active, "post", "another constraint is active")
    return new


def _restore(full: FullState, act: Action) -> FullState:
    """Only values whose explanation broke may come back; their explanations go."""
    var, values = act.get("variable"), act.get("values")
    new = RULES["restore"](full, act)
    _need(not values.is_empty(), "restore", "nothing to restore")
    _need(values.issubset(broken_values(full, var)), "restore",
          "restored values are not explained by relaxed constraints")
    kept = []
    for vals, expl in full.explanations.get(var, ()):
        vals = vals.subtract(values)
        if not vals.is_empty():
            kept.append((vals, expl))
    table = dict(full.explanations)
    if kept:
        table[var] = tuple(kept)
    else:
        table.pop(var, None)
    return new._replace(explanations=table)


def _reduce(full: FullState, act: Action) -> FullState:
    """A nonempty removal while nothing is rejected, recorded with its explanation."""
    s = full.solver
    explanation = act.get("explanation")
    _need(not s.rejected, "reduce", "a constraint is rejected")
    new = RULES["reduce"](full, act)
    _need(not act.get("removed").is_empty(), "reduce", "nothing to remove")
    _need(explanation is not None and explanation <= store(s), "reduce",
          "explanation is not a set of store constraints")
    var, table = act.get("variable"), new.explanations
    entry = (act.get("removed"), explanation)
    return new._replace(explanations={**table, var: table.get(var, ()) + (entry,)})


def _reject(full: FullState, act: Action) -> FullState:
    """Rejection needs an emptied domain, not just falsity."""
    new = RULES["reject"](full, act)
    decl = full.solver.declaration(act.get("constraint"))
    _need(any(full.solver.domain(v).is_empty() for v in decl.variables), "reject",
          "no variable of the constraint has an empty domain")
    return new


def _idle(rule):
    """The generic rule, fired only with nothing active and nothing rejected."""
    def apply(full: FullState, act: Action) -> FullState:
        s = full.solver
        if s.active or s.rejected:
            raise TransitionError(act.kind, "a constraint is active" if s.active else "a constraint is rejected")
        return rule(full, act)
    return apply


PALM_RULES = {
    **{kind: RULES[kind] for kind in PALM_EVENT_TYPES},
    "post": _post,
    "restore": _restore,
    "reduce": _reduce,
    "reject": _reject,
    "awake": _idle(RULES["awake"]),
    "schedule": _idle(RULES["schedule"]),
}


# extraction and reconstruction (the trace dialect keeps explanations and
# annotates reduces with the dominant effect of the removal)


def wake_kind_of(old: FiniteDomain, new: FiniteDomain) -> str:
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


def palm_extract(full: FullState, action: Action, new: FullState) -> GenericEvent:
    ev = extract_event(full, action, new)
    if action.kind != "reduce":
        return ev
    var = action.get("variable")
    return ev._replace(explanation=tuple(sorted(action.get("explanation"))),
                       wake_kind=wake_kind_of(full.solver.domain(var), new.solver.domain(var)))


def _read_reduce(full: FullState, ev: GenericEvent) -> Action:
    kind, args = READERS["reduce"](full, ev)
    if ev.explanation is None:
        raise ReconstructionError("reduce", "reduce record carries no explanation")
    return _payload(Action, (kind, tuple(sorted((*args, ("explanation", frozenset(ev.explanation)))))))


PALM_READERS = {**{kind: READERS[kind] for kind in PALM_EVENT_TYPES}, "reduce": _read_reduce}


@cache
def make_palm_semantics() -> ObservationalSemantics:
    return ObservationalSemantics(
        name="palm",
        action_kinds=frozenset(PALM_EVENT_TYPES),
        apply=partial(apply_rule, PALM_RULES),
        extract_local=palm_extract,
        read_action=partial(read_record, readers=PALM_READERS),
        is_initial=is_initial,
        is_record=lambda r: isinstance(r, GenericEvent),
        check_record=check_depth,
    )


# the run-level check no rule makes


def check_palm_invariants(full: FullState) -> None:
    """Every explanation names only store constraints.

    Reduce records explanations within the store, but deactivation shrinks
    the store under the table; the repair that follows must restore every
    value whose explanation broke.
    """
    sigma = store(full.solver)
    for var, entries in full.explanations.items():
        for _vals, expl in entries:
            if not expl <= sigma:
                raise StateInvariantError(f"an explanation for {var} mentions relaxed constraints")


# the solver


@dataclass
class _Frame:
    alternatives: tuple[ConstraintDecl, ...]
    index: int = 0
    bc: str | None = None


class _PalmRun(_Run):
    """The generic run context on the palm machine, knowing the problem constraints."""

    def __init__(self, limits: SolveLimits, problem_ids: frozenset):
        super().__init__(limits, make_palm_semantics(), initial_state())
        self.problem_ids = problem_ids


def _problem_watches(run: _PalmRun, var: str) -> bool:
    """Does a problem constraint observe ``var``?  Change notifications are
    queued only then: branch constraints may be relaxed permanently, so events
    only they could consume would sit in the queue forever; problem
    constraints always come back to the store, which keeps every queued event
    consumable."""
    return any(decl is not None and var in decl.variables
               for decl in map(run.solver.declaration, run.problem_ids))


def _explanation_for(run: _PalmRun, cid: str, var: str) -> frozenset:
    """The active constraint plus the explanations of the sibling-domain facts
    its filtering consulted."""
    decl = run.solver.declaration(cid)
    out = {cid}
    for v in decl.variables:
        if v != var:
            for _vals, expl in run.full.explanations.get(v, ()):
                out |= expl
    return frozenset(out)


def _handle_palm_active(run: _PalmRun, cid: str, cause: SolverEvent) -> None:
    decl = run.solver.declaration(cid)
    changed = True
    while changed:
        changed = False
        for var in decl.variables:
            old = run.solver.domain(var)
            removed = old.subtract(decl.supported(var, run.solver.domains))
            if removed.is_empty():
                continue
            new = old.subtract(removed)
            run.emit(Action.of("reduce", constraint=cid, variable=var, removed=removed,
                               generated=_fresh_events(run, var, old, new, cid) if _problem_watches(run, var) else (),
                               cause=cause,
                               explanation=_explanation_for(run, cid, var)))
            changed = True
            if new.is_empty():
                run.emit(Action.of("reject", constraint=cid, cause=cause))
                return
    run.emit(Action.of("suspend", constraint=cid))


def palm_propagate(run: _PalmRun) -> None:
    """Drain the queue: schedule each consumable event, wake its dependents
    in identifier order, and filter each woken constraint.  Events whose
    observers are temporarily out of the store are left queued."""
    skip = 0
    while True:
        s = run.solver
        if s.rejected:
            return
        if s.active:
            cid, cause = s.active[0]
            _handle_palm_active(run, cid, cause)
            continue
        if skip < len(s.pending):
            event = s.pending[skip]
            woken = watchers(s, event)
            if not woken:
                skip += 1
                continue
            run.emit(Action.of("schedule", event=event))
            for cid in woken:
                if run.solver.rejected:
                    break
                run.emit(Action.of("awake", constraint=cid, cause=event))
                _handle_palm_active(run, cid, event)
            skip = 0
            continue
        return


def _emit_restores(run: _PalmRun) -> None:
    """Return every value whose justification broke; each restored variable
    announces one dom event, provided a problem constraint observes it.
    The repair ends here, so the table must then be explained by the store;
    a violation is reported at the repair's last event."""
    for var in run.solver.variables:
        if var not in run.full.explanations:
            continue
        values = broken_values(run.full, var)
        if values.is_empty():
            continue
        gen = ()
        if _problem_watches(run, var):
            ev = SolverEvent("dom", var)
            if ev not in run.solver.pending:
                gen = (ev,)
        run.emit(Action.of("restore", variable=var, values=values, generated=gen))
    try:
        check_palm_invariants(run.full)
    except StateInvariantError as exc:
        raise PalmAssertionError(len(run.events) - 1, "state-invariant", str(exc)) from exc


def palm_solve(problem: Problem, limits: SolveLimits | None = None) -> SolveResult:
    """Run the explanation-based machine on a problem (element read 0-based).

    Search posts branch constraints like the prototype but never jumps:
    abandoning an alternative deactivates its constraint and restores every
    value whose explanation involved it.  Each step goes through a palm
    rule; after each repair the run checks that the explanation table is
    explained by the store, raising ``PalmAssertionError`` otherwise.
    """
    problem = problem.rebased(0)
    problem_ids = frozenset(cid for cid, _ in problem.constraints)
    run = _PalmRun(limits or SolveLimits(), problem_ids)
    start = run.full
    for var, dom in problem.variables:
        run.emit(Action.of("newVariable", variable=var, domain=dom))

    posts: list[tuple[str, ConstraintDecl | None]] = list(problem.constraints)
    strategy = [("branch", alts) for alts in problem.branches]
    strategy += [("label", v) for v in problem.labels]
    frames: list[_Frame] = []
    repost: list[str] = []
    solutions: list = []

    def enter_alternative(frame: _Frame) -> None:
        frame.bc = run.fresh_branch_id()
        for cid in repost:
            posts.append((cid, None))
        repost.clear()
        posts.append((frame.bc, frame.alternatives[frame.index]))

    def advance() -> bool:
        while frames:
            frame = frames[-1]
            if frame.bc is not None and frame.bc in store(run.solver):
                run.emit(Action.of("deactivate", constraint=frame.bc))
                _emit_restores(run)
            frame.index += 1
            if frame.index < len(frame.alternatives):
                enter_alternative(frame)
                return True
            frames.pop()
        return False

    while True:
        if run.solver.rejected:
            run.emit(Action.of("failure", node=run.fresh_node()))
            if not any(f.index + 1 < len(f.alternatives) for f in frames):
                break
            # drop postings queued for the abandoned alternative, keeping
            # problem constraints that still await their return to the store
            for cid, _decl in posts:
                if cid in problem_ids and cid not in repost and cid not in store(run.solver):
                    repost.append(cid)
            posts.clear()
            c_rej = sorted(run.solver.rejected)[0]
            run.emit(Action.of("deactivate", constraint=c_rej))
            _emit_restores(run)
            if c_rej in problem_ids and c_rej not in repost:
                repost.append(c_rej)
            if not advance():
                break
            continue
        if posts:
            cid, decl = posts.pop(0)
            if decl is not None and not run.solver.is_declared(cid):
                run.emit(Action.of("newConstraint", constraint=cid, decl=decl))
            run.emit(Action.of("post", constraint=cid))
            palm_propagate(run)
            continue
        alternatives = _next_alternatives(run, strategy, len(frames))
        if alternatives is not None:
            run.emit(Action.of("newChild", node=run.fresh_node()))
            frames.append(_Frame(alternatives))
            enter_alternative(frames[-1])
            continue
        _close_solution(run, solutions)
        if not advance():
            break

    virtual = Trace.built_by(run.os, start, tuple(run.steps))
    return SolveResult(solutions=tuple(solutions), events=tuple(run.events), virtual=virtual)
