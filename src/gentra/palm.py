"""An explanation-based solver simulator with repair backtracking.

The machine is the generic one of ``gentra4cp`` without the jump and solved
rules, and its rule table is a refinement of the generic one: ``PALM_RULES``
is built from the table ``REFINEMENT``, whose entry for a kind is the generic
rule of that kind, named extra conditions, and for reduce and restore the
step's explanation table.  At most one constraint is active at a time
(post); waking starts only from an idle state (awake, schedule: guards g4,
g5); a value removal is made only while nothing is rejected (guard g3) and
carries an *explanation*, the set of store constraints justifying it
(reduce); rejection needs an emptied domain (reject).  Search undoes
decisions by deactivating the responsible constraint and restoring exactly
the values whose explanations mention a relaxed constraint (restore).

The state is the generic ``FullState`` with its explanation table filled
in: the solver part and every tree snapshot are generic solver states, and
snapshots need no explanations, since the machine never jumps back to one.
A refined rule keeps the generic rule's solver and tree parts and sets only
the table, which the map to the generic format (``map_palm_state``) empties.
The bundle records the refinement (``refines``) and the guards its
conditions carry, so that ``abstraction.check_simulable`` accepts the steps
of a trace it built and ``abstraction.check_generic`` evaluates no guard.

The rules make every state they return hold at most one active pair and
keep explained values out of their domains.  The one invariant no rule makes
is that every explanation names only store constraints after a repair, when
deactivation has shrunk the store under the table; the run checks it once
where each repair ends.

The element constraint is read 0-based here; ``palm_solve`` rebases its
input accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .constraints import ConstraintDecl
from .errors import GentraError, StateInvariantError, TransitionError
from .fdomain import EMPTY_DOMAIN, FiniteDomain
from .gentra4cp import (GUARDS, RULES, GenericEvent, check_record, extract_event, is_initial, read_record,
                        wake_kind_of)
from .semantics import Action, ObservationalSemantics, Refinement
from .solver import (Problem, SolveLimits, SolveResult, _close_solution, _fresh_events, _next_alternatives,
                     _post_and_propagate, _Run)
from .state import NO_EXPLANATIONS, FullState, SolverEvent, initial_state, outside_store, store
from .trace import _payload

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
    out = EMPTY_DOMAIN
    for vals, expl in full.explanations.get(var, ()):
        if outside_store(full.solver, expl):
            out = out.union(vals)
    return out


# transition rules: the generic ones, minus jump and solved, refined


def _restored(full: FullState, act: Action) -> dict:
    """restore's explanation table: the restored values leave it."""
    _generated, restored, var = act.args
    kept = tuple((vals, expl) for vals, expl in ((v.subtract(restored), e) for v, e in full.explanations.get(var, ()))
                 if not vals.is_empty())
    table = dict(full.explanations)
    if kept:
        table[var] = kept
    else:
        table.pop(var, None)
    return table


def _reduced(full: FullState, act: Action) -> dict:
    """reduce's explanation table: the removed values go in with their explanation."""
    _cause, _cid, explanation, _generated, removed, var = act.args
    return {**full.explanations, var: full.explanations.get(var, ()) + ((removed, explanation),)}


# per refined kind: the conditions tested before the generic rule, those tested after it, each a (failure
# text, test of the pre-state and action) pair (a guard's tests cited from ``GUARDS``), and the step's
# explanation table (None: the generic rule's)
_EXPLAINED = ("reduce record carries no explanation", lambda full, act: act.args[2] is not None)
REFINEMENT = {
    "post": ((), (("another constraint is active", lambda full, act: not full.solver.active),), None),
    "restore": ((), (("nothing to restore", lambda full, act: not act.args[1].is_empty()),
                     ("restored values are not explained by relaxed constraints",
                      lambda full, act: act.args[1].issubset(broken_values(full, act.args[2])))), _restored),
    "reduce": ((_EXPLAINED, *GUARDS["g3"][1]),
               (("nothing to remove", lambda full, act: not act.args[4].is_empty()),
                ("explanation is not a set of store constraints",
                 lambda full, act: not outside_store(full.solver, act.args[2]))),
               _reduced),
    "reject": ((), (("no variable of the constraint has an empty domain", lambda full, act: any(
        full.solver.domain(v).is_empty() for v in full.solver.declaration(act.args[1]).variables)),), None),
    "awake": (GUARDS["g4"][1], (), None),
    "schedule": (GUARDS["g5"][1], (), None),
}


def _refined(kind: str, before: tuple, after: tuple, table):
    """The generic rule of ``kind``, read from ``RULES`` at each step, fired where ``before`` holds and kept where
    ``after`` holds, running only the loops of conditions it has; its step sets only the table (if any)."""
    def fire(full: FullState, act: Action) -> FullState:
        for text, holds in before:
            if not holds(full, act):
                raise TransitionError(kind, text)
        return RULES[kind](full, act)
    def rule(full: FullState, act: Action) -> FullState:
        new = fire(full, act) if before else RULES[kind](full, act)
        for text, holds in after:
            if not holds(full, act):
                raise TransitionError(kind, text)
        return new if table is None else _payload(FullState, (new[0], new[1], table(full, act)))
    return rule if after or table is not None else fire


PALM_RULES = {kind: _refined(kind, *REFINEMENT[kind]) if kind in REFINEMENT else RULES[kind]
              for kind in PALM_EVENT_TYPES}


def map_palm_state(full: FullState) -> FullState:
    """The state map: shares the solver state and tree, empties the
    explanation table (one positional construction)."""
    return tuple.__new__(FullState, (full.solver, full.tree, NO_EXPLANATIONS))


def _strip_explanation(action: Action) -> Action:
    """The action with its explanation slot (a reduce's third argument)
    emptied; the action itself when it carries none."""
    kind, args = action
    if kind != "reduce" or args[2] is None:
        return action
    return _payload(Action, (kind, (args[0], args[1], None, *args[3:])))


# extraction (the trace dialect keeps explanations and annotates reduces with
# the dominant effect of the removal); the format's reader reads both


def palm_extract(full: FullState, action: Action, new: FullState) -> GenericEvent:
    ev = extract_event(full, action, new)
    if action.kind != "reduce":
        return ev
    return ev._replace(explanation=tuple(sorted(ev.explanation)),
                       wake_kind=wake_kind_of(full.solver.domain(ev.variable), new.solver.domain(ev.variable)))


@cache
def make_palm_semantics() -> ObservationalSemantics:
    # the guards REFINEMENT carries: those whose every test a refined kind's conditions make
    carried = tuple(name for name, (kind, tests, _text) in GUARDS.items()
                    if kind in REFINEMENT and set(tests) <= {*REFINEMENT[kind][0], *REFINEMENT[kind][1]})
    return ObservationalSemantics(
        name="palm",
        rules=PALM_RULES,
        extract_local=palm_extract,
        read_action=read_record,
        is_initial=is_initial,
        is_record=GenericEvent.__instancecheck__,  # isinstance(r, GenericEvent), with no Python frame
        check_record=check_record,
        refines=Refinement(PALM_RULES, RULES, map_palm_state, _strip_explanation, {k: k for k in PALM_EVENT_TYPES},
                           carried),
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
    """The generic run context on the palm machine: a falsified constraint is
    filtered until a domain empties, a schedule names no witness, and a
    reduce carries its explanation.  Change notifications are queued only
    for variables a problem constraint observes (``problem_vars``): branch
    constraints may be relaxed permanently, so events only they could
    consume would sit in the queue forever; problem constraints always come
    back to the store, which keeps every queued event consumable."""

    reject_falsified = False

    def __init__(self, limits: SolveLimits):
        super().__init__(limits, make_palm_semantics(), initial_state())
        self.problem_vars: set[str] = set()

    def schedule_action(self, event: SolverEvent, woken: list[str]) -> Action:
        return _payload(Action, ("schedule", (event, None)))

    def reduce_action(self, cid: str, var: str, old: FiniteDomain, new: FiniteDomain,
                      removed: FiniteDomain, cause: SolverEvent) -> Action:
        """The reduce, explained by the active constraint plus the explanations
        of the sibling-domain facts its filtering consulted."""
        explanation = {cid}
        for v in self.solver.declaration(cid).variables:
            if v != var:
                for _vals, expl in self.full.explanations.get(v, ()):
                    explanation |= expl
        generated = _fresh_events(self, var, old, new) if var in self.problem_vars else ()
        return _payload(Action, ("reduce", (cause, cid, frozenset(explanation), generated, removed, var)))


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
        if var in run.problem_vars:
            ev = SolverEvent("dom", var)
            if ev not in run.solver.pending:
                gen = (ev,)
        run.emit(_payload(Action, ("restore", (gen, values, var))))
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
    Returns the solutions and the emitted palm-dialect records.
    """
    problem = problem.rebased(0)
    problem_ids = frozenset(cid for cid, _ in problem.constraints)
    run = _PalmRun(limits or SolveLimits())
    for var, dom in problem.variables:
        run.emit(_payload(Action, ("newVariable", (dom, var))))

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
            if frame.bc is not None and not outside_store(run.solver, {frame.bc}):
                run.emit(_payload(Action, ("deactivate", (frame.bc,))))
                _emit_restores(run)
            frame.index += 1
            if frame.index < len(frame.alternatives):
                enter_alternative(frame)
                return True
            frames.pop()
        return False

    while True:
        if run.solver.rejected:
            run.emit(_payload(Action, ("failure", (run.fresh_node(),))))
            if not any(f.index + 1 < len(f.alternatives) for f in frames):
                break
            # drop postings queued for the abandoned alternative, keeping
            # problem constraints that still await their return to the store
            for cid, _decl in posts:
                if cid in problem_ids and cid not in repost and outside_store(run.solver, {cid}):
                    repost.append(cid)
            posts.clear()
            c_rej = run.solver.rejected[0]
            run.emit(_payload(Action, ("deactivate", (c_rej,))))
            _emit_restores(run)
            if c_rej in problem_ids and c_rej not in repost:
                repost.append(c_rej)
            advance()  # some frame has an alternative left, so it enters one
            continue
        if posts:
            cid, decl = posts.pop(0)
            if decl is not None and cid in problem_ids:
                run.problem_vars.update(decl.variables)
            _post_and_propagate(run, cid, decl)
            continue
        alternatives = _next_alternatives(run, strategy, len(frames))
        if alternatives is not None:
            run.emit(_payload(Action, ("newChild", (run.fresh_node(),))))
            frames.append(_Frame(alternatives))
            enter_alternative(frames[-1])
            continue
        _close_solution(run, solutions)
        if not advance():
            break

    return SolveResult(solutions=tuple(solutions), events=tuple(run.events))
