"""A small depth-first finite-domain solver that narrates itself.

Every internal state change goes through one trace rule application, so a
run *is* its trace: the returned actual events replay cleanly under the
format semantics and the virtual steps are the corresponding ground truth.

Search structure: explicit disjunctions and variable labellings are both
choice points.  A choice opens one child node; alternatives are explored by
posting a fresh branch constraint, and exhausted alternatives are abandoned
by jumping back to the choice node, which restores its snapshot.  Solutions
and failures close branches with leaf nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import ConstraintDecl
from .errors import ProblemError, SolveLimitError, TransitionError
from .fdomain import FiniteDomain
from .gentra4cp import GenericEvent, generated_events, make_semantics
from .semantics import Action, ObservationalSemantics
from .state import BOTTOM, FullState, SolverEvent, initial_state, solution_state, watchers
from .trace import Trace, VirtualPayload


@dataclass(frozen=True)
class Problem:
    """Variables with initial domains, constraints, and a search directive.

    ``branches`` lists explicit disjunctions (each a tuple of alternative
    constraints); ``labels`` lists variables to enumerate afterwards.
    """

    variables: tuple[tuple[str, FiniteDomain], ...] = ()
    constraints: tuple[tuple[str, ConstraintDecl], ...] = ()
    branches: tuple[tuple[ConstraintDecl, ...], ...] = ()
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        declared = {v for v, _ in self.variables}
        for cid, decl in self.constraints:
            undeclared = [v for v in decl.variables if v not in declared]
            if undeclared:
                raise ProblemError(f"constraint {cid} uses undeclared variables {undeclared}")
        for alts in self.branches:
            for decl in alts:
                undeclared = [v for v in decl.variables if v not in declared]
                if undeclared:
                    raise ProblemError(f"branch constraint uses undeclared variables {undeclared}")
        for v in self.labels:
            if v not in declared:
                raise ProblemError(f"label directive names undeclared variable {v!r}")

    def rebased(self, index_base: int) -> "Problem":
        """The same problem with element constraints read under another index base."""
        return Problem(
            variables=self.variables,
            constraints=tuple((cid, d.rebased(index_base)) for cid, d in self.constraints),
            branches=tuple(tuple(d.rebased(index_base) for d in alts) for alts in self.branches),
            labels=self.labels,
        )


@dataclass
class SolveLimits:
    max_events: int = 20000
    max_nodes: int = 500


Assignment = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class SolveResult:
    solutions: tuple[Assignment, ...]
    events: tuple[GenericEvent, ...]
    virtual: Trace

    def solution_dicts(self) -> list[dict[str, int]]:
        return [dict(s) for s in self.solutions]


class _Run:
    """Mutable run context: applies rules and extracts records through the
    run's semantics, the same ones its traces are checked with, and
    collects both trace views."""

    def __init__(self, limits: SolveLimits, os: ObservationalSemantics, start: FullState,
                 strict_reduce: bool = False):
        self.os = os
        self.full = start
        self.limits = limits
        self.strict_reduce = strict_reduce
        self.events: list[GenericEvent] = []
        self.steps: list[VirtualPayload] = []
        self.next_node = 1
        self.next_branch = 1

    def emit(self, action: Action) -> None:
        if len(self.events) >= self.limits.max_events:
            raise SolveLimitError(f"event budget {self.limits.max_events} exceeded", self.events)
        new = self.os.apply(self.full, action)
        self.events.append(self.os.extract_local(self.full, action, new))
        self.steps.append(VirtualPayload(action, new))
        self.full = new

    def fresh_node(self) -> int:
        if self.next_node > self.limits.max_nodes:
            raise SolveLimitError(f"node budget {self.limits.max_nodes} exceeded", self.events)
        n = self.next_node
        self.next_node += 1
        return n

    def fresh_branch_id(self) -> str:
        cid = f"bc{self.next_branch}"
        self.next_branch += 1
        return cid

    @property
    def solver(self):
        return self.full.solver


def _fresh_events(run: _Run, var: str, old: FiniteDomain, new: FiniteDomain, origin: str):
    """Generated events not already pending (the rule unions them in)."""
    return tuple(e for e in generated_events(var, old, new, origin)
                 if e not in run.solver.pending)


def _handle_active(run: _Run, cid: str, cause: SolverEvent) -> None:
    """Filter the active constraint to arc consistency, then retire it.

    Falsity is checked first, so a rejection happens before any wipe-out
    reduce would.  Entailment is not checked here: constraints always go
    back to sleep and are retired as solved only at the propagation
    fixpoint, which keeps every pending event schedulable.
    """
    decl = run.solver.declaration(cid)
    if decl.falsified(run.solver.domains):
        run.emit(Action.of("reject", constraint=cid, cause=cause))
        return
    changed = True
    while changed:
        changed = False
        for var in decl.variables:
            if run.strict_reduce and run.solver.active_event(cid) is None:
                run.emit(Action.of("post", constraint=cid))
                cause = BOTTOM
            old = run.solver.domain(var)
            removed = old.subtract(decl.supported(var, run.solver.domains))
            if removed.is_empty():
                continue
            new = old.subtract(removed)
            run.emit(Action.of("reduce", constraint=cid, variable=var, removed=removed,
                               generated=_fresh_events(run, var, old, new, cid), cause=cause))
            changed = True
    run.emit(Action.of("suspend", constraint=cid))


def propagate(run: _Run) -> None:
    """Run propagation to a fixpoint: nothing active, nothing pending.

    Stops at the first rejection.  Pending events are consumed in FIFO
    order; scheduling an event wakes exactly the constraints watching it at
    that moment, in identifier order (a constraint woken and suspended again
    is not re-woken for the same event).  At the quiet point, sleeping
    constraints that became entailed are woken with the bottom event and
    retired as solved.
    """
    while True:
        s = run.solver
        if s.rejected:
            return
        if s.active:
            cid, cause = s.active[0]
            _handle_active(run, cid, cause)
            continue
        if s.pending:
            event = s.pending[0]
            woken = watchers(s, event)
            if not woken:
                raise TransitionError("schedule", f"pending event {event} has no watcher")
            run.emit(Action.of("schedule", event=event, witness=woken[0]))
            for cid in woken:
                if run.solver.rejected:
                    break
                run.emit(Action.of("awake", constraint=cid, cause=event))
                _handle_active(run, cid, event)
            continue
        retired = False
        for cid in sorted(s.sleeping):
            decl = s.declaration(cid)
            if decl is not None and decl.entailed(s.domains):
                run.emit(Action.of("awake", constraint=cid, cause=BOTTOM))
                run.emit(Action.of("solved", constraint=cid))
                retired = True
        if not retired:
            return


def _post_and_propagate(run: _Run, cid: str, decl: ConstraintDecl) -> None:
    if not run.solver.is_declared(cid):
        run.emit(Action.of("newConstraint", constraint=cid, decl=decl))
    run.emit(Action.of("post", constraint=cid))
    propagate(run)


def _next_alternatives(run: _Run, strategy, position: int):
    """The alternatives of the choice at ``position``, or None when exhausted.

    An explicit disjunction contributes its listed constraints; a labelled
    variable contributes one equality per value of its current domain (a
    fixed variable still opens a one-alternative choice, an emptied one is a
    dead end).
    """
    if position >= len(strategy):
        return None
    kind, payload = strategy[position]
    if kind == "branch":
        return tuple(payload)
    dom = run.solver.domain(payload)
    if dom.is_empty():
        return None
    if dom.size() > 4096:
        raise SolveLimitError(f"labelling {payload} over {dom.size()} values", run.events)
    return tuple(ConstraintDecl.eqc(payload, v) for v in dom.values())


def _close_solution(run: _Run, solutions: list) -> None:
    """At a solution state, close the branch with a solution leaf and record
    the fixed assignment; anywhere else the branch is an unlabelled dead end."""
    if not solution_state(run.solver):
        return
    run.emit(Action.of("solution", node=run.fresh_node()))
    solutions.append(tuple((v, d.singleton_value()) for v, d in run.solver.domains.items() if d.is_singleton()))


@dataclass
class _Choice:
    node: int
    alternatives: tuple[ConstraintDecl, ...]
    index: int = 0


def _search(run: _Run, strategy, solutions: list) -> None:
    """Depth-first search with one frame per open choice; the choice at
    depth d decides strategy position d."""
    frames: list[_Choice] = []
    while True:
        if run.solver.rejected:
            run.emit(Action.of("failure", node=run.fresh_node()))
        else:
            alternatives = _next_alternatives(run, strategy, len(frames))
            if alternatives is None:
                _close_solution(run, solutions)
            else:
                frames.append(_Choice(run.fresh_node(), alternatives))
                run.emit(Action.of("newChild", node=frames[-1].node))
        while frames and frames[-1].index == len(frames[-1].alternatives):
            frames.pop()
        if not frames:
            return
        frame = frames[-1]
        if frame.index > 0:
            if run.full.tree.current == frame.node:
                # the previous alternative ended without a leaf node; open a
                # marker child so the jump target differs from the current node
                run.emit(Action.of("newChild", node=run.fresh_node()))
            run.emit(Action.of("jumpTo", node=frame.node))
        frame.index += 1
        _post_and_propagate(run, run.fresh_branch_id(), frame.alternatives[frame.index - 1])


def solve(problem: Problem, limits: SolveLimits | None = None, *,
          strict_reduce: bool = False) -> SolveResult:
    """Solve a problem by propagation and exhaustive depth-first search.

    Returns every solution (a fixed assignment per reported solution leaf)
    together with the emitted actual trace and the matching virtual trace.
    Raises SolveLimitError, carrying the partial trace, when the run exceeds
    its budgets.
    """
    run = _Run(limits or SolveLimits(), make_semantics(strict_reduce=strict_reduce), initial_state(),
               strict_reduce)
    start = run.full
    for var, dom in problem.variables:
        run.emit(Action.of("newVariable", variable=var, domain=dom))
    for cid, decl in problem.constraints:
        _post_and_propagate(run, cid, decl)
        if run.solver.rejected:
            break
    strategy = [("branch", alts) for alts in problem.branches]
    strategy += [("label", v) for v in problem.labels]
    solutions: list = []
    _search(run, strategy, solutions)
    virtual = Trace.built_by(run.os, start, tuple(run.steps))
    return SolveResult(solutions=tuple(solutions), events=tuple(run.events), virtual=virtual)
