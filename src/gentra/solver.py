"""A small depth-first finite-domain solver that narrates itself.

Every internal state change goes through one trace rule application, so a
run *is* its trace: the returned actual events replay cleanly under the
format semantics into the states the run went through.  The run keeps only
its current state; the virtual trace is the records' reconstruction.

Search structure: explicit disjunctions and variable labellings are both
choice points.  A choice opens one child node; alternatives are explored by
posting a fresh branch constraint, and exhausted alternatives are abandoned
by jumping back to the choice node, which restores its snapshot.  Solutions
and failures close branches with leaf nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import ConstraintDecl
from .errors import ProblemError, SolveLimitError
from .fdomain import FiniteDomain
from .gentra4cp import GenericEvent, generated_events, make_semantics
from .semantics import Action, ObservationalSemantics, _outside_the_profile
from .state import BOTTOM, FullState, SolverEvent, initial_state, solution_state, watchers
from .trace import _payload


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
        for fault in problem_faults(self.variables, self.constraints, self.branches, self.labels):
            raise fault


    def rebased(self, index_base: int) -> "Problem":
        """The same problem with element constraints read under another index base."""
        return Problem(
            variables=self.variables,
            constraints=tuple((cid, d.rebased(index_base)) for cid, d in self.constraints),
            branches=tuple(tuple(d.rebased(index_base) for d in alts) for alts in self.branches),
            labels=self.labels,
        )


def problem_faults(variables, constraints, branches, labels):
    """Every fault of a problem's entries, in the order of the checks, each a ``ProblemError`` naming
    its entry (field, index): a second declaration of a name, then undeclared variables in a constraint,
    a branch alternative or a label."""
    for what, entries in (("variable", variables), ("constraint", constraints)):
        seen = set()
        for i, (name, _) in enumerate(entries):
            if name in seen:
                yield ProblemError(f"{what} {name!r} declared twice", entry=(what + "s", i))
            seen.add(name)
    declared = {v for v, _ in variables}
    for i, (cid, decl) in enumerate(constraints):
        undeclared = [v for v in decl.variables if v not in declared]
        if undeclared:
            yield ProblemError(f"constraint {cid} uses undeclared variables {undeclared}", entry=("constraints", i))
    for i, alts in enumerate(branches):
        for decl in alts:
            undeclared = [v for v in decl.variables if v not in declared]
            if undeclared:
                yield ProblemError(f"branch constraint uses undeclared variables {undeclared}", entry=("branches", i))
                break
    for i, v in enumerate(labels):
        if v not in declared:
            yield ProblemError(f"label directive names undeclared variable {v!r}", entry=("labels", i))


@dataclass
class SolveLimits:
    max_events: int = 20000
    max_nodes: int = 500


Assignment = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class SolveResult:
    solutions: tuple[Assignment, ...]
    events: tuple[GenericEvent, ...]

    def solution_dicts(self) -> list[dict[str, int]]:
        return [dict(s) for s in self.solutions]


class _Run:
    """Mutable run context: applies rules and extracts records through the
    run's semantics, the same ones its traces are checked with, keeping
    the records and only the current state.  What the machines do
    differently in propagation, the run says: ``reject_falsified``,
    ``schedule_action`` and ``reduce_action``."""

    reject_falsified = True

    def __init__(self, limits: SolveLimits, os: ObservationalSemantics, start: FullState,
                 strict_reduce: bool = False):
        self.os = os
        self.full = start
        self.limits = limits
        self.strict_reduce = strict_reduce
        self.events: list[GenericEvent] = []
        self.next_node = 1
        self.next_branch = 1

    def emit(self, action: Action) -> None:
        if len(self.events) >= self.limits.max_events:
            raise SolveLimitError(f"event budget {self.limits.max_events} exceeded", self.events)
        new = self.os.rules.get(action[0], _outside_the_profile)(self.full, action)
        self.events.append(self.os.extract_local(self.full, action, new))
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

    def schedule_action(self, event: SolverEvent, woken: list[str]) -> Action:
        return _payload(Action, ("schedule", (event, woken[0])))

    def reduce_action(self, cid: str, var: str, old: FiniteDomain, new: FiniteDomain,
                      removed: FiniteDomain, cause: SolverEvent) -> Action:
        generated = _fresh_events(self, var, old, new)
        return _payload(Action, ("reduce", (cause, cid, None, generated, removed, var)))


def _fresh_events(run: _Run, var: str, old: FiniteDomain, new: FiniteDomain):
    """Generated events not already pending (the rule refuses one that is)."""
    return tuple(e for e in generated_events(var, old, new)
                 if e not in run.solver.pending)


def _filter(run: _Run, cid: str, cause: SolverEvent) -> None:
    """Filter the active constraint to arc consistency, then retire it.

    A run that rejects falsified constraints does so before any wipe-out
    reduce would; otherwise a reduce that empties a domain is followed by
    the rejection.  Entailment is not checked here: constraints always go
    back to sleep and are retired as solved only at the quiet point.
    """
    decl = run.solver.declaration(cid)
    if run.reject_falsified and decl.falsified(run.solver.domains):
        run.emit(_payload(Action, ("reject", (cause, cid))))
        return
    changed = True
    while changed:
        changed = False
        for var in decl.variables:
            if run.strict_reduce and run.solver.active_event(cid) is None:
                run.emit(_payload(Action, ("post", (cid,))))
                cause = BOTTOM
            old = run.solver.domain(var)
            supported = decl.supported(var, run.solver.domains)
            if supported is old or (removed := old.subtract(supported)).is_empty():
                continue
            new = old.subtract(removed)
            run.emit(run.reduce_action(cid, var, old, new, removed, cause))
            changed = True
            if new.is_empty():
                run.emit(_payload(Action, ("reject", (cause, cid))))
                return
    run.emit(_payload(Action, ("suspend", (cid,))))


def propagate(run: _Run) -> None:
    """Run propagation to a quiet point: nothing active, and no pending
    event that a sleeping constraint watches.

    Stops at the first rejection.  Pending events are consumed in FIFO
    order; an event no sleeper watches is skipped and left queued.
    Scheduling an event wakes exactly the constraints watching it at that
    moment, in identifier order (a constraint woken and suspended again is
    not re-woken for the same event).  On a machine with the solved rule,
    sleeping constraints that became entailed are woken at the quiet point
    with the bottom event and retired as solved.
    """
    skip = 0
    while True:
        s = run.solver
        if s.rejected:
            return
        if s.active:
            cid, cause = s.active[0]
            _filter(run, cid, cause)
            continue
        if skip < len(s.pending):
            event = s.pending[skip]
            woken = watchers(s, event)
            if not woken:
                skip += 1
                continue
            run.emit(run.schedule_action(event, woken))
            for cid in woken:
                if run.solver.rejected:
                    break
                run.emit(_payload(Action, ("awake", (event, cid))))
                _filter(run, cid, event)
            skip = 0
            continue
        if "solved" not in run.os.rules:
            return
        retired = False
        for cid in s.sleeping:
            decl = s.declaration(cid)
            if decl is not None and decl.entailed(s.domains):
                run.emit(_payload(Action, ("awake", (BOTTOM, cid))))
                run.emit(_payload(Action, ("solved", (cid,))))
                retired = True
        if not retired:
            return


def _post_and_propagate(run: _Run, cid: str, decl: ConstraintDecl | None) -> None:
    """Post a constraint, declaring it first when ``decl`` is new, and propagate."""
    if decl is not None and not run.solver.is_declared(cid):
        run.emit(_payload(Action, ("newConstraint", (cid, decl))))
    run.emit(_payload(Action, ("post", (cid,))))
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
    run.emit(_payload(Action, ("solution", (run.fresh_node(),))))
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
            run.emit(_payload(Action, ("failure", (run.fresh_node(),))))
        else:
            alternatives = _next_alternatives(run, strategy, len(frames))
            if alternatives is None:
                _close_solution(run, solutions)
            else:
                frames.append(_Choice(run.fresh_node(), alternatives))
                run.emit(_payload(Action, ("newChild", (frames[-1].node,))))
        while frames and frames[-1].index == len(frames[-1].alternatives):
            frames.pop()
        if not frames:
            return
        frame = frames[-1]
        if frame.index > 0:
            if run.full.tree.current == frame.node:
                # the previous alternative ended without a leaf node; open a
                # marker child so the jump target differs from the current node
                run.emit(_payload(Action, ("newChild", (run.fresh_node(),))))
            run.emit(_payload(Action, ("jumpTo", (frame.node, run.full.tree.current))))
        frame.index += 1
        _post_and_propagate(run, run.fresh_branch_id(), frame.alternatives[frame.index - 1])


def solve(problem: Problem, limits: SolveLimits | None = None, *,
          strict_reduce: bool = False) -> SolveResult:
    """Solve a problem by propagation and exhaustive depth-first search.

    Returns every solution (a fixed assignment per reported solution leaf)
    together with the emitted actual trace, which ``validate`` replays into
    the virtual trace of the run.
    Raises SolveLimitError, carrying the partial trace, when the run exceeds
    its budgets.
    """
    run = _Run(limits or SolveLimits(), make_semantics(strict_reduce=strict_reduce), initial_state(),
               strict_reduce)
    for var, dom in problem.variables:
        run.emit(_payload(Action, ("newVariable", (dom, var))))
    for cid, decl in problem.constraints:
        _post_and_propagate(run, cid, decl)
        if run.solver.rejected:
            break
    strategy = [("branch", alts) for alts in problem.branches]
    strategy += [("label", v) for v in problem.labels]
    solutions: list = []
    _search(run, strategy, solutions)
    return SolveResult(solutions=tuple(solutions), events=tuple(run.events))
