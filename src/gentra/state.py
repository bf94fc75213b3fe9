"""Solver state, search-tree state, and the predicates the trace rules consult.

The solver side tracks declared variables and constraints, current and
initial domains, and the constraint store partitioned into active pairs,
sleeping, solved, and rejected constraints, plus a FIFO of pending solver
events and the one most recently scheduled event.  The search side is an
append-only node set with per-node solver-state snapshots and depths.

Everything is immutable; updates return new values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .constraints import ConstraintDecl
from .errors import StateInvariantError
from .fdomain import FiniteDomain

EVENT_KINDS = ("dom", "min", "max", "val")


@dataclass(frozen=True)
class SolverEvent:
    """A propagation-level happening: a domain change to be propagated.

    ``bot`` is the distinguished no-event used when a constraint is activated
    directly rather than woken by a change; it carries no variable.
    """

    kind: str
    variable: str | None = None
    origin: str | None = None

    def __post_init__(self):
        if self.kind == "bot":
            if self.variable is not None or self.origin is not None:
                raise StateInvariantError("the bottom event carries no variable and no origin")
        elif self.kind not in EVENT_KINDS:
            raise StateInvariantError(f"unknown solver-event kind {self.kind!r}")

    def matches(self, kind: str, variable: str | None) -> bool:
        return self.kind == kind and self.variable == variable


BOTTOM = SolverEvent("bot")


def _lookup(pairs, key):
    for k, v in pairs:
        if k == key:
            return v
    return None


@dataclass(frozen=True)
class SolverState:
    """The propagation half of the machine state."""

    variables: tuple[str, ...] = ()
    constraints: tuple[tuple[str, ConstraintDecl | None], ...] = ()
    domains: tuple[tuple[str, FiniteDomain], ...] = ()
    initial_domains: tuple[tuple[str, FiniteDomain], ...] = ()
    active: tuple[tuple[str, SolverEvent], ...] = ()
    solved: frozenset = frozenset()
    rejected: frozenset = frozenset()
    sleeping: frozenset = frozenset()
    pending: tuple[SolverEvent, ...] = ()
    current_event: SolverEvent | None = None

    # accessors

    def domain(self, var: str) -> FiniteDomain:
        d = _lookup(self.domains, var)
        if d is None:
            raise StateInvariantError(f"undeclared variable {var!r}")
        return d

    def initial_domain(self, var: str) -> FiniteDomain:
        d = _lookup(self.initial_domains, var)
        if d is None:
            raise StateInvariantError(f"undeclared variable {var!r}")
        return d

    def declaration(self, cid: str) -> ConstraintDecl | None:
        return _lookup(self.constraints, cid)

    def is_declared(self, cid: str) -> bool:
        return any(k == cid for k, _ in self.constraints)

    def domain_map(self) -> dict[str, FiniteDomain]:
        return dict(self.domains)

    @property
    def active_ids(self) -> frozenset:
        return frozenset(c for c, _ in self.active)

    def active_event(self, cid: str) -> SolverEvent | None:
        return _lookup(self.active, cid)

    # updates

    def with_domain(self, var: str, dom: FiniteDomain) -> "SolverState":
        """Rebind the domain of a declared variable."""
        return replace(self, domains=tuple((k, dom if k == var else d) for k, d in self.domains))

    def push_events(self, events) -> "SolverState":
        fresh = [e for e in events if e not in self.pending]
        if not fresh:
            return self
        return replace(self, pending=self.pending + tuple(fresh))


# States share their declaration tuple until the next newConstraint, so the
# ids of the last tuple asked about are kept; the tuple itself is held so
# that an identity match is never a stale one.
_last_declared: tuple = ((), frozenset())


def _declared_ids(constraints) -> frozenset:
    global _last_declared
    last = _last_declared
    if last[0] is not constraints:
        last = _last_declared = (constraints, frozenset(c for c, _ in constraints))
    return last[1]


def store(state: SolverState) -> frozenset:
    """The constraint store: every constraint currently taken into account.

    Validates that the four parts partition the store and stay within the
    declared constraints.
    """
    active = state.active_ids
    union = active | state.sleeping | state.solved | state.rejected
    if len(union) != len(active) + len(state.sleeping) + len(state.solved) + len(state.rejected):
        raise StateInvariantError("store parts are not pairwise disjoint")
    undeclared = union - _declared_ids(state.constraints)
    if undeclared:
        raise StateInvariantError(f"store contains undeclared constraints {sorted(undeclared)}")
    return union


@dataclass(frozen=True)
class SearchTreeState:
    """Creation-ordered nodes with solver-state snapshots and depths."""

    nodes: tuple[int, ...]
    snapshots: tuple[tuple[int, Any], ...]
    depths: tuple[tuple[int, int], ...]
    current: int

    def snapshot(self, node: int) -> Any:
        s = _lookup(self.snapshots, node)
        if s is None:
            raise StateInvariantError(f"unknown node {node}")
        return s

    def depth(self, node: int) -> int:
        d = _lookup(self.depths, node)
        if d is None:
            raise StateInvariantError(f"unknown node {node}")
        return d

    def with_node(self, node: int, snapshot: Any, depth: int) -> "SearchTreeState":
        return SearchTreeState(
            nodes=self.nodes + (node,),
            snapshots=self.snapshots + ((node, snapshot),),
            depths=self.depths + ((node, depth),),
            current=node,
        )

    def jumped_to(self, node: int) -> "SearchTreeState":
        return replace(self, current=node)


def initial_tree(snapshot: Any) -> SearchTreeState:
    """A fresh tree whose root (node 0, depth 0) snapshots the initial state."""
    return SearchTreeState(nodes=(0,), snapshots=((0, snapshot),), depths=((0, 0),), current=0)


@dataclass(frozen=True)
class FullState:
    """Solver state plus search-tree state: what one trace event transforms."""

    solver: SolverState
    tree: SearchTreeState


def initial_state() -> FullState:
    solver = SolverState()
    return FullState(solver=solver, tree=initial_tree(solver))


# predicates over solver states

def choice_point(state: SolverState) -> bool:
    """Quiescent and not failed: nothing active, nothing pending, no rejection.

    Node creation and jump targets require this.  No condition is placed on
    domain sizes: a fully fixed (or even empty-of-variables) state may still
    open a child node.
    """
    return not state.active and not state.pending and not state.rejected


def failure_state(state: SolverState) -> bool:
    return bool(state.rejected)


def solution_state(state: SolverState) -> bool:
    """No rejection, every constrained variable fixed, every store constraint entailed."""
    if state.rejected:
        return False
    try:
        sigma = store(state)
    except StateInvariantError:
        return False
    domains = state.domain_map()
    constrained: set = set()
    for cid in sigma:
        decl = state.declaration(cid)
        if decl is None:
            return False
        constrained.update(decl.variables)
    if any(not domains[v].is_singleton() for v in constrained):
        return False
    for cid in sorted(sigma):
        decl = state.declaration(cid)
        if not decl.entailed(domains):
            return False
    return True


def awake_condition(state: SolverState, cid: str, event: SolverEvent) -> bool:
    """May the sleeping constraint ``cid`` be woken by ``event``?

    The bottom event wakes any sleeping constraint; a domain event wakes the
    constraints whose variables it concerns (every constraint watches all
    event kinds on all of its variables).
    """
    if cid not in state.sleeping:
        return False
    if event.kind == "bot":
        return True
    decl = state.declaration(cid)
    if decl is None:
        raise StateInvariantError(f"no declaration recorded for {cid!r}")
    return event.variable in decl.variables


def watchers(state: SolverState, event: SolverEvent) -> list[str]:
    """Sleeping constraints that ``event`` would wake, in identifier order."""
    return [c for c in sorted(state.sleeping) if awake_condition(state, c, event)]


def schedulable(state: SolverState, event: SolverEvent) -> bool:
    """May ``event`` be scheduled, i.e. does some sleeping constraint react to it?"""
    return bool(watchers(state, event))
