"""Solver state, search-tree state, and the predicates the trace rules consult.

The solver side tracks declared variables and constraints, current and
initial domains, and the constraint store partitioned into active pairs,
sleeping, solved, and rejected constraints, plus a FIFO of pending solver
events and the one most recently scheduled event.  The search side is a
store of nodes, each with its solver-state snapshot and depth, shared
append-only by every tree state that sees a prefix of it.

Every read is keyed: domains are maps from variable, and declarations and
nodes are ``Entries``, prefixes of a shared append-only store, so a lookup
costs the same however long the run has grown.  Everything is immutable or
append-only; the states are named tuples, and updates (``_replace``) return
new values.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Iterator, Mapping, NamedTuple

from .constraints import ConstraintDecl
from .errors import StateInvariantError
from .fdomain import FiniteDomain

EVENT_KINDS = ("dom", "min", "max", "val")


class _EventFields(NamedTuple):
    kind: str
    variable: str | None = None
    origin: str | None = None


class SolverEvent(_EventFields):
    """A propagation-level happening: a domain change to be propagated.

    ``bot`` is the distinguished no-event used when a constraint is activated
    directly rather than woken by a change; it carries no variable.  A named
    tuple, so it compares and hashes by value in C.
    """

    __slots__ = ()

    def __new__(cls, kind, variable=None, origin=None):
        if kind == "bot":
            if variable is not None or origin is not None:
                raise StateInvariantError("the bottom event carries no variable and no origin")
        elif kind not in EVENT_KINDS:
            raise StateInvariantError(f"unknown solver-event kind {kind!r}")
        return tuple.__new__(cls, (kind, variable, origin))

    def matches(self, kind: str, variable: str | None) -> bool:
        return self.kind == kind and self.variable == variable


BOTTOM = SolverEvent("bot")


class _Store:
    """The entries behind every ``Entries`` that shares them."""

    __slots__ = ("keys", "values", "index")

    def __init__(self, keys, values):
        self.keys = list(keys)
        self.values = list(values)
        # the first position of each key (built right to left, so it wins)
        self.index = dict(zip(reversed(self.keys), range(len(self.keys) - 1, -1, -1)))


class Entries:
    """An immutable sequence of (key, value) pairs with lookup by key in O(1).

    It is the first n entries of a store it shares with the values it was
    derived from.  Appending at the end of the store extends the store in
    place; appending to a shorter prefix shares the entry stored next when it
    is the same one, and forks a copy of the prefix otherwise, so two
    different successors of one value never see each other's entries.
    Equality is by content.
    """

    __slots__ = ("_store", "_size")

    def __init__(self, pairs=()):
        pairs = tuple(pairs)
        self._store = _Store((k for k, _ in pairs), (v for _, v in pairs))
        self._size = len(pairs)

    def get(self, key, default=None):
        i = self._store.index.get(key, self._size)
        return self._store.values[i] if i < self._size else default

    def __contains__(self, key) -> bool:
        return self._store.index.get(key, self._size) < self._size

    def covers(self, keys) -> bool:
        """Is every one of ``keys`` a key of these entries?"""
        try:
            return max(map(self._store.index.__getitem__, keys), default=-1) < self._size
        except KeyError:
            return False

    def with_entry(self, key, value) -> "Entries":
        store, n = self._store, self._size
        if len(store.keys) == n:
            store.keys.append(key)
            store.values.append(value)
            store.index.setdefault(key, n)
        elif not (store.keys[n] == key and (store.values[n] is value or store.values[n] == value)):
            store = _Store(store.keys[:n] + [key], store.values[:n] + [value])
        new = object.__new__(Entries)
        new._store, new._size = store, n + 1
        return new

    def keys(self) -> tuple:
        return tuple(self._store.keys[:self._size])

    def __iter__(self):
        return zip(self._store.keys[:self._size], self._store.values[:self._size])

    def __eq__(self, other):
        if not isinstance(other, Entries):
            return NotImplemented
        n, a, b = self._size, self._store, other._store
        return n == other._size and (a is b or (a.keys[:n] == b.keys[:n] and a.values[:n] == b.values[:n]))

    def __hash__(self):
        return hash(self.keys())

    def __repr__(self) -> str:
        return f"Entries({tuple(self)!r})"


class _SolverFields(NamedTuple):
    variables: tuple[str, ...]
    constraints: Entries
    domains: dict[str, FiniteDomain]
    initial_domains: dict[str, FiniteDomain]
    active: tuple[tuple[str, SolverEvent], ...]
    solved: frozenset
    rejected: frozenset
    sleeping: frozenset
    pending: tuple[SolverEvent, ...]
    current_event: SolverEvent | None


class SolverState(_SolverFields):
    """The propagation half of the machine state: an immutable named tuple.

    ``constraints`` maps each declared constraint to its declaration (None
    when the record gave none); ``domains`` and ``initial_domains`` map each
    declared variable to its domain.  The constructor also accepts (key,
    value) pairs for the keyed fields and gives every state it builds maps
    and a declaration store of its own; ``_replace`` and
    ``FullState.with_solver`` skip it and share them, which is sound because
    they are never mutated.  States compare by
    value, and hash by every field but the two dicts.
    """

    __slots__ = ()

    def __new__(cls, variables=(), constraints=(), domains=(), initial_domains=(), active=(),
                solved=frozenset(), rejected=frozenset(), sleeping=frozenset(), pending=(),
                current_event=None):
        return tuple.__new__(cls, (variables, Entries(constraints), dict(domains), dict(initial_domains),
                                   active, solved, rejected, sleeping, pending, current_event))

    def __hash__(self):
        return hash(self[:2] + self[4:])  # all but domains and initial_domains

    # accessors

    def domain(self, var: str) -> FiniteDomain:
        d = self.domains.get(var)
        if d is None:
            raise StateInvariantError(f"undeclared variable {var!r}")
        return d

    def initial_domain(self, var: str) -> FiniteDomain:
        d = self.initial_domains.get(var)
        if d is None:
            raise StateInvariantError(f"undeclared variable {var!r}")
        return d

    def declaration(self, cid: str) -> ConstraintDecl | None:
        return self.constraints.get(cid)

    def is_declared(self, cid: str) -> bool:
        return cid in self.constraints

    def active_event(self, cid: str) -> SolverEvent | None:
        for c, event in self.active:
            if c == cid:
                return event
        return None


def store(state: SolverState) -> frozenset:
    """The constraint store: every constraint currently taken into account.

    Validates that the four parts partition the store and stay within the
    declared constraints.
    """
    active = frozenset(c for c, _ in state.active)
    union = active | state.sleeping | state.solved | state.rejected
    if len(union) != len(active) + len(state.sleeping) + len(state.solved) + len(state.rejected):
        raise StateInvariantError("store parts are not pairwise disjoint")
    if not state.constraints.covers(union):
        undeclared = sorted(c for c in union if c not in state.constraints)
        raise StateInvariantError(f"store contains undeclared constraints {undeclared}")
    return union


class SearchTreeState(NamedTuple):
    """Creation-ordered nodes with solver-state snapshots and depths.

    ``entries`` maps each node to its (snapshot, depth); ``nodes``,
    ``snapshots`` and ``depths`` read them back as tuples.
    """

    entries: Entries
    current: int

    @property
    def nodes(self) -> tuple[int, ...]:
        return self.entries.keys()

    @property
    def snapshots(self) -> tuple[tuple[int, Any], ...]:
        return tuple((n, snap) for n, (snap, _) in self.entries)

    @property
    def depths(self) -> tuple[tuple[int, int], ...]:
        return tuple((n, depth) for n, (_, depth) in self.entries)

    def has_node(self, node: int) -> bool:
        return node in self.entries

    def _entry(self, node: int) -> tuple[Any, int]:
        entry = self.entries.get(node)
        if entry is None:
            raise StateInvariantError(f"unknown node {node}")
        return entry

    def snapshot(self, node: int) -> Any:
        return self._entry(node)[0]

    def depth(self, node: int) -> int:
        return self._entry(node)[1]

    def with_node(self, node: int, snapshot: Any, depth: int) -> "SearchTreeState":
        return SearchTreeState(self.entries.with_entry(node, (snapshot, depth)), node)

    def jumped_to(self, node: int) -> "SearchTreeState":
        return SearchTreeState(self.entries, node)

    def with_snapshots(self, update) -> "SearchTreeState":
        """The same tree with ``update`` applied to every snapshot."""
        return SearchTreeState(Entries((n, (update(snap), depth)) for n, (snap, depth) in self.entries),
                               self.current)


def initial_tree(snapshot: Any) -> SearchTreeState:
    """A fresh tree whose root (node 0, depth 0) snapshots the initial state."""
    return SearchTreeState(Entries(((0, (snapshot, 0)),)), current=0)


NO_EXPLANATIONS: Mapping = MappingProxyType({})


class _FullFields(NamedTuple):
    solver: SolverState
    tree: SearchTreeState
    explanations: Mapping[str, tuple[tuple[FiniteDomain, frozenset], ...]] = NO_EXPLANATIONS


class FullState(_FullFields):
    """Solver state plus search-tree state: what one trace event transforms.

    ``explanations`` is the explanation-based machine's table: each variable
    maps to its removal entries in insertion order, each pairing a removed
    value set with the constraint set justifying the removal, so wide
    interval removals are never enumerated value by value.  The map is
    shared between states, never mutated; the generic machine's states
    share the read-only empty ``NO_EXPLANATIONS``.  An immutable named
    tuple: states compare by value, and hash by solver and tree, leaving the
    table out.
    """

    __slots__ = ()

    def __hash__(self):
        return hash((self.solver, self.tree))

    def with_solver(self, **changes) -> "FullState":
        """This state with the named solver fields replaced, the tree and the
        table shared: the solver part and the state are each rebuilt in one
        positional construction."""
        values = [*self[0]]
        for name, value in changes.items():
            values[_SOLVER_AT[name]] = value
        return tuple.__new__(FullState, (tuple.__new__(SolverState, values), self[1], self[2]))


_SOLVER_AT = {name: i for i, name in enumerate(_SolverFields._fields)}


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
    """No rejection, every constrained variable fixed, every store constraint entailed.

    Once its variables are fixed, a constraint is entailed exactly when the
    fixed assignment satisfies it, so that is what is tested.
    """
    if state.rejected:
        return False
    try:
        sigma = store(state)
    except StateInvariantError:
        return False
    decls = [*map(state.constraints.get, sigma)]
    if not all(decls):  # a constraint declared without a declaration
        return False
    domains, assignment = state.domains, {}
    for decl in decls:
        for v in decl.variables:
            dom = domains[v]
            if not dom.is_singleton():
                return False
            assignment[v] = dom.intervals[0][0]
    return all(decl.satisfied(assignment) for decl in decls)


def awake_condition(state: SolverState, cid: str, event: SolverEvent) -> bool:
    """May the sleeping constraint ``cid`` be woken by ``event``?

    The bottom event wakes any sleeping constraint; a domain event wakes the
    constraints whose variables it concerns (every constraint watches all
    event kinds on all of its variables, and one declared without a
    declaration watches no variable).
    """
    if cid not in state.sleeping:
        return False
    if event.kind == "bot":
        return True
    decl = state.declaration(cid)
    return decl is not None and event.variable in decl.variables


def _woken(state: SolverState, event: SolverEvent) -> Iterator[str]:
    """The sleeping constraints ``event`` wakes (``awake_condition`` over the
    sleeping set), in the set's order, with no call per constraint.  Every
    sleeping constraint is declared: the rules keep the store declared."""
    if event.kind == "bot":
        return iter(state.sleeping)
    decls, var = state.constraints._store, event.variable
    return (c for c in state.sleeping if var in getattr(decls.values[decls.index[c]], "variables", ()))


def watchers(state: SolverState, event: SolverEvent) -> list[str]:
    """Sleeping constraints that ``event`` would wake, in identifier order."""
    return sorted(_woken(state, event))


def schedulable(state: SolverState, event: SolverEvent) -> bool:
    """May ``event`` be scheduled, i.e. does some sleeping constraint react to it?"""
    return next(_woken(state, event), None) is not None
