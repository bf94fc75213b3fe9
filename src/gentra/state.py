"""Solver state, search-tree state, and the predicates the trace rules consult.

The solver side tracks declared variables and constraints, current and
initial domains, and the constraint store partitioned into active pairs,
sleeping, solved, and rejected constraints, plus a FIFO of pending solver
events and the one most recently scheduled event.  The sleeping, solved and
rejected parts are sorted tuples of constraint identifiers: the order is
canonical, so equality and hashing are those of the sets, and a tuple of a
few identifiers takes a fraction of a set's memory.  The search side is a
store of nodes, each with its solver-state snapshot and depth, shared
append-only by every tree state that sees a prefix of it.

Every read is keyed: domains are maps from variable, and declarations and
nodes are ``Entries``, prefixes of a shared append-only store, so a lookup
costs the same however long the run has grown.  Everything is immutable or
append-only; the states are named tuples, and updates (``_replace``) return
new values.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Iterator, Mapping, NamedTuple

from .constraints import ConstraintDecl
from .errors import StateInvariantError
from .fdomain import FiniteDomain

EVENT_KINDS = ("dom", "min", "max", "val")


class _EventFields(NamedTuple):
    kind: str
    variable: str | None = None


class SolverEvent(_EventFields):
    """A propagation-level happening: a domain change to be propagated, the
    pair (kind, variable) that the text writes.

    ``bot`` is the distinguished no-event used when a constraint is activated
    directly rather than woken by a change; it carries no variable.  A named
    tuple, so it compares and hashes by value in C.
    """

    __slots__ = ()

    def __new__(cls, kind, variable=None):
        if kind == "bot":
            if variable is not None:
                raise StateInvariantError("the bottom event carries no variable")
        elif kind not in EVENT_KINDS:
            raise StateInvariantError(f"unknown solver-event kind {kind!r}")
        return tuple.__new__(cls, (kind, variable))

    def __str__(self) -> str:
        """The event as the text writes it: ``bot`` or ``kind(variable)``."""
        return "bot" if self[1] is None else f"{self[0]}({self[1]})"


BOTTOM = SolverEvent("bot")


_KEY, _VALUE = itemgetter(0), itemgetter(1)


class _Store:
    """The entries behind every ``Entries`` that shares them."""

    __slots__ = ("keys", "values", "index")

    def __init__(self, keys: list, values: list, index: dict | None = None):
        self.keys = keys
        self.values = values
        # the first position of each key (built right to left, so it wins)
        self.index = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1))) if index is None else index


def _over(store: _Store, size: int) -> "Entries":
    """The first ``size`` entries of ``store``, built without ``Entries.__init__``."""
    entries = object.__new__(Entries)
    entries._store, entries._size = store, size
    return entries


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
        self._store = _Store(list(map(_KEY, pairs)), list(map(_VALUE, pairs)))
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
        return _over(store, n + 1)

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
    solved: tuple[str, ...]
    rejected: tuple[str, ...]
    sleeping: tuple[str, ...]
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
                solved=(), rejected=(), sleeping=(), pending=(), current_event=None):
        return tuple.__new__(cls, (variables, Entries(constraints), dict(domains), dict(initial_domains), active,
                                   *(tuple(sorted(set(ids))) for ids in (solved, rejected, sleeping)),
                                   pending, current_event))

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


def with_id(ids: tuple[str, ...], cid: str) -> tuple[str, ...]:
    """The sorted identifiers ``ids`` with ``cid`` inserted in order."""
    i = bisect_left(ids, cid)
    return ids if ids[i:i + 1] == (cid,) else ids[:i] + (cid,) + ids[i:]


def without_id(ids: tuple[str, ...], cid: str) -> tuple[str, ...]:
    """The sorted identifiers ``ids`` without ``cid``."""
    i = bisect_left(ids, cid)
    return ids[:i] + ids[i + 1:] if ids[i:i + 1] == (cid,) else ids


def store(state: SolverState) -> frozenset:
    """The constraint store: every constraint currently taken into account.

    Validates that the four parts partition the store and stay within the
    declared constraints.  The rules keep that so, and test membership on
    the parts (``outside_store``) without building the store.
    """
    active = frozenset(c for c, _ in state.active)
    union = active.union(state.sleeping, state.solved, state.rejected)
    if len(union) != len(active) + len(state.sleeping) + len(state.solved) + len(state.rejected):
        raise StateInvariantError("store parts are not pairwise disjoint")
    if not state.constraints.covers(union):
        undeclared = sorted(c for c in union if c not in state.constraints)
        raise StateInvariantError(f"store contains undeclared constraints {undeclared}")
    return union


def outside_store(state: SolverState, ids: frozenset) -> frozenset:
    """The constraints of ``ids`` that are not in the store, read off its parts."""
    return ids.difference(state.sleeping, state.solved, state.rejected, map(itemgetter(0), state.active))


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

    def current_depth(self) -> int:
        """The depth of the current node, which the rules keep in the tree: its entry's second part."""
        store = self.entries._store
        return store.values[store.index[self.current]][1]

    def with_node(self, node: int, snapshot: Any, depth: int) -> "SearchTreeState":
        return SearchTreeState(self.entries.with_entry(node, (snapshot, depth)), node)

    def jumped_to(self, node: int) -> "SearchTreeState":
        return SearchTreeState(self.entries, node)

    def with_snapshots(self, update) -> "SearchTreeState":
        """The same tree with ``update`` applied to every snapshot."""
        return self._replace(entries=Entries((n, (update(snap), depth)) for n, (snap, depth) in self.entries))


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

    def with_solver(self, i, value, j=None, value_j=None, k=None, value_k=None) -> "FullState":
        """This state with the solver field at position ``i`` (see ``ACTIVE``) set to ``value``, and those at
        ``j`` and ``k`` if given; the tree and table shared, each part built in one positional construction."""
        fields = [*self[0]]
        fields[i] = value
        if j is not None:
            fields[j] = value_j
            if k is not None:
                fields[k] = value_k
        return tuple.__new__(FullState, (tuple.__new__(SolverState, fields), self[1], self[2]))


# each solver field's position, for the rules that rebuild a solver state
VARIABLES, CONSTRAINTS, DOMAINS, INITIAL_DOMAINS, ACTIVE, SOLVED, REJECTED, SLEEPING, PENDING, CURRENT_EVENT = range(10)


def initial_state() -> FullState:
    """The state before any event: nothing declared, and a tree of the root node alone.

    Each part is built in one positional construction, and its two stores, of declarations and of nodes,
    from their lists and index, as ``SolverState()`` and ``Entries`` build them with passes over pairs.
    """
    solver = tuple.__new__(SolverState, ((), _over(_Store([], [], {}), 0), {}, {}, (), (), (), (), (), None))
    tree = tuple.__new__(SearchTreeState, (_over(_Store([0], [(solver, 0)], {0: 0}), 1), 0))
    return tuple.__new__(FullState, (solver, tree, NO_EXPLANATIONS))


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
    decls = [*map(state.constraints.get, (*map(itemgetter(0), state.active), *state.sleeping, *state.solved))]
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


def watches(state: SolverState, cid: str, event: SolverEvent) -> bool:
    """Does the constraint ``cid`` react to ``event``?  A sleeping one that does may be woken by it.

    The bottom event wakes any sleeping constraint; a domain event wakes the
    constraints whose variables it concerns (every constraint watches all
    event kinds on all of its variables, and one declared without a
    declaration watches no variable).
    """
    if event.kind == "bot":
        return True
    decl = state.constraints.get(cid)
    return decl is not None and event.variable in decl.variables


def _woken(state: SolverState, event: SolverEvent) -> Iterator[str]:
    """The sleeping constraints ``event`` wakes (``watches`` over the
    sleeping part), in identifier order, with no call per constraint.  Every
    sleeping constraint is declared: the rules keep the store declared."""
    if event.kind == "bot":
        return iter(state.sleeping)
    decls, var = state.constraints._store, event.variable
    return (c for c in state.sleeping if var in getattr(decls.values[decls.index[c]], "variables", ()))


def watchers(state: SolverState, event: SolverEvent) -> list[str]:
    """Sleeping constraints that ``event`` would wake, in identifier order."""
    return list(_woken(state, event))


def schedulable(state: SolverState, event: SolverEvent) -> bool:
    """May ``event`` be scheduled, i.e. does some sleeping constraint react to it?"""
    return next(_woken(state, event), None) is not None
