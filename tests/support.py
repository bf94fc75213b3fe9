"""Shared test helpers: an independent brute-force oracle, brute-force
entailment, the solution predicate read through entailment, random inputs,
near-miss text edits, and an extraction derived by inverting reconstruction.

The oracle never touches the propagation machinery: it re-implements each
constraint's relation directly on integers and enumerates total assignments
over the declared initial domains.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Iterable, Mapping

from hypothesis import strategies as st

from gentra.constraints import ConstraintDecl
from gentra.errors import GentraError, ReconstructionError, StateInvariantError, TransitionError
from gentra.fdomain import FiniteDomain
from gentra.semantics import Action, ObservationalSemantics, replay
from gentra.solver import Problem
from gentra.state import SolverState, store
from gentra.trace import BOTTOM_DOMAIN, PrefixSet, Trace, TraceDomain, VirtualPayload


def _product(values):
    out = 1
    for v in values:
        out *= v
    return out


def constraint_holds(decl: ConstraintDecl, assignment: dict) -> bool:
    """Direct re-implementation of each constraint relation on integers."""
    if decl.kind == "element":
        ivar, values, vvar = decl.args
        idx = assignment[ivar] - decl.index_base
        return 0 <= idx < len(values) and values[idx] == assignment[vvar]
    if decl.kind == "eq":
        return assignment[decl.args[0]] == assignment[decl.args[1]]
    if decl.kind == "neq":
        return assignment[decl.args[0]] != assignment[decl.args[1]]
    if decl.kind == "eqc":
        return assignment[decl.args[0]] == decl.args[1]
    raise AssertionError(f"unknown kind {decl.kind}")


def oracle_solutions(problem: Problem) -> set:
    """All solutions by enumerating the initial-domain product."""
    names = [v for v, _ in problem.variables]
    domains = [list(d.values()) for _, d in problem.variables]
    out = set()
    for combo in itertools.product(*domains):
        assignment = dict(zip(names, combo))
        if not all(constraint_holds(d, assignment) for _, d in problem.constraints):
            continue
        if not all(any(constraint_holds(alt, assignment) for alt in alts)
                   for alts in problem.branches):
            continue
        out.add(tuple(sorted(assignment.items())))
    return out


def element_oracle(listing=(2, 5, 7), index_base=1) -> set:
    """Solutions of element(I, listing, A) under (A = I or A = 2).

    The unbounded declared ranges collapse for enumeration: the element
    relation can only hold when I is a valid index and A is a listed value,
    so those finite candidate sets cover every possible solution.
    """
    out = set()
    for i in range(index_base, index_base + len(listing)):
        for a in set(listing):
            if listing[i - index_base] != a:
                continue
            if a == i or a == 2:
                out.add((("A", a), ("I", i)))
    return out


def random_problem(rng: random.Random, max_vars: int = 4, universe: int = 8) -> Problem:
    """A small random problem: every variable is labelled, so solutions are
    total assignments comparable against the oracle."""
    nvars = rng.randint(1, max_vars)
    names = [f"x{i}" for i in range(nvars)]
    sizes = [rng.randint(1, universe) for _ in names]
    while 1 < nvars and _product(sizes) > 256:  # keep full labelling trees small
        i = max(range(nvars), key=lambda j: sizes[j])
        sizes[i] = max(1, sizes[i] - 1)
    variables = []
    for name, size in zip(names, sizes):
        variables.append((name, FiniteDomain.of(rng.sample(range(universe), size))))

    constraints = []
    for j in range(rng.randint(0, 3)):
        kind = rng.choice(["eq", "neq", "eqc", "element"])
        cid = f"c{j + 1}"
        if kind == "eqc" or nvars < 2:
            constraints.append((cid, ConstraintDecl.eqc(rng.choice(names), rng.randrange(universe))))
        elif kind == "element":
            ivar, vvar = rng.sample(names, 2)
            listing = tuple(rng.randrange(universe) for _ in range(rng.randint(2, 4)))
            constraints.append((cid, ConstraintDecl.element(ivar, listing, vvar)))
        elif kind == "eq":
            constraints.append((cid, ConstraintDecl.eq(*rng.sample(names, 2))))
        else:
            constraints.append((cid, ConstraintDecl.neq(*rng.sample(names, 2))))

    branches = ()
    if rng.random() < 0.35:
        v = rng.choice(names)
        branches = ((ConstraintDecl.eqc(v, rng.randrange(universe)),
                     ConstraintDecl.eqc(v, rng.randrange(universe))),)

    return Problem(variables=tuple(variables), constraints=tuple(constraints),
                   branches=branches, labels=tuple(names))


def ladder(k: int) -> Problem:
    """The path-colouring ladder: k variables over 0..2, ``neq`` on each
    consecutive pair, all labelled."""
    names = tuple(f"x{i}" for i in range(k))
    return Problem(
        variables=tuple((n, FiniteDomain.interval(0, 2)) for n in names),
        constraints=tuple((f"c{i}", ConstraintDecl.neq(a, b))
                          for i, (a, b) in enumerate(zip(names, names[1:]))),
        labels=names,
    )


# Exhaustive entailment checking is capped at this many candidate tuples.
_ENUM_CAP = 4096


def entailed_by_enumeration(decl: ConstraintDecl, domains: Mapping[str, FiniteDomain]) -> bool:
    """Brute-force entailment over the domain product; test-scale cross-check."""
    vs = decl.variables
    total = 1
    for v in vs:
        total *= max(domains[v].size(), 1)
        if total > _ENUM_CAP:
            raise GentraError("domain product too large to enumerate")
    if any(domains[v].is_empty() for v in vs):
        return False
    for combo in itertools.product(*(list(domains[v].values()) for v in vs)):
        if not decl.satisfied(dict(zip(vs, combo))):
            return False
    return True


def entailed_solution_state(state: SolverState) -> bool:
    """The solution predicate read through domain-level entailment: no
    rejection, every constrained variable fixed, every store constraint
    ``entailed``; the reference ``state.solution_state`` must agree with."""
    if state.rejected:
        return False
    try:
        sigma = store(state)
    except StateInvariantError:
        return False
    domains = state.domains
    constrained: set = set()
    for cid in sigma:
        decl = state.declaration(cid)
        if decl is None:
            return False
        constrained.update(decl.variables)
    if any(not domains[v].is_singleton() for v in constrained):
        return False
    return all(state.declaration(cid).entailed(domains) for cid in sorted(sigma))


def solutions_as_set(result) -> set:
    return {tuple(sorted(assignment)) for assignment in result.solutions}


# small random traces for the trace-algebra laws

_STATES = ["s0", "s1"]
_EVENTS = [VirtualPayload(a, s) for a in ("a", "b", "c") for s in ("t0", "t1")]


def random_trace(rng: random.Random, max_events: int = 6) -> Trace:
    size = rng.randint(0, max_events)
    return Trace(rng.choice(_STATES), tuple(rng.choice(_EVENTS) for _ in range(size)))


def canonical_traces(prefixes: Iterable[Trace]) -> list[Trace]:
    """A deterministic ordering of a prefix set (by size, then by repr)."""
    return sorted(prefixes, key=lambda t: (t.size, repr(t)))


def random_trace_set(rng: random.Random, max_traces: int = 5, max_events: int = 6) -> list[Trace]:
    return [random_trace(rng, max_events) for _ in range(rng.randint(0, max_traces))]


def generated_domain(elements: Iterable[PrefixSet]) -> TraceDomain:
    """The smallest union/intersection-closed family containing ``elements``."""
    family = {frozenset(e) for e in elements}
    family.add(BOTTOM_DOMAIN)
    while True:
        fresh = set()
        for a in family:
            for b in family:
                for c in (frozenset(a | b), frozenset(a & b)):
                    if c not in family:
                        fresh.add(c)
        if not fresh:
            return TraceDomain(frozenset(family))
        family |= fresh


def extraction_from_reconstruction(os: ObservationalSemantics,
                                   candidates: Callable[[Any], Iterable[Any]]):
    """Derive an extraction function by inverting replay.

    Searches the caller-supplied candidate records for the unique one that
    reconstructs to the given transition.  The candidate space must be
    finite and must contain the right record.
    """

    def derived(state: Any, action: Action, successor: Any) -> Any:
        hits = []
        for record in candidates(state):
            try:
                got_action, got_state = replay(os, state, record)
            except ReconstructionError:
                continue
            if got_action == action and got_state == successor:
                hits.append(record)
        if len(hits) != 1:
            raise TransitionError(os.name, f"reconstruction inversion found {len(hits)} candidates")
        return hits[0]

    return derived


# near-miss texts: a few single-character edits of a valid text


def edit_scripts(chars: Iterable[str]):
    """Scripts of 1–4 (position, operation, character) edits for :func:`apply_edits`."""
    return st.lists(st.tuples(st.integers(0, 2**20), st.sampled_from(["insert", "delete", "replace"]),
                              st.sampled_from(sorted(chars))), min_size=1, max_size=4)


def apply_edits(text: str, script) -> str:
    for pos, op, ch in script:
        i = pos % (len(text) + 1)
        if op == "insert":
            text = text[:i] + ch + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + ch + text[i + 1:]
    return text


class RuleCalls:
    """Counts the rule applications made through the given rule tables, by
    wrapping each entry; how ``apply`` reaches a rule does not matter.  A
    rule that calls another wrapped rule (palm's overrides call the generic
    ones) is one application."""

    def __init__(self, monkeypatch, *tables):
        self.calls = 0
        self._active = 0
        for table in tables:
            for kind, rule in list(table.items()):
                monkeypatch.setitem(table, kind, self._counting(rule))

    def _counting(self, rule):
        def counting(full, action):
            self.calls += not self._active
            self._active += 1
            try:
                return rule(full, action)
            finally:
                self._active -= 1
        return counting
