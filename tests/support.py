"""Shared test helpers: an independent brute-force oracle, brute-force
entailment, the solution predicate read through entailment, random inputs,
the benchmark's corpus, near-miss text edits, an extraction derived by
inverting reconstruction, the virtual trace of a solver's own steps, and the
derivation toolkit (prefix-to-prefix maps between trace levels with their
chain and composition checks).

The oracle never touches the propagation machinery: it re-implements each
constraint's relation directly on integers and enumerates total assignments
over the declared initial domains.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import pytest
from hypothesis import strategies as st

from gentra import solver
from gentra.constraints import ConstraintDecl
from gentra.formats import parse_problem
from gentra.errors import GentraError, ReconstructionError, StateInvariantError, TransitionError
from gentra.fdomain import FiniteDomain
from gentra.gentra4cp import ARGS
from gentra.semantics import Action, ObservationalSemantics, replay_records
from gentra.solver import Problem
from gentra.state import SolverState, initial_state, store
from gentra.trace import BOTTOM_DOMAIN, PrefixSet, Trace, TraceDomain, VirtualPayload


def arg(action: Action, name: str) -> Any:
    """The argument ``name`` of a gentra4cp action, found by its position in ``ARGS``."""
    return action.args[ARGS[action.kind].index(name)]


def relabelled(action: Action, kind: str) -> Action:
    """``action`` as a ``kind`` action: the arguments ``kind`` takes, by name,
    and no explanation."""
    named = dict(zip(ARGS[action.kind], action.args), explanation=None)
    return Action.of(kind, **{name: named[name] for name in ARGS[kind] if name in named})


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


def solved(solve_fn: Callable, problem: Problem, **kwargs):
    """``solve_fn(problem, **kwargs)`` and the virtual trace of the steps the
    solver itself took: each action it applied and the state it reached, as
    its run emitted them, not a replay of the records.  Records the steps by
    wrapping ``_Run.emit`` for this one call."""
    steps: list[VirtualPayload] = []
    os = None
    emit = solver._Run.emit

    def recording(run, action):
        nonlocal os
        emit(run, action)
        os = run.os
        steps.append(VirtualPayload(action, run.full))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._Run, "emit", recording)
        result = solve_fn(problem, **kwargs)
    return result, Trace.built_by(os, initial_state(), tuple(steps))


def benchmark_inputs():
    """The benchmark's input module, ``perfbench/inputs.py``, loaded once."""
    name = "perfbench_inputs"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, Path(__file__).parents[1] / "perfbench" / "inputs.py")
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave no cache in the benchmark's tree
        try:
            spec.loader.exec_module(module)
        finally:
            sys.dont_write_bytecode = writes
    return sys.modules[name]


def benchmark_corpus(seed: int, count: int) -> list[Problem]:
    """The first ``count`` problems of the benchmark's ``corpus-short``
    workload for ``seed``, read from their text."""
    return [parse_problem(p.text) for p in benchmark_inputs().corpus(random.Random(seed))[:count]]


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
                (got_action, got_state), = replay_records(os, state, (record,))
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


# derivations: prefix-to-prefix maps between trace levels, and their chain
# and composition checks (library code with no caller outside the tests)


@dataclass(frozen=True)
class Derivation:
    """A prefix-to-prefix map between trace levels."""

    name: str
    fn: Callable[[Trace], Trace]
    surjective_hint: bool = False

    def __call__(self, prefix: Trace) -> Trace:
        return self.fn(prefix)


def identity_derivation() -> Derivation:
    return Derivation("identity", lambda t: t, surjective_hint=True)


def compose(d1: Derivation, d2: Derivation) -> Derivation:
    """Apply ``d1`` first, then ``d2``."""
    return Derivation(f"{d2.name}.{d1.name}", lambda t: d2.fn(d1.fn(t)),
                      surjective_hint=d1.surjective_hint and d2.surjective_hint)


@dataclass(frozen=True)
class ComposeReport:
    ok: bool
    warnings: tuple[str, ...]

    def lines(self) -> list[str]:
        return [f"WARN compose {w}" for w in self.warnings] + [
            f"{'PASS' if self.ok else 'WARN'} compose"]


def check_composable(d1: Derivation, d2: Derivation, samples: Iterable[Trace]) -> ComposeReport:
    """Sample-check the composition precondition: d1 surjective or d2 total.

    Surjectivity cannot be established from samples, so a surjectivity hint
    is only reported, while totality of ``d2`` is tried on every image of a
    sample prefix.  Unverifiable preconditions produce warnings, not errors.
    """
    warnings = []
    total = True
    for t in samples:
        for p in t.prefixes():
            try:
                d2.fn(d1.fn(p))
            except Exception as exc:
                total = False
                warnings.append(f"second map undefined on an image ({exc})")
                break
        if not total:
            break
    if not total and not d1.surjective_hint:
        warnings.append("first map is not claimed surjective and second map is not total on samples")
    if d1.surjective_hint:
        warnings.append("surjectivity of the first map is a hint, spot-checked only")
    return ComposeReport(ok=total or d1.surjective_hint, warnings=tuple(warnings))


@dataclass(frozen=True)
class ChainViolation:
    trace: int
    detail: str


@dataclass(frozen=True)
class ChainReport:
    derivation: str
    traces: int
    violations: tuple[ChainViolation, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = [f"FAIL chain trace={v.trace} {v.detail}" for v in self.violations]
        out += [f"NOTE chain {n}" for n in self.notes]
        out.append(f"{'PASS' if self.ok else 'FAIL'} derivation {self.derivation} traces={self.traces}")
        return out


def check_derivation(D: Derivation, concrete: Iterable[Trace],
                     is_initial_derived: Callable[[Any], bool]) -> ChainReport:
    """Verify the prefix-chain condition of a derivation on sample traces.

    For each concrete trace, the images of its prefixes must start at a
    derived initial state and reach every derived prefix length through a
    growing chain of concrete prefixes.  Contiguous one-step growth is
    checked first; on gaps, all prefixes are scanned for witnesses (the
    scan bound, the trace length, is recorded in the report).
    """
    violations = []
    notes = []
    concrete = list(concrete)
    for ti, t in enumerate(concrete):
        try:
            images = [D(t.prefix(k)) for k in range(t.size + 1)]
        except Exception as exc:
            violations.append(ChainViolation(ti, f"derivation not total on prefixes: {exc}"))
            continue
        if images[0].size != 0 or not is_initial_derived(images[0].initial_state):
            violations.append(ChainViolation(ti, "the empty prefix does not map to a derived initial state"))
            continue
        derived = images[-1]
        contiguous = True
        for k in range(t.size):
            a, b = images[k], images[k + 1]
            if not a.is_prefix_of(b) or b.size - a.size > 1:
                contiguous = False
                break
        if contiguous:
            continue
        # fall back: scan all prefixes for a witness of every derived length
        notes.append(f"trace {ti}: contiguous chain failed; scanned all {t.size + 1} prefixes")
        witness = []
        ok = True
        for length in range(derived.size + 1):
            ks = [k for k, img in enumerate(images) if img.size == length and img.is_prefix_of(derived)]
            if not ks:
                violations.append(ChainViolation(ti, f"no concrete prefix maps to derived length {length}"))
                ok = False
                break
            witness.append(min(ks))
        if ok and witness != sorted(witness):
            violations.append(ChainViolation(ti, "witness prefixes are not an increasing chain"))
    return ChainReport(D.name, len(concrete), tuple(violations), tuple(notes))
