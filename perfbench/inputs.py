"""Seeded benchmark inputs, rendered as problem-file text, with answers
computed without gentra.

gentra only ever sees the text.  The answers come from the benchmark's own
descriptions of the problems: a closed-form count plus a colouring check for
the ladders, and brute-force enumeration over the declared initial domains
for the corpus.  Defect twins are made by editing trace text, and each
corruption is illegal at its line whatever the state there is.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass

LADDER_SIZES = (4, 5, 6)
LADDER_COLOURS = 3
CORPUS_PROBLEMS = 300
CORPUS_SEED = 20260808
CORPUS_MAX_VARS = 3
CORPUS_VALUES = range(4)
CONSTRAINT_KINDS = ("eq", "neq", "eqc", "element")
UNDECLARED = "zz_undeclared"
# values 0..2**28-1, far outside every declared domain of these workloads
WIDE_DOMAIN = "[0-mx]"


@dataclass(frozen=True)
class Spec:
    """A problem as the benchmark knows it, independent of gentra's types.

    ``constraints`` and the alternatives of ``branch`` are (kind, args)
    pairs; element lists are read 1-based, as problem files are.
    """

    variables: tuple[tuple[str, tuple[int, ...]], ...]
    constraints: tuple[tuple[str, tuple], ...]
    branch: tuple[tuple[str, tuple], ...]
    labels: tuple[str, ...]

    def text(self) -> str:
        lines = [f"var {name} {_domain_text(values)}" for name, values in self.variables]
        lines += [f"con c{i} {_decl_text(c)}" for i, c in enumerate(self.constraints, start=1)]
        if self.branch:
            lines.append("branch (" + " | ".join(_decl_text(c) for c in self.branch) + ")")
        lines.append("label " + ",".join(self.labels))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Problem:
    """One problem of a workload: its text and the answers to check against."""

    name: str
    size: int | None  # ladder size, None in the corpus
    text: str
    spec: Spec
    answers: dict  # machine -> expected solutions, for the corpus


def _domain_text(values) -> str:
    values = sorted(values)
    if values == list(range(values[0], values[-1] + 1)):
        return f"{values[0]}..{values[-1]}"
    return "[" + ",".join(map(str, values)) + "]"


def _decl_text(decl) -> str:
    kind, args = decl
    if kind == "element":
        ivar, listing, vvar = args
        return f"element({ivar},[{','.join(map(str, listing))}],{vvar})"
    return f"{kind}({','.join(map(str, args))})"


def holds(decl, assignment, index_base: int) -> bool:
    kind, args = decl
    if kind == "element":
        ivar, listing, vvar = args
        i = assignment[ivar] - index_base
        return 0 <= i < len(listing) and listing[i] == assignment[vvar]
    if kind == "eq":
        return assignment[args[0]] == assignment[args[1]]
    if kind == "neq":
        return assignment[args[0]] != assignment[args[1]]
    if kind == "eqc":
        return assignment[args[0]] == args[1]
    raise ValueError(f"unknown constraint kind {kind!r}")


def brute_force(spec: Spec, index_base: int):
    """Every total assignment over the initial domains that satisfies the
    constraints, sorted.

    Search explores each branch alternative in turn, so an assignment is
    reported once for every alternative it satisfies.  The explanation-based
    machine reads element lists 0-based, the format's solver 1-based.
    """
    names = [name for name, _ in spec.variables]
    found = []
    for combo in itertools.product(*(values for _, values in spec.variables)):
        assignment = dict(zip(names, combo))
        if not all(holds(c, assignment, index_base) for c in spec.constraints):
            continue
        times = sum(holds(c, assignment, index_base) for c in spec.branch) if spec.branch else 1
        found.extend([tuple(sorted(assignment.items()))] * times)
    return tuple(sorted(found))


def ladder(k: int, rng: random.Random) -> Problem:
    """The path-colouring ladder: k variables over 0..2, neq on consecutive
    pairs, all labelled along the path.

    The seed renames the variables and picks the labelling direction.  Every
    choice is the same problem up to names, so event counts, nodes and trace
    bytes depend on k alone and runs with different seeds stay comparable.
    """
    names = [f"x{i}" for i in rng.sample(range(k), k)]
    path = names if rng.random() < 0.5 else names[::-1]
    spec = Spec(
        variables=tuple((name, tuple(range(LADDER_COLOURS))) for name in names),
        constraints=tuple(("neq", (a, b)) for a, b in zip(names, names[1:])),
        branch=(),
        labels=tuple(path),
    )
    return Problem(f"k{k}", k, spec.text(), spec, answers={})


def ladder_solutions_ok(problem: Problem, solutions) -> bool:
    """3 * 2**(k-1) distinct proper colourings of the path."""
    names = [name for name, _ in problem.spec.variables]
    if len(solutions) != LADDER_COLOURS * 2 ** (problem.size - 1):
        return False
    seen = set()
    for assignment in solutions:
        values = dict(assignment)
        if sorted(values) != sorted(names) or assignment in seen:
            return False
        seen.add(assignment)
        if any(values[n] not in range(LADDER_COLOURS) for n in names):
            return False
        if any(values[a] == values[b] for a, b in zip(names, names[1:])):
            return False
    return True


def corpus_problem(index: int, rng: random.Random, names: list[str]) -> Problem:
    """A short random problem: at most 3 variables over subsets of 0..3, at
    most 3 constraints of the four kinds, a two-way disjunction on every third
    problem, all labelled.

    The index fixes the shape (variable count, domain sizes, constraint count
    and kinds, whether there is a disjunction), cycling through every
    combination.  ``rng`` draws the rest: domain values, the variables each
    constraint relates, constants and element lists.  ``names`` names the
    variables in declaration order.
    """
    nvars = 1 + index % CORPUS_MAX_VARS
    names = names[:nvars]
    sizes = [1 + (index // CORPUS_MAX_VARS + j) % len(CORPUS_VALUES) for j in range(nvars)]
    variables = tuple((name, tuple(sorted(rng.sample(CORPUS_VALUES, size))))
                      for name, size in zip(names, sizes))
    constraints = []
    for c in range(index // 12 % 4):
        kind = CONSTRAINT_KINDS[(index + c) % len(CONSTRAINT_KINDS)]
        if kind == "eqc" or nvars < 2:
            constraints.append(("eqc", (rng.choice(names), rng.choice(CORPUS_VALUES))))
        elif kind == "element":
            ivar, vvar = rng.sample(names, 2)
            listing = tuple(rng.choice(CORPUS_VALUES) for _ in range(2 + (index + c) % 3))
            constraints.append(("element", (ivar, listing, vvar)))
        else:
            constraints.append((kind, tuple(rng.sample(names, 2))))
    branch = ()
    if index // 48 % 3 == 0:
        v = rng.choice(names)
        branch = (("eqc", (v, rng.choice(CORPUS_VALUES))), ("eqc", (v, rng.choice(CORPUS_VALUES))))
    spec = Spec(variables, tuple(constraints), branch, tuple(names))
    answers = {"fd": brute_force(spec, 1), "palm": brute_force(spec, 0)}
    return Problem(f"p{index}", None, spec.text(), spec, answers)


def corpus(rng: random.Random) -> list[Problem]:
    """The corpus for one seed.

    The problems are drawn once, from ``CORPUS_SEED``; the seed renames their
    variables and shuffles their order.  A corpus this small drawn afresh for
    each seed varies too much: the p90 verdict time moved by 11% between
    seeds, which would hide the changes the benchmark is meant to show.
    """
    draw = random.Random(CORPUS_SEED)
    problems = [corpus_problem(i, draw, [f"v{j}" for j in rng.sample(range(CORPUS_MAX_VARS), CORPUS_MAX_VARS)])
                for i in range(CORPUS_PROBLEMS)]
    rng.shuffle(problems)
    return problems


def solutions_ok(problem: Problem, machine: str, solutions) -> bool:
    got = tuple(sorted(tuple(sorted(a)) for a in solutions))
    if problem.size is not None:
        return ladder_solutions_ok(problem, got)
    return got == problem.answers[machine]


_EVENT_LINE = re.compile(r"^(\d+\[\d+\])(\w+)(.*)$")
_DOMAIN = re.compile(r"\[[^\]]*\]")


def defect_twin(text: str, rng: random.Random) -> tuple[str, int]:
    """Corrupt one event line of a trace and return (text, event index).

    The line is drawn from the middle twentieth of the trace, so the reject
    path replays about half of it, whatever the seed.  Two corruptions, each
    illegal wherever it lands: a ``post`` of a constraint the trace never
    declares, or a ``reduce`` that claims to remove every value up to ``mx``
    (the acceptance suite's widened reduce), which no declared domain of
    these workloads contains.  The prefix before the line is the original,
    legal trace, so the first refused event is exactly the corrupted one.
    """
    lines = text.split("\n")
    events = [i for i, line in enumerate(lines) if _EVENT_LINE.match(line)]
    n = len(events)
    lo = (19 * n) // 40
    band = range(lo, max(lo + 1, math.ceil(21 * n / 40)))
    reduces = [i for i in band if _EVENT_LINE.match(lines[events[i]]).group(2) == "reduce"]
    if reduces and rng.random() < 0.5:
        index = rng.choice(reduces)
        head, _kind, rest = _EVENT_LINE.match(lines[events[index]]).groups()
        lines[events[index]] = f"{head}reduce{_DOMAIN.sub(WIDE_DOMAIN, rest, count=1)}"
    else:
        index = rng.choice(band)
        head = _EVENT_LINE.match(lines[events[index]]).group(1)
        lines[events[index]] = f"{head}post {UNDECLARED}"
    return "\n".join(lines), index
