"""The acceptance gate: one test per criterion, exact tolerances, one
pass/fail line printed each.

Criteria:
  1. the worked element problem has exactly one solution, matching a
     brute-force oracle, in under a second;
  2. its initial propagation removes exactly [0,4-mx] from I and
     [0-1,3-4,6,8-mx] from A;
  3. 100 random runs replay faithfully and validate cleanly in under 30 s;
  4. the same 100 runs enumerate exactly the oracle's solution sets;
  5. 50 explanation-machine runs map into the restricted format with all
     guards clean and zero simulation violations, in under 30 s;
  6. three injected defects are each caught at their exact position;
  7. the trace-algebra law suite holds over 1000 random small trace sets;
  8. both foreign trace fragments parse leniently with the expected shape.
"""

import random
import time
from pathlib import Path

import pytest

from gentra.abstraction import palm_mapping, check_simulable, palm_profile, palm_to_generic, project
from gentra.constraints import ConstraintDecl
from gentra.fdomain import DEFAULT_MX, format_domain, full_domain, parse_domain
from gentra.formats import parse_trace
from gentra.gentra4cp import GenericEvent, make_semantics, validate
from gentra.palm import make_palm_semantics, palm_solve
from gentra.semantics import check_faithful, extract, reconstruct
from gentra.solver import Problem, SolveLimits, solve
from gentra.state import BOTTOM, initial_state
from gentra.trace import ActualPayload, Trace, all_prefixes, domain_join, domain_meet, is_prefix_closed

from support import (arg, element_oracle, oracle_solutions, random_problem, random_trace_set, relabelled,
                     solutions_as_set, solved)

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_LIMITS = SolveLimits(max_events=200_000, max_nodes=20_000)

GT = make_semantics()
PALM_OS = make_palm_semantics()


def _report(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")
    assert ok, f"criterion {num} failed: {detail}"


def element_problem():
    return Problem(
        variables=(("I", full_domain()), ("A", full_domain())),
        constraints=(("c1", ConstraintDecl.element("I", (2, 5, 7), "A")),),
        branches=((ConstraintDecl.eq("A", "I"), ConstraintDecl.eqc("A", 2)),),
        labels=("I", "A"),
    )


@pytest.fixture(scope="module")
def fd_corpus():
    """100 random problems with their runs and the runs' own steps (criteria
    3 and 4 share them)."""
    rng = random.Random(20260808)
    corpus = []
    for _ in range(100):
        p = random_problem(rng)
        corpus.append((p, *solved(solve, p, limits=CORPUS_LIMITS)))
    return corpus


def test_criterion_1_worked_example():
    start = time.monotonic()
    result = solve(element_problem())
    elapsed = time.monotonic() - start
    oracle = element_oracle((2, 5, 7), index_base=1)
    ok = (len(result.solutions) == 1
          and solutions_as_set(result) == oracle
          and result.solution_dicts() == [{"I": 1, "A": 2}]
          and elapsed < 1.0)
    _report(1, ok, f"solutions={result.solution_dicts()} elapsed={elapsed:.3f}s")


def test_criterion_2_propagation_values():
    result, virtual = solved(solve, element_problem())
    reduces = [e for e in result.events if e.type == "reduce"]
    removed_i = format_domain(reduces[0].domain, DEFAULT_MX)
    removed_a = format_domain(reduces[1].domain, DEFAULT_MX)
    first_fixpoint = next(s.state for s, e in zip(virtual.events, result.events)
                          if e.type == "suspend")
    ok = (removed_i == "[0,4-mx]"
          and removed_a == "[0-1,3-4,6,8-mx]"
          and first_fixpoint.solver.domain("I") == parse_domain("[1-3]")
          and first_fixpoint.solver.domain("A") == parse_domain("[2,5,7]"))
    _report(2, ok, f"removed I={removed_i} A={removed_a}")


def test_criterion_3_faithfulness_suite(fd_corpus):
    start = time.monotonic()
    failures = []
    for i, (_p, res, virtual) in enumerate(fd_corpus):
        if not check_faithful(GT, [virtual]).ok:
            failures.append((i, "faithfulness"))
        report = validate(res.events)
        if not report.ok:
            failures.append((i, "validation"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    _report(3, ok, f"runs={len(fd_corpus)} failures={failures[:3]} elapsed={elapsed:.1f}s")


def test_criterion_4_oracle_equivalence(fd_corpus):
    mismatches = [i for i, (p, res, _virtual) in enumerate(fd_corpus)
                  if solutions_as_set(res) != oracle_solutions(p)]
    _report(4, not mismatches, f"runs={len(fd_corpus)} mismatches={mismatches[:3]}")


def test_criterion_5_mapping_pipeline():
    start = time.monotonic()
    rng = random.Random(555)
    projected = project(GT, palm_profile())
    mapping = palm_mapping()
    failures = []
    for i in range(50):
        p = random_problem(rng)
        res, virtual = solved(palm_solve, p, limits=CORPUS_LIMITS)
        report = validate(palm_to_generic(res.events), os=projected,
                          guards=("g1", "g2", "g3", "g4", "g5"))
        if not report.ok:
            failures.append((i, "validation", report.lines()[:2]))
            continue
        sim = check_simulable(PALM_OS, projected, mapping, [virtual])
        if not sim.ok or sim.violations:
            failures.append((i, "simulation", sim.lines()[:2]))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    _report(5, ok, f"runs=50 failures={failures[:2]} elapsed={elapsed:.1f}s")


def test_criterion_6_negative_controls():
    # (a) one corrupted attribute record is flagged at its exact position:
    # claim the full universe as a reduce's removed values where the domain
    # is already narrowed, and replay must refuse that very record
    _run, virtual = solved(solve, element_problem())
    actual = extract(GT, virtual)
    records = list(actual.events)
    prev = initial_state()
    target = None
    for i, stepped in enumerate(virtual.events):
        if (stepped.action.kind == "reduce"
                and prev.solver.domain(arg(stepped.action, "variable")) != full_domain()):
            target = i
            break
        prev = stepped.state
    original = records[target].record
    records[target] = ActualPayload(GenericEvent(
        "reduce", original.depth, constraint=original.constraint, variable=original.variable,
        domain=parse_domain("[0-mx]"), generated=original.generated, cause=original.cause))
    try:
        reconstruct(GT, Trace(actual.initial_state, tuple(records)))
        flagged_a = None
    except Exception as exc:
        flagged_a = getattr(exc, "index", None)

    # (b) a swapped action-kind map breaks simulation at the first swapped event
    _palm_run, palm_virtual = solved(palm_solve, element_problem())
    projected = project(GT, palm_profile())
    swapped = dict(palm_mapping().action_map)
    swapped["suspend"], swapped["awake"] = "awake", "suspend"
    from gentra.abstraction import StateMapping, map_palm_state

    def swap_action(action):
        return relabelled(action, swapped[action.kind])

    sim = check_simulable(PALM_OS, projected,
                          StateMapping("swapped", map_palm_state, swapped, swap_action),
                          [palm_virtual])
    kinds = [ev.action.kind for ev in palm_virtual.events]
    expected_b = min(kinds.index("suspend"), kinds.index("awake"))
    flagged_b = sim.violations[0].event if sim.violations else None

    # (c) a reduce while a rejection is pending trips the reduce guard there
    scenario = [
        GenericEvent("newVariable", 0, variable="x", domain=parse_domain("[0-5]")),
        GenericEvent("newVariable", 0, variable="y", domain=parse_domain("[0-5]")),
        GenericEvent("newConstraint", 0, constraint="c1", decl=ConstraintDecl.eqc("x", 7)),
        GenericEvent("newConstraint", 0, constraint="c2", decl=ConstraintDecl.eqc("y", 3)),
        GenericEvent("post", 0, constraint="c1"),
        GenericEvent("post", 0, constraint="c2"),
        GenericEvent("reject", 0, constraint="c1", cause=BOTTOM),
        GenericEvent("reduce", 0, constraint="c2", variable="y",
                     generated=(), domain=parse_domain("[0-2,4-5]"), cause=BOTTOM),
    ]
    report = validate(scenario)
    g3 = [v for v in report.guard_report.violations if v.guard == "g3"]
    flagged_c = g3[0].index if g3 else None

    ok = (target is not None and flagged_a == target
          and flagged_b == expected_b and flagged_c == 7)
    _report(6, ok, f"corruption@{flagged_a}=={target} swap@{flagged_b}=={expected_b} guard@{flagged_c}==7")


def test_criterion_7_law_suite():
    rng = random.Random(31337)
    checked = 0
    for _ in range(1000):
        x = all_prefixes(random_trace_set(rng))
        y = all_prefixes(random_trace_set(rng))
        join, meet = domain_join(x, y), domain_meet(x, y)
        assert is_prefix_closed(join) and is_prefix_closed(meet)
        assert domain_join(x, x) == x and domain_meet(x, x) == x
        assert join == domain_join(y, x) and meet == domain_meet(y, x)
        assert domain_join(x, meet) == x and domain_meet(x, join) == x
        assert all_prefixes(x) == x  # idempotence
        checked += 1
    _report(7, checked == 1000, f"trace-set pairs={checked}")


def test_criterion_8_fixture_parsing():
    gnu = parse_trace((FIXTURES / "gnu_element.trace").read_text(), mode="lenient")
    palm = parse_trace((FIXTURES / "palm_element.trace").read_text(),
                       mode="lenient", dialect="palm")
    reduce_chronos = [c for c, e in zip(gnu.chronos(), gnu.events) if e.type == "reduce"]
    kinds = [e.type for e in gnu.events]
    ok = (len(gnu.events) == 18
          and reduce_chronos == [6, 7, 12, 13]
          and kinds[-1] == "failure"
          and kinds[-2] == "reject"
          and len(palm.events) == 19
          and palm.chrono_start == 0)
    _report(8, ok, f"events={len(gnu.events)}/{len(palm.events)} reduces@{reduce_chronos}")
