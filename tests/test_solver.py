"""Solver behaviour: the worked element problem, random oracle equivalence,
trace compliance of everything emitted."""

import random
import sys

import pytest

from gentra.constraints import ConstraintDecl
from gentra.errors import ProblemError, SolveLimitError
from gentra.fdomain import DEFAULT_MX, FiniteDomain, format_domain, full_domain, parse_domain
from gentra.gentra4cp import make_semantics, validate
from gentra.semantics import check_faithful
from gentra.solver import Problem, SolveLimits, solve

from support import (
    constraint_holds,
    element_oracle,
    oracle_solutions,
    random_problem,
    solutions_as_set,
)

CORPUS_LIMITS = SolveLimits(max_events=200_000, max_nodes=20_000)


def element_problem():
    return Problem(
        variables=(("I", full_domain()), ("A", full_domain())),
        constraints=(("c1", ConstraintDecl.element("I", (2, 5, 7), "A")),),
        branches=((ConstraintDecl.eq("A", "I"), ConstraintDecl.eqc("A", 2)),),
        labels=("I", "A"),
    )


@pytest.fixture(scope="module")
def element_run():
    return solve(element_problem())


def test_element_problem_single_solution(element_run):
    assert element_run.solution_dicts() == [{"I": 1, "A": 2}]
    assert solutions_as_set(element_run) == element_oracle()
    assert len(element_oracle()) == 1


def test_element_propagation_values(element_run):
    reduces = [e for e in element_run.events if e.type == "reduce"]
    assert format_domain(reduces[0].domain, DEFAULT_MX) == "[0,4-mx]"
    assert format_domain(reduces[1].domain, DEFAULT_MX) == "[0-1,3-4,6,8-mx]"
    # the surviving domains after the first activation
    first_suspend = next(i for i, e in enumerate(element_run.events) if e.type == "suspend")
    state = element_run.virtual.events[first_suspend].state
    assert state.solver.domain("I") == parse_domain("[1-3]")
    assert state.solver.domain("A") == FiniteDomain.of([2, 5, 7])


def test_element_branch_structure(element_run):
    kinds = [e.type for e in element_run.events]
    assert "newChild" in kinds and "jumpTo" in kinds
    assert kinds.count("failure") == 1 and kinds.count("solution") == 1
    assert kinds.index("failure") < kinds.index("jumpTo") < kinds.index("solution")
    # the failing branch ends with a rejection right before its leaf
    fail_at = kinds.index("failure")
    assert kinds[fail_at - 1] == "reject"


def test_element_matches_reference_skeleton(element_run):
    """The condensed event sequence of the reference tracer for this problem
    is a subsequence of ours (it elides queue traffic), modulo renaming."""
    rename = {"v1": "I", "v2": "A", "c1": "c1", "c4": "bc1"}
    skeleton = [
        ("newVariable", rename["v1"], None),
        ("newVariable", rename["v2"], None),
        ("newConstraint", "c1", None),
        ("post", "c1", None),
        ("reduce", "c1", "[0,4-mx]"),
        ("reduce", "c1", "[0-1,3-4,6,8-mx]"),
        ("suspend", "c1", None),
        ("newChild", None, None),
        ("newConstraint", rename["c4"], None),
        ("post", rename["c4"], None),
        ("reduce", rename["c4"], "[5,7]"),
        ("reduce", rename["c4"], "[1,3]"),
        ("suspend", rename["c4"], None),
        ("schedule", rename["v2"], "dom"),
        ("awake", "c1", None),
        ("reject", "c1", None),
        ("failure", None, None),
    ]
    pos = 0
    for ev in element_run.events:
        if pos == len(skeleton):
            break
        want_type, want_a, want_b = skeleton[pos]
        if ev.type != want_type:
            continue
        if want_type == "newVariable" and ev.variable != want_a:
            continue
        if want_type in ("newConstraint", "post", "suspend", "awake", "reject") and ev.constraint != want_a:
            continue
        if want_type == "reduce":
            if ev.constraint != want_a or format_domain(ev.domain, DEFAULT_MX) != want_b:
                continue
        if want_type == "schedule":
            if ev.event.variable != want_a or ev.event.kind != want_b:
                continue
        pos += 1
    assert pos == len(skeleton), f"matched only {pos}/{len(skeleton)} skeleton events"


def test_element_trace_validates(element_run):
    report = validate(element_run.events)
    assert report.ok and report.guard_report.ok


def test_trivial_singleton_label():
    p = Problem(variables=(("x", FiniteDomain.of([5])),), labels=("x",))
    res = solve(p)
    assert res.solution_dicts() == [{"x": 5}]
    kinds = [e.type for e in res.events]
    assert "newVariable" in kinds and "newChild" in kinds and "solution" in kinds
    assert kinds.index("newVariable") < kinds.index("newChild") < kinds.index("solution")
    assert validate(res.events).ok


def test_zero_branch_solution_state():
    p = Problem(variables=(("x", FiniteDomain.of([5])),))
    res = solve(p)
    assert res.solution_dicts() == [{"x": 5}]
    assert [e.type for e in res.events] == ["newVariable", "solution"]


def test_empty_problem_single_empty_solution():
    res = solve(Problem())
    assert res.solutions == ((),)
    assert [e.type for e in res.events] == ["solution"]
    assert validate(res.events).ok


def test_unsatisfiable_base_problem():
    p = Problem(variables=(("x", FiniteDomain.of([1, 2])),),
                constraints=(("c1", ConstraintDecl.eqc("x", 9)),),
                labels=("x",))
    res = solve(p)
    assert res.solutions == ()
    kinds = [e.type for e in res.events]
    assert kinds[-1] == "failure" and "reject" in kinds
    assert validate(res.events).ok


def test_unlabelled_dead_end_still_validates():
    # the first branch leaves a constrained variable undecided: the search
    # abandons it without a leaf and must still produce a legal jump
    p = Problem(
        variables=(("x", FiniteDomain.interval(0, 3)), ("y", FiniteDomain.interval(0, 3))),
        constraints=(("c1", ConstraintDecl.neq("x", "y")),),
        branches=((ConstraintDecl.eqc("x", 0), ConstraintDecl.eqc("x", 1)),),
    )
    res = solve(p)
    assert res.solutions == ()
    assert validate(res.events).ok
    assert [e.type for e in res.events].count("jumpTo") == 1


def test_propagation_at_fixpoint_emits_nothing():
    # a constraint with nothing to prune and no entailment goes straight
    # from post to suspend, and the quiet point adds no further events
    p = Problem(
        variables=(("x", FiniteDomain.interval(0, 3)), ("y", FiniteDomain.interval(0, 3))),
        constraints=(("c1", ConstraintDecl.eq("x", "y")),),
    )
    res = solve(p)
    kinds = [e.type for e in res.events]
    post = kinds.index("post")
    assert kinds[post + 1] == "suspend"
    assert kinds[post + 2:] == []  # not a solution state, nothing to decide


def test_solved_events_emitted_at_fixpoint():
    p = Problem(
        variables=(("x", FiniteDomain.interval(0, 5)), ("y", FiniteDomain.interval(0, 5))),
        constraints=(("c1", ConstraintDecl.eqc("x", 3)),),
        labels=("y",),
    )
    res = solve(p)
    kinds = [e.type for e in res.events]
    assert "solved" in kinds
    assert validate(res.events).ok
    assert solutions_as_set(res) == oracle_solutions(p)


def test_strict_reduce_run_validates():
    res = solve(element_problem(), strict_reduce=True)
    assert res.solution_dicts() == [{"I": 1, "A": 2}]
    assert validate(res.events, os=make_semantics(strict_reduce=True)).ok
    # the default rule engine must refuse the strict-style trace: its extra
    # post events land while the constraint is still in the store
    assert not validate(res.events).ok


def test_event_limit_carries_partial_trace():
    with pytest.raises(SolveLimitError) as err:
        solve(element_problem(), SolveLimits(max_events=10))
    assert len(err.value.partial_events) == 10


def test_node_limit():
    p = Problem(variables=(("x", FiniteDomain.interval(0, 7)),), labels=("x",))
    with pytest.raises(SolveLimitError):
        solve(p, SolveLimits(max_nodes=1))


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_search_depth_is_not_bounded_by_the_python_stack():
    names = tuple(f"v{i}" for i in range(300))
    p = Problem(variables=tuple((v, FiniteDomain.of([1])) for v in names), labels=names)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        res = solve(p, SolveLimits(max_events=10_000, max_nodes=1_000))
    finally:
        sys.setrecursionlimit(old)
    assert res.solution_dicts() == [dict.fromkeys(names, 1)]


def test_problem_validation_errors():
    with pytest.raises(ProblemError):
        Problem(variables=(("x", FiniteDomain.of([1])),),
                constraints=(("c1", ConstraintDecl.eq("x", "zz")),))
    with pytest.raises(ProblemError):
        Problem(labels=("nope",))


def test_determinism():
    a = solve(element_problem())
    b = solve(element_problem())
    assert a.events == b.events and a.solutions == b.solutions


def test_oracle_equivalence_random_sample():
    rng = random.Random(2024)
    os = make_semantics()
    for _ in range(25):
        p = random_problem(rng)
        res = solve(p, CORPUS_LIMITS)
        assert solutions_as_set(res) == oracle_solutions(p)
        report = validate(res.events)
        assert report.ok, report.lines()
        assert check_faithful(os, [res.virtual]).ok


def test_solution_soundness_by_direct_evaluation():
    rng = random.Random(77)
    for _ in range(15):
        p = random_problem(rng)
        res = solve(p, CORPUS_LIMITS)
        for assignment in res.solution_dicts():
            for _, decl in p.constraints:
                assert constraint_holds(decl, assignment)
            for alts in p.branches:
                assert any(constraint_holds(alt, assignment) for alt in alts)
