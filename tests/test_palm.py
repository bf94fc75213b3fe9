"""Behaviour of the explanation-based machine and its repair search."""

import random

import pytest

from gentra.constraints import ConstraintDecl
from gentra.errors import StateInvariantError, TransitionError
from gentra.fdomain import DEFAULT_MX, EMPTY_DOMAIN, FiniteDomain, format_domain, full_domain, parse_domain
from gentra.palm import (
    PalmAssertionError,
    broken_values,
    check_palm_invariants,
    make_palm_semantics,
    palm_initial_state,
    palm_solve,
    wake_kind_of,
)
from gentra.semantics import Action, check_faithful
from gentra.solver import Problem, SolveLimits
from gentra.state import BOTTOM, FullState, SolverEvent, SolverState, solution_state

from support import ladder, oracle_solutions, random_problem, solutions_as_set

CORPUS_LIMITS = SolveLimits(max_events=200_000, max_nodes=20_000)
palm_apply = make_palm_semantics().apply


def element_problem():
    return Problem(
        variables=(("I", full_domain()), ("A", full_domain())),
        constraints=(("c0", ConstraintDecl.element("I", (2, 5, 7), "A")),),
        branches=((ConstraintDecl.eq("A", "I"), ConstraintDecl.eqc("A", 2)),),
        labels=("I", "A"),
    )


@pytest.fixture(scope="module")
def element_run():
    return palm_solve(element_problem())


def run_palm(actions, start=None):
    full = start if start is not None else palm_initial_state()
    for a in actions:
        full = palm_apply(full, a)
    return full


def scripted_state():
    return run_palm([
        Action.of("newVariable", variable="x", domain=FiniteDomain.interval(0, 5)),
        Action.of("newConstraint", constraint="c1", decl=ConstraintDecl.eqc("x", 3)),
        Action.of("post", constraint="c1"),
    ])


# rule-level behaviour


def test_reduce_records_explanations():
    full = scripted_state()
    removed = parse_domain("[0-2,4-5]")
    full = palm_apply(full, Action.of("reduce", constraint="c1", variable="x", removed=removed,
                                      generated=(), cause=BOTTOM, explanation=frozenset({"c1"})))
    assert full.solver.domain("x") == FiniteDomain.of([3])
    assert full.explanations == {"x": ((removed, frozenset({"c1"})),)}


def test_reduce_requires_nonempty_and_explained():
    full = scripted_state()
    with pytest.raises(TransitionError):
        palm_apply(full, Action.of("reduce", constraint="c1", variable="x",
                                   removed=FiniteDomain(()), generated=(), cause=BOTTOM,
                                   explanation=frozenset({"c1"})))
    with pytest.raises(TransitionError):  # explanation outside the store
        palm_apply(full, Action.of("reduce", constraint="c1", variable="x",
                                   removed=FiniteDomain.of([0]), generated=(), cause=BOTTOM,
                                   explanation=frozenset({"c9"})))


def test_reject_fires_exactly_on_empty_domain():
    full = scripted_state()
    with pytest.raises(TransitionError):
        palm_apply(full, Action.of("reject", constraint="c1", cause=BOTTOM))
    wiped = palm_apply(full, Action.of(
        "reduce", constraint="c1", variable="x", removed=FiniteDomain.interval(0, 5),
        generated=(), cause=BOTTOM, explanation=frozenset({"c1"})))
    rejected = palm_apply(wiped, Action.of("reject", constraint="c1", cause=BOTTOM))
    assert rejected.solver.rejected == {"c1"}
    assert rejected.solver.active == ()


def test_single_activation_discipline():
    full = run_palm([
        Action.of("newVariable", variable="x", domain=FiniteDomain.interval(0, 5)),
        Action.of("newConstraint", constraint="c1", decl=ConstraintDecl.eqc("x", 3)),
        Action.of("newConstraint", constraint="c2", decl=ConstraintDecl.eqc("x", 4)),
        Action.of("post", constraint="c1"),
    ])
    with pytest.raises(TransitionError):
        palm_apply(full, Action.of("post", constraint="c2"))


def test_restore_scans_broken_explanations():
    full = run_palm([
        Action.of("reduce", constraint="c1", variable="x", removed=parse_domain("[0-1]"),
                  generated=(), cause=BOTTOM, explanation=frozenset({"c1"})),
        Action.of("suspend", constraint="c1"),
    ], start=scripted_state())
    assert broken_values(full, "x").is_empty()
    relaxed = palm_apply(full, Action.of("deactivate", constraint="c1"))
    assert broken_values(relaxed, "x") == parse_domain("[0-1]")
    with pytest.raises(TransitionError):  # more than the broken values
        palm_apply(relaxed, Action.of("restore", variable="x", values=parse_domain("[0-2]")))
    restored = palm_apply(relaxed, Action.of("restore", variable="x", values=parse_domain("[0-1]")))
    assert restored.solver.domain("x") == FiniteDomain.interval(0, 5)
    assert restored.explanations == {}
    check_palm_invariants(restored)


def test_awake_and_schedule_queue_discipline():
    full = run_palm([
        Action.of("reduce", constraint="c1", variable="x", removed=parse_domain("[0-1]"),
                  generated=(SolverEvent("dom", "x", "c1"),), cause=BOTTOM,
                  explanation=frozenset({"c1"})),
        Action.of("suspend", constraint="c1"),
    ], start=scripted_state())
    ev = full.solver.pending[0]
    with pytest.raises(TransitionError):  # not selected yet
        palm_apply(full, Action.of("awake", constraint="c1", cause=ev))
    selected = palm_apply(full, Action.of("schedule", event=ev))
    assert selected.solver.current_event == ev and selected.solver.pending == ()
    woken = palm_apply(selected, Action.of("awake", constraint="c1", cause=ev))
    assert woken.solver.active == (("c1", ev),)
    # a second schedule overwrites the head
    full2 = run_palm([Action.of("suspend", constraint="c1")], start=woken)
    assert full2.solver.current_event == ev


def test_wake_kind_annotations():
    d = FiniteDomain.interval(0, 7)
    assert wake_kind_of(d, parse_domain("[0-2]")) == "max"
    assert wake_kind_of(d, parse_domain("[2-7]")) == "min"
    assert wake_kind_of(d, parse_domain("[3]")) == "val"
    assert wake_kind_of(d, FiniteDomain(())) == "empty"
    assert wake_kind_of(d, parse_domain("[0-2,4-7]")) == "dom"


# the worked problem, 0-based


def test_element_palm_solution(element_run):
    assert element_run.solution_dicts() == [{"I": 0, "A": 2}]


def test_element_initial_reduction(element_run):
    first = next(e for e in element_run.events if e.type == "reduce")
    assert first.variable == "I"
    assert format_domain(first.domain, DEFAULT_MX) == "[3-mx]"
    assert first.wake_kind == "max"
    after = next(s.state for s in element_run.virtual.events
                 if s.action.kind == "reduce")
    assert after.solver.domain("I") == parse_domain("[0-2]")


def test_element_reduces_carry_explanations(element_run):
    for ev in element_run.events:
        if ev.type == "reduce":
            assert ev.explanation, "palm reduces must carry explanations"
            assert ev.constraint in ev.explanation
        if ev.type in ("jumpTo", "solved"):
            raise AssertionError("the palm machine must not use jump or solved")


def test_element_repair_uses_deactivate_and_restore(element_run):
    kinds = [e.type for e in element_run.events]
    fail = kinds.index("failure")
    assert "deactivate" in kinds[fail:]
    assert "restore" in kinds[fail:]
    assert "jumpTo" not in kinds


def test_state_invariants_along_run(element_run):
    """What the palm rules make of every state they return: at most one
    active pair, and every explained value out of its variable's domain."""
    rng = random.Random(11)
    problems = [ladder(4)] + [random_problem(rng) for _ in range(20)]
    runs = [element_run] + [palm_solve(p, CORPUS_LIMITS) for p in problems]
    for run in runs:
        for full in [run.virtual.initial_state] + [ev.state for ev in run.virtual.events]:
            s = full.solver
            assert len(s.active) <= 1
            for var, entries in full.explanations.items():
                for vals, _expl in entries:
                    assert vals.disjoint(s.domain(var))


def test_a_repair_that_restores_nothing_is_caught(monkeypatch):
    import gentra.palm as palm

    monkeypatch.setattr(palm, "broken_values", lambda full, var: EMPTY_DOMAIN)
    with pytest.raises(PalmAssertionError, match="mentions relaxed constraints") as caught:
        palm_solve(element_problem())
    # the repair after the first failure is a lone deactivate of c0
    assert (caught.value.prop, caught.value.index) == ("state-invariant", 35)


def test_both_invariant_checks_catch_corrupted_tables():
    reduced = run_palm([
        Action.of("reduce", constraint="c1", variable="x", removed=parse_domain("[0-1]"),
                  generated=(), cause=BOTTOM, explanation=frozenset({"c1"})),
        Action.of("suspend", constraint="c1"),
    ], start=scripted_state())
    # after c1 is relaxed and x repaired, a removal explained by c1
    repaired = run_palm([
        Action.of("deactivate", constraint="c1"),
        Action.of("restore", variable="x", values=parse_domain("[0-1]")),
    ], start=reduced)
    stale = repaired.with_solver(domains={**repaired.solver.domains, "x": parse_domain("[0-4]")})._replace(
        explanations={"x": ((FiniteDomain.of([5]), frozenset({"c1"})),)})
    # c1 relaxed, x not yet repaired
    relaxed = palm_apply(reduced, Action.of("deactivate", constraint="c1"))
    check_palm_invariants(reduced)
    check_palm_invariants(repaired)
    for corrupted in (relaxed, stale):
        with pytest.raises(StateInvariantError, match="mentions relaxed constraints"):
            check_palm_invariants(corrupted)


def test_snapshots_are_generic_and_the_map_shares_them(element_run):
    from gentra.abstraction import map_palm_state
    states = [element_run.virtual.initial_state] + [ev.state for ev in element_run.virtual.events]
    for s in states:
        for n in s.tree.nodes:
            assert type(s.tree.snapshot(n)) is SolverState
        mapped = map_palm_state(s)
        assert mapped.solver is s.solver and mapped.tree is s.tree


def test_palm_faithfulness(element_run):
    assert check_faithful(make_palm_semantics(), [element_run.virtual]).ok


def test_palm_dual_faithfulness(element_run):
    from gentra.semantics import extract, reconstruct
    os = make_palm_semantics()
    actual = extract(os, element_run.virtual)
    assert extract(os, reconstruct(os, actual)) == actual


def test_mapped_guards_hold_on_palm_states(element_run):
    from gentra.abstraction import palm_mapping, map_palm_state
    from gentra.gentra4cp import GUARD_NAMES, check_guards
    from gentra.trace import Trace, VirtualPayload
    m = palm_mapping()
    mapped = Trace(map_palm_state(element_run.virtual.initial_state),
                   tuple(VirtualPayload(m.carry_action(ev.action), map_palm_state(ev.state))
                         for ev in element_run.virtual.events))
    report = check_guards(mapped, guards=GUARD_NAMES)
    assert report.guards == GUARD_NAMES
    assert report.ok, report.lines()


def test_run_without_deactivation_never_restores():
    p = Problem(variables=(("x", FiniteDomain.of([3])),),
                constraints=(("c1", ConstraintDecl.eqc("x", 3)),))
    res = palm_solve(p)
    kinds = [e.type for e in res.events]
    assert "deactivate" not in kinds and "restore" not in kinds
    assert res.solution_dicts() == [{"x": 3}]


def test_unsatisfiable_problem_fails_without_repair():
    p = Problem(variables=(("x", FiniteDomain.of([1, 2])),),
                constraints=(("c1", ConstraintDecl.eqc("x", 9)),), labels=("x",))
    res = palm_solve(p)
    assert res.solutions == ()
    kinds = [e.type for e in res.events]
    assert kinds[-1] == "failure"
    assert "restore" not in kinds  # nothing relaxable at the root


def test_solution_state_matches_generic_reading(element_run):
    final = element_run.virtual.events[-1].state
    # after the run the machine has relaxed its way out of the last leaf
    assert isinstance(final, FullState)
    seen_solution = any(s.action.kind == "solution" for s in element_run.virtual.events)
    assert seen_solution
    for stepped in element_run.virtual.events:
        if stepped.action.kind == "solution":
            pre = solution_state  # the rule enforced it; re-check the predicate
            node = stepped.action.get("node")
            snap = stepped.state.tree.snapshot(node)
            assert pre(snap)


def test_random_palm_runs_match_oracle():
    rng = random.Random(4242)
    for _ in range(15):
        p = random_problem(rng)
        res = palm_solve(p, CORPUS_LIMITS)
        assert solutions_as_set(res) == oracle_solutions(p.rebased(0))
