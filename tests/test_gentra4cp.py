"""Rule-level and replay-level tests of the trace format semantics."""

import dataclasses

import pytest

from gentra import gentra4cp, palm
from gentra.abstraction import palm_profile, project
from gentra.constraints import ConstraintDecl
from gentra.errors import ReconstructionError, StateInvariantError, TransitionError
from gentra.fdomain import FiniteDomain, full_domain, parse_domain
from gentra.gentra4cp import (
    GUARD_NAMES,
    GenericEvent,
    check_guards,
    extract_event,
    make_semantics,
    shape_error,
    validate,
)
from gentra.semantics import Action, check_faithful, extract, reconstruct, replay
from gentra.solver import Problem, solve
from gentra.state import BOTTOM, SolverEvent, SolverState, initial_state, store
from gentra.trace import ActualPayload, Trace, VirtualPayload, all_prefixes

from support import RuleCalls, ladder
from test_golden_traces import GOLDEN, RUNS, problems

D05 = FiniteDomain.interval(0, 5)
apply = make_semantics().apply


def run_actions(actions, start=None, strict_reduce=False):
    full = start if start is not None else initial_state()
    for a in actions:
        full = make_semantics(strict_reduce=strict_reduce).apply(full, a)
    return full


def element_problem():
    return Problem(
        variables=(("I", full_domain()), ("A", full_domain())),
        constraints=(("c1", ConstraintDecl.element("I", (2, 5, 7), "A")),),
        branches=((ConstraintDecl.eq("A", "I"), ConstraintDecl.eqc("A", 2)),),
        labels=("I", "A"),
    )


def base_state():
    """Two variables and two declared constraints, nothing posted."""
    return run_actions([
        Action.of("newVariable", variable="x", domain=D05),
        Action.of("newVariable", variable="y", domain=D05),
        Action.of("newConstraint", constraint="c1", decl=ConstraintDecl.eq("x", "y")),
        Action.of("newConstraint", constraint="c2", decl=ConstraintDecl.eqc("y", 3)),
    ])


# individual rules


def test_new_variable_adds_domain():
    full = run_actions([Action.of("newVariable", variable="v1", domain=full_domain())])
    assert full.solver.variables == ("v1",)
    assert full.solver.domain("v1") == full_domain()
    assert full.solver.initial_domain("v1") == full_domain()
    with pytest.raises(TransitionError):
        apply(full, Action.of("newVariable", variable="v1", domain=D05))


def test_new_constraint_requires_declared_variables():
    full = run_actions([Action.of("newVariable", variable="x", domain=D05)])
    with pytest.raises(TransitionError):
        apply(full, Action.of("newConstraint", constraint="c1", decl=ConstraintDecl.eq("x", "zz")))


def test_post_and_store_partition():
    full = base_state()
    full = apply(full, Action.of("post", constraint="c1"))
    assert full.solver.active == (("c1", BOTTOM),)
    assert store(full.solver) == {"c1"}
    with pytest.raises(TransitionError):
        apply(full, Action.of("post", constraint="c1"))  # already in the store
    with pytest.raises(TransitionError):
        apply(full, Action.of("post", constraint="c9"))  # not declared


def test_store_examples():
    s = SolverState(
        variables=("x",),
        constraints=(("c1", None), ("c4", None)),
        domains=(("x", D05),),
        initial_domains=(("x", D05),),
        active=(("c1", BOTTOM),),
        sleeping=frozenset({"c4"}),
    )
    assert store(s) == {"c1", "c4"}
    assert store(SolverState()) == frozenset()
    broken = SolverState(constraints=(("c1", None),),
                         sleeping=frozenset({"c1"}), rejected=frozenset({"c1"}))
    with pytest.raises(StateInvariantError):
        store(broken)


def test_sibling_successors_keep_their_own_nodes_and_declarations():
    full = base_state()
    left = apply(full, Action.of("newChild", node=1))
    right = apply(full, Action.of("newChild", node=2))
    assert left.tree.nodes == (0, 1) and not left.tree.has_node(2)
    assert right.tree.nodes == (0, 2) and not right.tree.has_node(1)
    assert left != right
    # applying the first action again shares the stored node; the sibling forked
    again = apply(full, Action.of("newChild", node=1))
    assert again == left and again.tree.entries._store is left.tree.entries._store
    assert right.tree.entries._store is not left.tree.entries._store
    # a forked store equals a shared one with the same content
    fresh = base_state()
    apply(fresh, Action.of("newChild", node=2))
    forked = apply(fresh, Action.of("newChild", node=1))
    assert forked.tree.entries._store is not left.tree.entries._store
    assert forked == left and forked.tree.snapshots == left.tree.snapshots
    declared = [apply(full, Action.of("newConstraint", constraint=c, decl=None)) for c in ("c8", "c9")]
    assert declared[0].solver.is_declared("c8") and not declared[0].solver.is_declared("c9")
    assert declared[1].solver.is_declared("c9") and not declared[1].solver.is_declared("c8")
    assert declared[0] != declared[1]
    # every initial state starts a declaration store of its own
    first = apply(initial_state(), Action.of("newConstraint", constraint="c8", decl=None)).solver
    second, bare = initial_state().solver, SolverState()
    assert len({id(s.constraints._store) for s in (first, second, bare)}) == 3
    assert not second.is_declared("c8") and not bare.is_declared("c8")


def test_reduce_example_values():
    full = run_actions([
        Action.of("newVariable", variable="v1", domain=full_domain()),
        Action.of("newVariable", variable="v2", domain=full_domain()),
        Action.of("newConstraint", constraint="c1",
                  decl=ConstraintDecl.element("v1", (2, 5, 7), "v2")),
        Action.of("post", constraint="c1"),
    ])
    removed = parse_domain("[0,4-mx]")
    full2 = apply(full, Action.of("reduce", constraint="c1", variable="v1",
                                  removed=removed, generated=(), cause=BOTTOM))
    assert full2.solver.domain("v1") == parse_domain("[1-3]")


def test_reduce_requires_active_pair_and_subset():
    full = base_state()
    with pytest.raises(TransitionError):
        apply(full, Action.of("reduce", constraint="c1", variable="x",
                              removed=FiniteDomain.of([0]), generated=(), cause=BOTTOM))
    full = apply(full, Action.of("post", constraint="c1"))
    with pytest.raises(TransitionError):
        apply(full, Action.of("reduce", constraint="c1", variable="x",
                              removed=FiniteDomain.of([9]), generated=(), cause=BOTTOM))
    with pytest.raises(TransitionError):  # y not reduced by a (c1, bot) pair with wrong cause
        apply(full, Action.of("reduce", constraint="c1", variable="x",
                              removed=FiniteDomain.of([0]), generated=(),
                              cause=SolverEvent("dom", "x")))


def test_reduce_strict_mode_deactivates():
    full = apply(base_state(), Action.of("post", constraint="c1"))
    act = Action.of("reduce", constraint="c1", variable="x",
                    removed=FiniteDomain.of([0]), generated=(), cause=BOTTOM)
    default = apply(full, act)
    assert default.solver.active == (("c1", BOTTOM),)
    strict = make_semantics(strict_reduce=True).apply(full, act)
    assert strict.solver.active == ()


def test_suspend_solved_reject():
    full = apply(base_state(), Action.of("post", constraint="c2"))
    suspended = apply(full, Action.of("suspend", constraint="c2"))
    assert suspended.solver.sleeping == {"c2"}
    # entailment required for solved
    with pytest.raises(TransitionError):
        apply(full, Action.of("solved", constraint="c2"))
    fixed = apply(full, Action.of("reduce", constraint="c2", variable="y",
                                  removed=parse_domain("[0-2,4-5]"), generated=(), cause=BOTTOM))
    solved = apply(fixed, Action.of("solved", constraint="c2"))
    assert solved.solver.solved == {"c2"}
    # falsity required for reject
    with pytest.raises(TransitionError):
        apply(full, Action.of("reject", constraint="c2", cause=BOTTOM))
    emptied = apply(full, Action.of("reduce", constraint="c2", variable="y",
                                    removed=D05, generated=(), cause=BOTTOM))
    rejected = apply(emptied, Action.of("reject", constraint="c2", cause=BOTTOM))
    assert rejected.solver.rejected == {"c2"}


def test_restore_conditions_and_union():
    full = apply(base_state(), Action.of("post", constraint="c1"))
    full = apply(full, Action.of("reduce", constraint="c1", variable="x",
                                 removed=FiniteDomain.of([0, 1]), generated=(), cause=BOTTOM))
    back = apply(full, Action.of("restore", variable="x", values=FiniteDomain.of([0, 1])))
    assert back.solver.domain("x") == D05
    with pytest.raises(TransitionError):  # not disjoint from the current domain
        apply(full, Action.of("restore", variable="x", values=FiniteDomain.of([1, 2])))
    with pytest.raises(TransitionError):  # outside the initial domain
        apply(full, Action.of("restore", variable="x", values=FiniteDomain.of([9])))


def test_awake_and_schedule_rules():
    full = run_actions([
        Action.of("post", constraint="c1"),
        Action.of("suspend", constraint="c1"),
    ], start=base_state())
    ev = SolverEvent("dom", "x", "c9")
    full = apply(full, Action.of("restore", variable="x", values=FiniteDomain(()), generated=(ev,)))
    assert ev in full.solver.pending
    with pytest.raises(TransitionError):  # not scheduled yet
        apply(full, Action.of("awake", constraint="c1", cause=ev))
    sched = apply(full, Action.of("schedule", event=ev, witness="c1"))
    assert sched.solver.current_event == ev and ev not in sched.solver.pending
    woken = apply(sched, Action.of("awake", constraint="c1", cause=ev))
    assert woken.solver.active == (("c1", ev),) and "c1" not in woken.solver.sleeping
    # waking with bot is always allowed for a sleeping constraint
    assert apply(sched, Action.of("awake", constraint="c1", cause=BOTTOM)).solver.active


def test_schedule_requires_watcher():
    full = base_state()
    ev = SolverEvent("dom", "x")
    full = apply(full, Action.of("restore", variable="x", values=FiniteDomain(()), generated=(ev,)))
    with pytest.raises(TransitionError):
        apply(full, Action.of("schedule", event=ev))  # nobody sleeps


def test_node_rules_and_jump():
    full = base_state()
    child = apply(full, Action.of("newChild", node=1))
    assert child.tree.current == 1
    assert child.tree.depth(1) == 1
    assert child.tree.snapshot(1) == full.solver
    with pytest.raises(TransitionError):
        apply(child, Action.of("newChild", node=1))  # node exists
    with pytest.raises(TransitionError):
        apply(child, Action.of("jumpTo", node=1))  # already current
    # mutate the solver state, move to another node, then jump back
    moved = run_actions([
        Action.of("post", constraint="c1"),
        Action.of("reduce", constraint="c1", variable="x",
                  removed=FiniteDomain.of([0]), generated=(), cause=BOTTOM),
        Action.of("suspend", constraint="c1"),
        Action.of("newChild", node=2),
    ], start=child)
    assert moved.tree.current == 2
    back = apply(moved, Action.of("jumpTo", node=1))
    assert back.solver == full.solver
    assert back.tree.current == 1
    with pytest.raises(TransitionError):
        apply(moved, Action.of("jumpTo", node=7))


def test_solution_failure_predicates():
    full = base_state()
    with pytest.raises(TransitionError):
        apply(full, Action.of("failure", node=5))  # nothing rejected
    posted = apply(full, Action.of("post", constraint="c2"))
    with pytest.raises(TransitionError):
        apply(posted, Action.of("solution", node=5))  # y not fixed


def test_deactivate_removes_from_any_part():
    full = run_actions([
        Action.of("post", constraint="c1"),
        Action.of("suspend", constraint="c1"),
    ], start=base_state())
    gone = apply(full, Action.of("deactivate", constraint="c1"))
    assert store(gone.solver) == frozenset()
    with pytest.raises(TransitionError):
        apply(gone, Action.of("deactivate", constraint="c1"))


# extraction and reconstruction


def test_extract_reduce_record_fields():
    full = apply(base_state(), Action.of("post", constraint="c1"))
    gen = (SolverEvent("dom", "x", "c1"),)
    act = Action.of("reduce", constraint="c1", variable="x",
                    removed=FiniteDomain.of([0]), generated=gen, cause=BOTTOM)
    new = apply(full, act)
    record = extract_event(full, act, new)
    assert record.type == "reduce"
    assert record.constraint == "c1" and record.variable == "x"
    assert record.generated == gen
    assert record.domain == FiniteDomain.of([0])
    assert record.cause == BOTTOM


def test_extract_node_and_identity_records():
    full = base_state()
    act = Action.of("newChild", node=1)
    new = apply(full, act)
    record = extract_event(full, act, new)
    assert (record.type, record.node, record.depth) == ("newChild", 1, 1)
    posted = apply(full, Action.of("post", constraint="c1"))
    act = Action.of("deactivate", constraint="c1")
    record = extract_event(posted, act, apply(posted, act))
    assert (record.type, record.constraint) == ("deactivate", "c1")


def test_reconstruct_new_constraint_and_awake():
    full = run_actions([Action.of("newVariable", variable="x", domain=D05)])
    action, new = replay(make_semantics(), full, GenericEvent(
        "newConstraint", 0, constraint="c1", decl=ConstraintDecl.eqc("x", 3)))
    assert new.solver.is_declared("c1")
    full = run_actions([
        Action.of("post", constraint="c1"),
        Action.of("suspend", constraint="c1"),
    ], start=new)
    action, woken = replay(make_semantics(), full, GenericEvent("awake", 0, constraint="c1", cause=BOTTOM))
    assert woken.solver.active == (("c1", BOTTOM),)
    assert "c1" not in woken.solver.sleeping


def test_reconstruct_post_in_store_fails():
    full = apply(base_state(), Action.of("post", constraint="c1"))
    with pytest.raises(ReconstructionError):
        replay(make_semantics(), full, GenericEvent("post", 0, constraint="c1"))


def test_reconstruct_strict_reduce_removes_pair():
    full = apply(base_state(), Action.of("post", constraint="c1"))
    record = GenericEvent("reduce", 0, constraint="c1", variable="x",
                          generated=(), domain=FiniteDomain.of([0]), cause=BOTTOM)
    _, default = replay(make_semantics(), full, record)
    assert default.solver.active
    _, strict = replay(make_semantics(strict_reduce=True), full, record)
    assert strict.solver.active == ()
    assert strict.solver.domain("x") == parse_domain("[1-5]")
    assert strict.solver.pending == ()


# run-level invariants on the worked example


@pytest.fixture(scope="module")
def element_run():
    return solve(element_problem())


def test_validate_empty_and_self_generated(element_run):
    assert validate([]).ok
    report = validate(element_run.events)
    assert report.ok and report.error is None
    assert report.guard_report.ok


def test_validate_flags_corrupted_reduce(element_run):
    events = list(element_run.events)
    # pick a reduce whose variable is already narrowed, so that claiming the
    # full universe as removed values breaks the subset condition right there
    prev = initial_state()
    idx = None
    for i, stepped in enumerate(element_run.virtual.events):
        if (stepped.action.kind == "reduce"
                and prev.solver.domain(stepped.action.get("variable")) != full_domain()):
            idx = i
            break
        prev = stepped.state
    assert idx is not None
    bad = parse_domain("[0-mx]")
    events[idx] = GenericEvent("reduce", events[idx].depth, constraint=events[idx].constraint,
                               variable=events[idx].variable, domain=bad,
                               generated=events[idx].generated, cause=events[idx].cause)
    report = validate(events)
    assert not report.ok
    assert report.error.index == idx
    assert report.error.rule == "reduce"


@pytest.mark.parametrize("machine", ["fd", "palm"])
def test_replay_checks_each_record_depth_after_its_rule(element_run, machine):
    if machine == "fd":
        os, events = make_semantics(), list(element_run.events)
    else:
        os, events = palm.make_palm_semantics(), list(palm.palm_solve(element_problem()).events)
    # the first reduce of a variable that an earlier reduce narrowed
    reduced = {}
    for i, ev in enumerate(events):
        if ev.type == "reduce":
            if ev.variable in reduced:
                break
            reduced[ev.variable] = ev.domain
    events[i] = events[i]._replace(depth=events[i].depth + 1)
    actual = Trace(initial_state(), tuple(ActualPayload(e) for e in events))
    with pytest.raises(ReconstructionError) as exc:
        reconstruct(os, actual)
    assert (exc.value.rule, exc.value.index) == ("reduce", i)
    assert exc.value.condition == f"depth {events[i].depth} != current node depth {events[i].depth - 1}"
    # a record that also breaks its rule reports the rule first
    events[i] = events[i]._replace(domain=events[i].domain.union(reduced[events[i].variable]))
    with pytest.raises(ReconstructionError) as exc:
        reconstruct(os, Trace(initial_state(), tuple(ActualPayload(e) for e in events)))
    assert exc.value.condition == "removed values are not all in the domain"
    if machine == "fd":
        report = validate(events)
        assert (report.error.index, report.error.condition) == (i, exc.value.condition)


def test_depth_law(element_run):
    for record, stepped in zip(element_run.events, element_run.virtual.events):
        tree = stepped.state.tree
        assert record.depth == tree.depth(tree.current)
        if record.type == "newChild":
            parent_depth = tree.depth(tree.current) - 1
            assert parent_depth >= 0


def test_new_child_increments_depth(element_run):
    prev = initial_state()
    for stepped in element_run.virtual.events:
        if stepped.action.kind in ("newChild", "solution", "failure"):
            node = stepped.action.get("node")
            assert stepped.state.tree.depth(node) == prev.tree.depth(prev.tree.current) + 1
        prev = stepped.state


def test_partition_invariant_after_every_step(element_run):
    for stepped in element_run.virtual.events:
        store(stepped.state.solver)  # raises on violation


def test_monotone_reduction_between_jumps(element_run):
    prev = initial_state()
    for stepped in element_run.virtual.events:
        if stepped.action.kind not in ("restore", "jumpTo", "newVariable"):
            for var, dom in stepped.state.solver.domains.items():
                assert dom.issubset(prev.solver.domain(var))
        prev = stepped.state


def test_jump_restores_snapshot_exactly(element_run):
    prev = initial_state()
    seen = False
    for stepped in element_run.virtual.events:
        if stepped.action.kind == "jumpTo":
            node = stepped.action.get("node")
            assert stepped.state.solver == prev.tree.snapshot(node)
            # every domain equals its snapshot value after the jump
            for var, dom in stepped.state.solver.domains.items():
                assert dom == prev.tree.snapshot(node).domain(var)
            seen = True
        prev = stepped.state
    assert seen


def test_stepwise_extract_reconstruct_inverse(element_run):
    prev = initial_state()
    for stepped in element_run.virtual.events:
        record = extract_event(prev, stepped.action, stepped.state)
        action, again = replay(make_semantics(), prev, record)
        assert action == stepped.action
        assert again == stepped.state
        prev = stepped.state


@pytest.mark.parametrize("machine", ["fd", "palm"])
def test_replay_applies_each_rule_once(monkeypatch, machine):
    # replaying a record reads its action and applies it: one rule
    # application per record, with no second application to confirm the step
    # (the palm overrides call the generic rules, so only the machine's own
    # table is counted)
    if machine == "fd":
        os, start, events = make_semantics(), initial_state(), solve(ladder(4)).events
        rules = gentra4cp.RULES
    else:
        os, start, events = palm.make_palm_semantics(), palm.palm_initial_state(), palm.palm_solve(ladder(4)).events
        rules = palm.PALM_RULES
    counter = RuleCalls(monkeypatch, rules)
    virtual = reconstruct(os, Trace(start, tuple(ActualPayload(e) for e in events)))
    assert virtual.size == len(events)
    assert counter.calls == len(events)


def test_faithfulness_on_element_run(element_run):
    assert check_faithful(make_semantics(), [element_run.virtual]).ok


def test_dual_faithfulness_on_emitted_trace(element_run):
    from gentra.semantics import extract, reconstruct
    os = make_semantics()
    actual = extract(os, element_run.virtual)
    assert extract(os, reconstruct(os, actual)) == actual


def test_locality_of_extraction(element_run):
    os = make_semantics()
    j = 5
    prefix = Trace(initial_state(), element_run.virtual.events[:j + 1])
    # replace the step at j with a different but valid transition
    base = element_run.virtual.events[j - 1].state
    alt_action = Action.of("newVariable", variable="zz", domain=D05)
    alt_state = apply(base, alt_action)
    mutated = Trace(initial_state(),
                    element_run.virtual.events[:j] + (VirtualPayload(alt_action, alt_state),))
    from gentra.semantics import extract
    a1 = extract(os, prefix)
    a2 = extract(os, mutated)
    assert a1.events[:j] == a2.events[:j]


# guards


def guard_scenario_events():
    """Two posted constraints; one rejected; the other keeps reducing."""
    return [
        GenericEvent("newVariable", 0, variable="x", domain=D05),
        GenericEvent("newVariable", 0, variable="y", domain=D05),
        GenericEvent("newConstraint", 0, constraint="c1", decl=ConstraintDecl.eqc("x", 7)),
        GenericEvent("newConstraint", 0, constraint="c2", decl=ConstraintDecl.eqc("y", 3)),
        GenericEvent("post", 0, constraint="c1"),
        GenericEvent("post", 0, constraint="c2"),
        GenericEvent("reject", 0, constraint="c1", cause=BOTTOM),
        GenericEvent("reduce", 0, constraint="c2", variable="y",
                     generated=(), domain=parse_domain("[0-2,4-5]"), cause=BOTTOM),
    ]


def test_guard_g3_flags_reduce_under_rejection():
    report = validate(guard_scenario_events())
    assert report.error is None  # replay itself is fine
    assert not report.ok
    violations = report.guard_report.violations
    assert any(v.guard == "g3" and v.index == 7 for v in violations)


def test_guard_g2_failure_needs_rejection(element_run):
    report = check_guards(element_run.virtual)
    assert report.ok
    # the run contains a failure event; its pre-state must be a failure state
    idx = [i for i, ev in enumerate(element_run.events) if ev.type == "failure"]
    assert idx, "expected a failure event in the element run"
    pre = element_run.virtual.events[idx[0] - 1].state
    assert pre.solver.rejected


def test_guards_g4_g5_palm_profile_only():
    events = guard_scenario_events()[:6]
    report = validate(events, guards=("g1", "g2", "g3", "g4", "g5"))
    assert report.ok  # no awake/schedule while anything is active here
    # names of deleted guards are ignored; the report lists what it evaluated
    assert report.guard_report.guards == ("g3", "g4", "g5")
    # a second post while c1 is active violates nothing generic, but an
    # awake-style discipline check would reject an awake with a busy store


def _records(actions):
    """The records the generic machine emits for ``actions`` from the initial state."""
    os = make_semantics()
    full, records = initial_state(), []
    for act in actions:
        new = os.apply(full, act)
        records.append(os.extract_local(full, act, new))
        full = new
    return records


def _sleeping_c2_then_active_c1():
    """c2 asleep, then c1 posted and active, both on x."""
    return [
        Action.of("newVariable", variable="x", domain=D05),
        Action.of("newConstraint", constraint="c1", decl=ConstraintDecl.eqc("x", 3)),
        Action.of("newConstraint", constraint="c2", decl=ConstraintDecl.eqc("x", 3)),
        Action.of("post", constraint="c2"),
        Action.of("suspend", constraint="c2"),
        Action.of("post", constraint="c1"),
    ]


def _guard_violations(actions):
    report = validate(_records(actions), os=project(make_semantics(), palm_profile()), guards=GUARD_NAMES)
    assert report.error is None  # the trace replays; only the guards object
    return [(v.guard, v.index) for v in report.guard_report.violations]


def test_guard_g4_flags_awake_while_a_constraint_is_active():
    wake = Action.of("awake", constraint="c2", cause=BOTTOM)
    assert _guard_violations(_sleeping_c2_then_active_c1() + [wake]) == [("g4", 6)]


def test_guard_g5_flags_schedule_while_a_constraint_is_active():
    dom_x = SolverEvent("dom", "x", "c1")
    actions = _sleeping_c2_then_active_c1() + [
        Action.of("reduce", constraint="c1", variable="x", removed=parse_domain("[0-2,4-5]"),
                  generated=(dom_x,), cause=BOTTOM),
        Action.of("schedule", event=dom_x),
    ]
    assert _guard_violations(actions) == [("g5", 7)]


# record shapes

# the attributes of each event type, required and optional, as the format
# defines them; every other attribute below is foreign to the type
RECORD_SHAPES = {
    "newVariable": (("variable", "domain"), ("var_alias",)),
    "newConstraint": (("constraint",), ("decl", "decl_text")),
    "post": (("constraint",), ()),
    "newChild": (("node",), ()),
    "jumpTo": (("node", "node2"), ()),
    "solution": (("node",), ()),
    "failure": (("node",), ()),
    "deactivate": (("constraint",), ()),
    "restore": (("variable", "domain"), ("generated",)),
    "reduce": (("constraint", "variable", "generated", "domain", "cause"), ()),
    "suspend": (("constraint",), ()),
    "solved": (("constraint",), ()),
    "reject": (("constraint", "cause"), ()),
    "awake": (("constraint", "cause"), ()),
    "schedule": (("event",), ("constraint",)),
}
# one value per checked attribute, in the order a shape check reports them
ATTRIBUTE_VALUES = {
    "constraint": "c1",
    "variable": "x",
    "node": 1,
    "node2": 0,
    "domain": D05,
    "generated": (),
    "cause": BOTTOM,
    "event": SolverEvent("dom", "x"),
    "decl": ConstraintDecl.eqc("x", 3),
    "decl_text": "eqc(x,3)",
}


@pytest.mark.parametrize("kind", sorted(RECORD_SHAPES))
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_shape_error_names_each_foreign_and_missing_attribute(kind, strict):
    required, optional = RECORD_SHAPES[kind]
    values = {**ATTRIBUTE_VALUES, "var_alias": "source_x"}  # an extra, never foreign
    whole = {name: values[name] for name in required + optional}

    def error(**changes):
        return shape_error(GenericEvent(kind, 0, **{**whole, **changes}), strict)

    assert error() is None
    foreign = [name for name in ATTRIBUTE_VALUES if name not in whole]
    for name in foreign:
        assert error(**{name: values[name]}) == f"attribute {name!r} does not belong to {kind}"
    # the first foreign attribute is named, and before any missing one
    crowded = error(**{name: values[name] for name in foreign}, **dict.fromkeys(required))
    assert crowded == f"attribute {foreign[0]!r} does not belong to {kind}"
    for name in required:
        assert error(**{name: None}) == (f"missing required attribute {name!r}" if strict else None)
    for name in optional:
        assert error(**{name: None}) is None
    assert shape_error(GenericEvent("frobnicate", 0), strict) == "unknown event type 'frobnicate'"


@pytest.mark.parametrize("kind", sorted(RECORD_SHAPES))
def test_read_record_refuses_a_foreign_attribute_with_the_shape_error_text(kind):
    # read_record refuses each foreign attribute with shape_error's text
    required, optional = RECORD_SHAPES[kind]
    values = {**ATTRIBUTE_VALUES, "var_alias": "source_x"}
    whole = {name: values[name] for name in required + optional}
    for name in ATTRIBUTE_VALUES:
        if name in whole:
            continue
        ev = GenericEvent(kind, 0, **{**whole, name: ATTRIBUTE_VALUES[name]})
        with pytest.raises(ReconstructionError) as exc:
            gentra4cp.read_record(initial_state(), ev)
        assert (exc.value.rule, exc.value.condition) == (kind, shape_error(ev, strict=False))
    with pytest.raises(ReconstructionError) as exc:
        gentra4cp.read_record(initial_state(), GenericEvent("frobnicate", 0))
    assert exc.value.condition == "unknown event type 'frobnicate'"


def test_records_and_actions_stay_immutable():
    ev = GenericEvent("post", 0, constraint="c1")
    action = Action.of("post", constraint="c1")
    with pytest.raises(AttributeError):
        ev.constraint = "c2"
    with pytest.raises(AttributeError):
        action.kind = "suspend"
    assert ev == GenericEvent("post", 0, constraint="c1")
    assert action == Action.of("post", constraint="c1")


@pytest.mark.parametrize("level", ["solver", "tree", "full"])
def test_states_keep_the_copy_contract(level):
    # each field of an early state of a palm run replaced by the last state's
    virtual = palm.palm_solve(element_problem()).virtual
    state, other = virtual.events[20].state, virtual.events[-1].state
    if level != "full":
        state, other = getattr(state, level), getattr(other, level)
    cls = type(state)
    for name in cls._fields:
        value = getattr(other, name)
        replaced, built = state._replace(**{name: value}), cls(**{**state._asdict(), name: value})
        assert type(replaced) is cls
        assert replaced == built and hash(replaced) == hash(built)
        assert getattr(replaced, name) is value
        assert all(getattr(replaced, kept) is getattr(state, kept) for kept in cls._fields if kept != name)
    assert state._replace() == state
    for changes in ({"bogus": 1}, {cls._fields[0]: getattr(other, cls._fields[0]), "bogus": 1}):
        with pytest.raises(ValueError, match=r"unexpected field names: \['bogus'\]"):
            state._replace(**changes)


@pytest.mark.parametrize("name,run", sorted(GOLDEN))
def test_readers_build_actions_in_name_order(name, run):
    # a reader-built action is the one ``Action.of`` builds from its
    # arguments, and the one the solver applied: faithfulness compares them
    # (strict runs read like the others: the readers do not depend on it)
    dialect, result = RUNS[run](problems()[name])
    read = (palm.make_palm_semantics() if dialect == "palm" else make_semantics()).read_action
    state, explained = result.virtual.initial_state, 0
    for ev, record in zip(result.virtual.events, result.events):
        action = read(state, record)
        assert action == Action.of(action.kind, **dict(action.args))
        assert action == ev.action
        explained += action.get("explanation") is not None
        state = ev.state
    assert explained == (sum(ev.type == "reduce" for ev in result.events) if dialect == "palm" else 0)


# traces their own semantics built, and the shared semantics bundles


def _replayed(run):
    return reconstruct(make_semantics(), Trace(initial_state(), tuple(ActualPayload(e) for e in run.events)))


def _state_swapped(t, j):
    """The steps of ``t`` with step ``j`` reaching step ``j + 1``'s state."""
    events = list(t.events)
    events[j] = VirtualPayload(events[j].action, events[j + 1].state)
    return tuple(events)


def _transition_error(os, t):
    with pytest.raises(TransitionError) as exc:
        extract(os, t)
    assert str(exc.value).startswith(f"{os.name}: step is not a ")
    return exc.value.index


def test_extract_checks_a_caller_built_copy_of_a_replayed_trace(element_run):
    os = make_semantics()
    t = _replayed(element_run)
    assert t.applied_by is os
    for j in (0, 7, t.size - 2):
        copy = Trace(t.initial_state, _state_swapped(t, j))
        assert copy.applied_by is None
        assert _transition_error(os, copy) == j


def test_extract_checks_a_replayed_trace_under_another_semantics(element_run):
    os = make_semantics()
    t = _replayed(element_run)
    # the strict reduce rule also drops the active pair, so the first reduce
    # of a default-rule run is not one of its transitions
    first_reduce = next(i for i, ev in enumerate(t.events) if ev.action.kind == "reduce")
    assert _transition_error(make_semantics(strict_reduce=True), t) == first_reduce
    # a copy applies the same rules, but trusts no step the original built
    copy = dataclasses.replace(os)
    assert copy is not os
    assert extract(copy, t) == extract(os, t)
    marked = Trace.built_by(os, t.initial_state, _state_swapped(t, 7))
    assert _transition_error(copy, marked) == 7


def test_a_replayed_trace_equals_and_hashes_as_a_caller_built_one(element_run):
    t = _replayed(element_run)
    copy = Trace(t.initial_state, t.events)
    assert t == copy and hash(t) == hash(copy) and repr(t) == repr(copy)
    assert t.prefix(5) == copy.prefix(5) and t.prefix(5).applied_by is t.applied_by
    # a trace with other steps is not one the semantics built
    edited = dataclasses.replace(t, events=_state_swapped(t, 7))
    assert edited.applied_by is None
    assert _transition_error(make_semantics(), edited) == 7
    assert all_prefixes([t, copy, element_run.virtual]) == all_prefixes([copy])
    assert len(all_prefixes([t, copy])) == t.size + 1


def test_each_semantics_bundle_is_shared():
    assert make_semantics() is make_semantics(strict_reduce=False)
    strict = make_semantics(strict_reduce=True)
    assert strict is make_semantics(strict_reduce=True)
    assert strict is not make_semantics()
    assert palm.make_palm_semantics() is palm.make_palm_semantics()


@pytest.mark.parametrize("bundle", ["default", "strict", "palm"])
@pytest.mark.parametrize("table", ["param_deps", "action_writes", "neutral_writes"])
def test_shared_bundle_tables_are_read_only(bundle, table):
    os = {"default": make_semantics(), "strict": make_semantics(strict_reduce=True),
          "palm": palm.make_palm_semantics()}[bundle]
    with pytest.raises(TypeError):
        getattr(os, table)["reduce"] = frozenset()


def test_project_builds_a_new_bundle_and_leaves_the_shared_one_as_it_is():
    os = make_semantics()

    def snapshot():
        return os.name, os.action_kinds, dict(os.param_deps), dict(os.action_writes), dict(os.neutral_writes)

    before = snapshot()
    projected = project(os, palm_profile())
    assert projected is not os and projected is not project(os, palm_profile())
    assert "solved" not in projected.action_kinds
    assert snapshot() == before
    assert make_semantics() is os
