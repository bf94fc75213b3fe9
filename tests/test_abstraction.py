"""Projection, simulation, derivation, compliance, and commutation checks."""

import dataclasses
import random
from pathlib import Path

import pytest

from gentra.abstraction import (
    Derivation,
    ParamProjection,
    ProcessSpec,
    StateMapping,
    palm_mapping,
    audit_projection,
    check_composable,
    check_derivation,
    check_generic,
    check_projection,
    check_simulable,
    commutation_check,
    compose,
    identity_derivation,
    identity_projection,
    _strip_explanation,
    map_palm_state,
    palm_event_to_generic,
    palm_process,
    palm_profile,
    palm_to_generic,
    project,
)
from gentra.constraints import ConstraintDecl
from gentra.errors import MappingError, ProjectionError, ReconstructionError
from gentra.fdomain import full_domain
from gentra.formats import parse_problem
from gentra.gentra4cp import GenericEvent, make_semantics, validate
from gentra.palm import make_palm_semantics, palm_solve
from gentra.semantics import extract, reconstruct
from gentra.solver import Problem, SolveLimits, solve
from gentra.state import initial_state
from gentra.trace import ActualPayload, Trace, VirtualPayload

from support import ladder, random_problem

CORPUS_LIMITS = SolveLimits(max_events=200_000, max_nodes=20_000)


def element_problem(cids=("c0",)):
    return Problem(
        variables=(("I", full_domain()), ("A", full_domain())),
        constraints=((cids[0], ConstraintDecl.element("I", (2, 5, 7), "A")),),
        branches=((ConstraintDecl.eq("A", "I"), ConstraintDecl.eqc("A", 2)),),
        labels=("I", "A"),
    )


@pytest.fixture(scope="module")
def fd_run():
    return solve(element_problem(("c1",)))


@pytest.fixture(scope="module")
def palm_run():
    return palm_solve(element_problem())


@pytest.fixture(scope="module")
def gt():
    return make_semantics()


@pytest.fixture(scope="module")
def palm_os():
    return make_palm_semantics()


def identity_mapping(os):
    return StateMapping("identity", lambda s: s, {k: k for k in os.action_kinds})


def mapped_palm_virtual(palm_run):
    m = palm_mapping()
    return Trace(map_palm_state(palm_run.virtual.initial_state),
                 tuple(VirtualPayload(m.carry_action(ev.action), map_palm_state(ev.state))
                       for ev in palm_run.virtual.events))


# projections


def test_identity_projection_valid(gt):
    projected = project(gt, identity_projection(gt))
    assert projected.action_kinds == gt.action_kinds


def test_palm_profile_projection_valid(gt):
    projected = project(gt, palm_profile())
    assert projected.action_kinds == gt.action_kinds - {"jumpTo", "solved"}
    assert "solved" not in projected.parameters


def test_dropping_domains_with_reduce_invalid(gt):
    proj = ParamProjection("no-domains",
                           frozenset(gt.parameters) - {"domains"},
                           frozenset(gt.action_kinds))
    with pytest.raises(ProjectionError) as err:
        check_projection(gt, proj)
    assert "reduce" in str(err.value) or "domains" in str(err.value)


def test_dropping_solved_param_but_keeping_solved_action_invalid(gt):
    proj = ParamProjection("half", frozenset(gt.parameters) - {"solved"},
                           frozenset(gt.action_kinds))
    with pytest.raises(ProjectionError):
        check_projection(gt, proj)


def test_projected_semantics_refuses_dropped_kinds(gt, fd_run):
    projected = project(gt, palm_profile())
    jump = next(e for e in fd_run.events if e.type == "jumpTo")
    report = validate([jump], os=projected)
    assert not report.ok and report.error.index == 0


def test_projected_replay_refuses_a_dropped_kind_where_its_rule_applies(gt):
    problem = parse_problem((Path(__file__).parent / "fixtures" / "element.prob").read_text())
    atrace = Trace(initial_state(), tuple(map(ActualPayload, solve(problem).events)))
    assert reconstruct(gt, atrace).size == atrace.size  # nothing else in the trace fails
    with pytest.raises(ReconstructionError) as err:
        reconstruct(project(gt, palm_profile()), atrace)
    assert atrace.events[37].record.type == "jumpTo"
    assert (err.value.index, err.value.rule, err.value.condition) == (37, "jumpTo", "action outside projection palm")


def test_projection_audit_on_mapped_palm_traces(gt, palm_run):
    samples = [mapped_palm_virtual(palm_run)]
    report = audit_projection(gt, palm_profile(), samples)
    assert report.ok, report.lines()


def test_projection_audit_flags_dropped_actions(gt, fd_run):
    report = audit_projection(gt, palm_profile(), [fd_run.virtual])
    assert not report.ok  # the run jumps and solves, both outside the profile
    assert any("dropped action" in v.detail for v in report.violations)


# simulation


def test_identity_simulation(gt, fd_run):
    report = check_simulable(gt, gt, identity_mapping(gt), [fd_run.virtual])
    assert report.ok and report.transitions == fd_run.virtual.size


def test_palm_mapping_simulation(gt, palm_os, palm_run):
    projected = project(gt, palm_profile())
    report = check_simulable(palm_os, projected, palm_mapping(), [palm_run.virtual])
    assert report.ok, report.lines()


def test_swapped_kind_map_fails_at_first_swap(gt, palm_os, palm_run):
    projected = project(gt, palm_profile())
    swapped = dict(palm_mapping().action_map)
    swapped["suspend"], swapped["awake"] = "awake", "suspend"

    def swap_action(action):
        from gentra.semantics import Action
        args = tuple((k, v) for k, v in action.args if k != "explanation")
        return Action(swapped[action.kind], args)

    mapping = StateMapping("swapped", map_palm_state, swapped, swap_action)
    report = check_simulable(palm_os, projected, mapping, [palm_run.virtual])
    assert not report.ok
    kinds = [ev.action.kind for ev in palm_run.virtual.events]
    expected = min(kinds.index("suspend"), kinds.index("awake"))
    assert report.violations[0].event == expected


def test_non_bijective_kind_map_is_structural_failure(gt, palm_os, palm_run):
    projected = project(gt, palm_profile())
    mapping = StateMapping("collapse", map_palm_state,
                           {k: "suspend" for k in palm_os.action_kinds})
    report = check_simulable(palm_os, projected, mapping, [palm_run.virtual])
    assert not report.ok
    assert report.violations[0].trace is None  # flagged before any replay


def test_simulation_evidence_implies_mapped_validation(gt, palm_os):
    projected = project(gt, palm_profile())
    rng = random.Random(11)
    for _ in range(5):
        res = palm_solve(random_problem(rng), CORPUS_LIMITS)
        sim = check_simulable(palm_os, projected, palm_mapping(), [res.virtual])
        assert sim.ok
        report = validate(palm_to_generic(res.events), os=projected,
                          guards=("g1", "g2", "g3", "g4", "g5"))
        assert report.ok, report.lines()


def _map_failing_on_call(n):
    calls = 0

    def map_state(state):
        nonlocal calls
        calls += 1
        if calls == n:
            raise ValueError("no image")
        return state

    return map_state


@pytest.mark.parametrize("call, line", [
    (1, "FAIL simulate trace=0 event=None state map failed on the initial state: no image"),
    (3, "FAIL simulate trace=0 event=1 state map failed: no image"),
], ids=["initial", "later"])
def test_state_map_failure_is_reported_and_stops_its_trace(gt, fd_run, call, line):
    mapping = StateMapping("partial", _map_failing_on_call(call), {k: k for k in gt.action_kinds})
    report = check_simulable(gt, gt, mapping, [fd_run.virtual, fd_run.virtual])
    assert report.lines()[:-1] == [line]
    assert not report.ok


# mapping without rebuilding what does not change


@pytest.fixture(scope="module")
def palm_ladder_run():
    return palm_solve(ladder(4))


def _has_extras(ev):
    return ev.explanation is not None or ev.wake_kind is not None or ev.var_alias is not None


def test_palm_to_generic_returns_records_without_extras_as_they_are(palm_ladder_run):
    events = palm_ladder_run.events
    plain = [ev for ev in events if not _has_extras(ev)]
    assert 0 < len(plain) < len(events)
    assert all(palm_event_to_generic(ev) is ev for ev in plain)
    for ev, mapped in zip(events, palm_to_generic(events)):
        if _has_extras(ev):
            assert not _has_extras(mapped)
            assert mapped == ev._replace(explanation=None, wake_kind=None, var_alias=None)


def test_strip_explanation_returns_actions_without_one_as_they_are(palm_ladder_run):
    actions = [ev.action for ev in palm_ladder_run.virtual.events]
    explained = 0
    for action in actions:
        stripped = _strip_explanation(action)
        if "explanation" in dict(action.args):
            explained += 1
            assert stripped.kind == action.kind
            assert dict(stripped.args) == {k: v for k, v in action.args if k != "explanation"}
        else:
            assert stripped is action
    assert 0 < explained < len(actions)


def test_check_simulable_maps_each_sample_state_once(gt, palm_os, palm_ladder_run):
    # n + 1 states on an n-event trace: a mapped post-state is carried over
    # as the mapped pre-state of the next transition
    virtual = palm_ladder_run.virtual
    calls = 0

    def counting(state):
        nonlocal calls
        calls += 1
        return map_palm_state(state)

    mapping = dataclasses.replace(palm_mapping(), map_state=counting)
    report = check_simulable(palm_os, project(gt, palm_profile()), mapping, [virtual])
    assert report.ok and report.transitions == virtual.size
    assert calls == virtual.size + 1


# derivations


def test_identity_style_derivation(fd_run):
    actual = extract(make_semantics(), fd_run.virtual)
    report = check_derivation(identity_derivation(), [actual],
                              lambda s: s == initial_state())
    assert report.ok


def test_event_erasing_derivation(fd_run):
    actual = extract(make_semantics(), fd_run.virtual)

    def erase_schedule(prefix):
        kept = tuple(e for e in prefix.events if e.record.type != "schedule")
        return Trace(prefix.initial_state, kept)

    D = Derivation("drop-schedule", erase_schedule)
    report = check_derivation(D, [actual], lambda s: s == initial_state())
    assert report.ok, report.lines()


def test_skipping_derivation_breaks_the_chain(fd_run):
    actual = extract(make_semantics(), fd_run.virtual)

    def doubler(prefix):
        return actual.prefix(min(2 * prefix.size, actual.size))

    report = check_derivation(Derivation("skip-2", doubler), [actual],
                              lambda s: s == initial_state())
    assert not report.ok
    assert any("derived length" in v.detail for v in report.violations)
    assert report.notes  # the fallback scan and its bound are recorded


def test_compose_identity(fd_run):
    actual = extract(make_semantics(), fd_run.virtual)
    D = Derivation("drop-schedule",
                   lambda p: Trace(p.initial_state,
                                   tuple(e for e in p.events if e.record.type != "schedule")))
    composed = compose(identity_derivation(), D)
    for k in range(0, actual.size + 1, 7):
        assert composed(actual.prefix(k)) == D(actual.prefix(k))
    report = check_composable(identity_derivation(), D, [actual])
    assert report.ok


def test_composed_derivations_pass_chain_checks(fd_run):
    actual = extract(make_semantics(), fd_run.virtual)
    drop_schedule = Derivation(
        "drop-schedule",
        lambda p: Trace(p.initial_state,
                        tuple(e for e in p.events if e.record.type != "schedule")))
    drop_awake = Derivation(
        "drop-awake",
        lambda p: Trace(p.initial_state,
                        tuple(e for e in p.events if e.record.type != "awake")))
    composed = compose(drop_schedule, drop_awake)
    report = check_derivation(composed, [actual], lambda s: s == initial_state())
    assert report.ok


# the mapped dialect


def test_palm_to_generic_strips_extras(palm_run):
    mapped = palm_to_generic(palm_run.events)
    assert all(e.explanation is None and e.wake_kind is None for e in mapped)
    assert [e.type for e in mapped] == [e.type for e in palm_run.events]
    assert palm_to_generic(()) == ()


def test_palm_to_generic_rejects_foreign_kinds(fd_run):
    jump = next(e for e in fd_run.events if e.type == "jumpTo")
    with pytest.raises(MappingError):
        palm_to_generic([jump])


# compliance


def fd_process(gt, **changes):
    spec = ProcessSpec("fd", gt, identity_projection(gt), identity_mapping(gt), lambda evs: evs)
    return dataclasses.replace(spec, **changes)


def _fails(report):
    return [line for line in report.lines if line.startswith("FAIL")]


def test_compliance_three_scenarios(gt, fd_run, palm_run):
    fd = check_generic(gt, fd_process(gt, name="fd-identity"), fd_run.events)
    assert fd.ok and fd.lines[0] == f"PASS fd-identity replay events={len(fd_run.events)}"
    assert fd.lines[-1] == "PASS compliance"
    palm = check_generic(gt, palm_process(), palm_run.events)
    assert palm.ok and not _fails(palm)
    unprojected = dataclasses.replace(palm_process(), name="palm-unprojected",
                                      projection=identity_projection(gt))
    report = check_generic(gt, unprojected, palm_run.events)
    assert not report.ok
    assert any("jumpTo" in line and "solved" in line for line in _fails(report))
    assert report.lines[-1] == "FAIL compliance"


# each place check_generic stops or fails, tripped alone


def test_compliance_invalid_projection_stops_the_check(gt, fd_run):
    # current_event is updated from pending, so pending cannot be dropped alone
    no_pending = ParamProjection("no-pending", frozenset(gt.parameters) - {"pending"},
                                 frozenset(gt.action_kinds))
    report = check_generic(gt, fd_process(gt, projection=no_pending), fd_run.events)
    assert not report.ok
    assert report.lines == ("FAIL compliance fd: invalid projection: kept parameter "
                            "'current_event' depends on dropped ['pending']",)


def test_compliance_replay_failure_on_a_record_depth_stops_the_check(gt, palm_run):
    events = list(palm_run.events)
    i = next(i for i, ev in enumerate(events) if ev.type == "reduce")
    events[i] = events[i]._replace(depth=events[i].depth + 1)
    report = check_generic(gt, palm_process(), events)
    assert not report.ok
    assert report.lines == (f"FAIL replay under the palm rules: reduce: depth {events[i].depth} "
                            f"!= current node depth {events[i].depth - 1} at event {i}",)


def test_compliance_map_failure_stops_the_check(gt, fd_run):
    report = check_generic(gt, fd_process(gt, map_events=palm_to_generic), fd_run.events)
    assert not report.ok
    assert report.lines == (f"PASS fd replay events={len(fd_run.events)}",
                            "FAIL map-fd: jumpTo has no counterpart in the mapped profile")


def test_compliance_validate_failure_keeps_the_simulation_verdict(gt, fd_run):
    def drop_first_reduce(events):
        i = next(i for i, ev in enumerate(events) if ev.type == "reduce")
        return events[:i] + events[i + 1:]

    report = check_generic(gt, fd_process(gt, map_events=drop_first_reduce), fd_run.events)
    assert not report.ok
    fails = _fails(report)
    assert fails[0].startswith("FAIL validate event=")
    assert fails[1].startswith("FAIL validate events=")
    assert fails[2:] == ["FAIL compliance"]
    assert any(line.startswith("PASS simulate identity") for line in report.lines)


# commutation


def test_commutation_identity(gt, fd_run):
    report = commutation_check(gt, gt, identity_mapping(gt), lambda evs: evs, [fd_run.virtual])
    assert report.ok


def test_commutation_palm_pipeline(gt, palm_os, palm_run):
    projected = project(gt, palm_profile())
    report = commutation_check(palm_os, projected, palm_mapping(), palm_to_generic,
                               [palm_run.virtual])
    assert report.ok, report.lines()


def actual_sample():
    return Trace(initial_state(), (ActualPayload(GenericEvent("post", 0, constraint="c")),))


def test_checks_of_virtual_samples_report_an_actual_one(gt, palm_os):
    """An actual sample is a violation at its first event, not a crash."""
    projected = project(gt, palm_profile())
    sim = check_simulable(palm_os, projected, palm_mapping(), [actual_sample()])
    assert sim.lines() == ["FAIL simulate trace=0 event=0 simulation expects virtual traces",
                           "FAIL simulate palm-to-generic traces=1 transitions=0"]
    audit = audit_projection(gt, palm_profile(), [actual_sample()])
    assert audit.lines() == ["FAIL audit trace=0 event=0 audit expects virtual traces",
                             "FAIL projection-audit palm traces=1"]
    commute = commutation_check(palm_os, projected, palm_mapping(), palm_to_generic, [actual_sample()])
    assert commute.lines() == ["FAIL commute trace=0 event=0 palm: extract expects a virtual trace at event 0",
                               "FAIL commutation traces=1"]


def test_commutation_flags_corrupted_mapping(gt, palm_os, palm_run):
    projected = project(gt, palm_profile())
    first_reduce = next(i for i, e in enumerate(palm_run.events) if e.type == "reduce")

    def dropping(events):
        mapped = palm_to_generic(events)
        return mapped[:first_reduce] + mapped[first_reduce + 1:]

    report = commutation_check(palm_os, projected, palm_mapping(), dropping,
                               [palm_run.virtual])
    assert not report.ok
    # localized: flagged at the first position where the dropped record is
    # observable, never before the drop itself
    position = report.violations[0].event
    assert position is not None and first_reduce <= position <= first_reduce + 3
