"""The value types of the solver state and the solution predicate.

Solver events and domains are named tuples: they compare and hash in C, as
tuples of their fields, and print, validate and fail as the frozen
dataclasses they replaced did.  The sleeping, solved and rejected parts of
the store are sorted, duplicate-free tuples of identifiers, whatever built
the state.  ``solution_state`` tests the fixed assignment;
``support.entailed_solution_state`` keeps the entailment-based reading it
must agree with.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gentra.constraints import ConstraintDecl
from gentra.errors import GentraError, StateInvariantError, TransitionError
from gentra.fdomain import EMPTY_DOMAIN, FiniteDomain
from gentra.formats import parse_trace
from gentra.gentra4cp import make_semantics, validate
from gentra.palm import make_palm_semantics, palm_initial_state
from gentra.semantics import Action, reconstruct
from gentra.state import BOTTOM, FullState, SolverEvent, SolverState, initial_state, solution_state
from gentra.trace import ActualPayload, Trace

from support import entailed_solution_state
from test_golden_traces import GOLDEN, emitted_text

small_sets = st.sets(st.integers(min_value=0, max_value=12), max_size=8)


@pytest.mark.parametrize("cls", [SolverEvent, FiniteDomain])
def test_equality_and_hash_are_the_tuple_ones(cls):
    # no Python-level comparison: the rules compare events and domains on
    # every step
    assert cls.__eq__ is tuple.__eq__ and cls.__hash__ is tuple.__hash__


def test_solver_event_equals_hashes_and_prints_by_its_fields():
    # an event is the pair (kind, variable) the text writes, and nothing more
    event = SolverEvent("dom", "x")
    assert event == SolverEvent("dom", "x") and hash(event) == hash(("dom", "x"))
    assert event != SolverEvent("dom", "y") and event != SolverEvent("min", "x")
    assert (event.kind, event.variable) == tuple(event) == ("dom", "x")
    assert repr(event) == "SolverEvent(kind='dom', variable='x')"
    assert repr(BOTTOM) == "SolverEvent(kind='bot', variable=None)"
    assert BOTTOM == SolverEvent("bot") and hash(BOTTOM) == hash(("bot", None))
    assert SolverEvent._fields == ("kind", "variable") and not hasattr(event, "matches")


@pytest.mark.parametrize("args,text", [
    (("dam", "x"), "unknown solver-event kind 'dam'"),
    (("bot", "x"), "the bottom event carries no variable"),
    (("bot", ""), "the bottom event carries no variable"),  # any variable at all, even an empty one
])
def test_invalid_solver_event_raises_as_before(args, text):
    with pytest.raises(StateInvariantError) as caught:
        SolverEvent(*args)
    assert type(caught.value) is StateInvariantError and str(caught.value) == text


def test_domain_equals_hashes_and_prints_by_its_intervals():
    dom = FiniteDomain(((0, 2), (5, 5)))
    assert dom == FiniteDomain.of([0, 1, 2, 5]) and hash(dom) == hash((((0, 2), (5, 5)),))
    assert repr(dom) == "FiniteDomain(intervals=((0, 2), (5, 5)))"
    assert repr(EMPTY_DOMAIN) == "FiniteDomain(intervals=())" and EMPTY_DOMAIN == FiniteDomain()
    assert FiniteDomain(intervals=((3, 4),)).intervals == ((3, 4),)


@pytest.mark.parametrize("intervals,text", [
    (((4, 2),), "malformed interval [4,2]"),
    (((0, 2), (2, 4)), "intervals must be disjoint, non-adjacent, ascending"),
    (((0, 2), (3, 4)), "intervals must be disjoint, non-adjacent, ascending"),
    (((5, 6), (0, 1)), "intervals must be disjoint, non-adjacent, ascending"),
])
def test_invalid_domain_raises_as_before(intervals, text):
    with pytest.raises(GentraError) as caught:
        FiniteDomain(intervals)
    assert type(caught.value) is GentraError and str(caught.value) == text


@given(small_sets, small_sets)
def test_algebra_results_pass_the_constructor_check(a, b):
    # the set algebra builds its results without the check; each is one the
    # constructor accepts, and the set it should be
    da, db = FiniteDomain.of(a), FiniteDomain.of(b)
    for result, expected in ((da.union(db), a | b), (da.intersect(db), a & b), (da.subtract(db), a - b)):
        assert FiniteDomain(result.intervals) == result == FiniteDomain.of(expected)


# random solver states: a few variables, fixed or not, and declarations of
# every kind (or none) spread over the store parts

NAMES = ("x", "y", "z")
VALUES = st.integers(min_value=0, max_value=3)
DECLS = st.one_of(
    st.builds(ConstraintDecl.eq, st.sampled_from(NAMES), st.sampled_from(NAMES)),
    st.builds(ConstraintDecl.neq, st.sampled_from(NAMES), st.sampled_from(NAMES)),
    st.builds(ConstraintDecl.eqc, st.sampled_from(NAMES), VALUES),
    st.builds(ConstraintDecl.element, st.sampled_from(NAMES), st.lists(VALUES, min_size=1, max_size=4),
              st.sampled_from(NAMES), st.sampled_from([0, 1])),
)
PLACES = st.sampled_from(["out", "sleeping", "sleeping", "solved", "solved", "active", "rejected"])


@st.composite
def solver_states(draw):
    fixed = draw(st.booleans())
    domain = VALUES.map(lambda v: FiniteDomain.of([v])) if fixed else st.sets(VALUES, max_size=3).map(FiniteDomain.of)
    domains = {v: draw(domain) for v in NAMES}
    decls = draw(st.lists(st.one_of(DECLS, DECLS, DECLS, st.none()), max_size=4))  # a quarter without a declaration
    cids = [f"c{i}" for i in range(len(decls))]
    places = {cid: draw(PLACES) for cid in cids}
    parts = {part: frozenset(c for c in cids if places[c] == part) for part in ("solved", "rejected", "sleeping")}
    return SolverState(variables=NAMES, constraints=zip(cids, decls), domains=domains, initial_domains=domains,
                       active=tuple((c, BOTTOM) for c in cids if places[c] == "active"), **parts)


@settings(max_examples=400)
@given(solver_states())
def test_solution_state_agrees_with_entailment(state):
    assert solution_state(state) == entailed_solution_state(state)


def test_solution_state_on_fixed_states_of_each_kind():
    # one satisfied and one violated constraint of each kind, all fixed
    x, y = FiniteDomain.of([1]), FiniteDomain.of([2])
    for decl, verdict in ((ConstraintDecl.eq("x", "y"), False), (ConstraintDecl.neq("x", "y"), True),
                          (ConstraintDecl.eq("x", "x"), True), (ConstraintDecl.neq("y", "y"), False),
                          (ConstraintDecl.eqc("x", 1), True), (ConstraintDecl.eqc("y", 1), False),
                          (ConstraintDecl.element("x", (2,), "y"), True),
                          (ConstraintDecl.element("x", (2,), "y", index_base=0), False)):
        state = SolverState(variables=("x", "y"), constraints=(("c1", decl),), domains={"x": x, "y": y},
                            initial_domains={"x": x, "y": y}, sleeping=frozenset({"c1"}))
        assert solution_state(state) is verdict is entailed_solution_state(state), decl


# the store parts: sorted, duplicate-free tuples of identifiers

PARTS = ("sleeping", "solved", "rejected")
# "c10" sorts before "c2": the order is the identifiers' own, not a number's
IDS = ("c1", "c2", "c10", "c11", "b", "a7")


def _is_canonical(part) -> bool:
    return type(part) is tuple and part == tuple(sorted(set(part)))


@given(st.lists(st.sampled_from(IDS), max_size=12), st.lists(st.sampled_from(IDS), max_size=6),
       st.randoms(use_true_random=False))
def test_parts_built_from_any_iterable_compare_and_hash_equal(sleeping, solved, rng):
    shuffled = list(sleeping)
    rng.shuffle(shuffled)
    forms = [SolverState(sleeping=frozenset(sleeping), solved=frozenset(solved)),
             SolverState(sleeping=sleeping, solved=solved),
             SolverState(sleeping=shuffled + sleeping, solved=tuple(reversed(solved)))]
    for state in forms:
        assert state == forms[0] and hash(state) == hash(forms[0])
        assert state.sleeping == tuple(sorted(set(sleeping))) and state.solved == tuple(sorted(set(solved)))
        assert all(_is_canonical(getattr(state, part)) for part in PARTS)


# ``x`` is fixed at 1: ``eqc(x, 1)`` is entailed, so it may be solved, and
# ``eqc(x, 0)`` is falsified, so it may be rejected
_STORE_RULES = ("post", "suspend", "awake", "deactivate", "solved", "reject")
_MOVES = {"suspend": ("active", "sleeping"), "awake": ("sleeping", "active"),
          "solved": ("active", "solved"), "reject": ("active", "rejected")}


def _declared_store() -> FullState:
    apply = make_semantics().apply
    full = apply(initial_state(), Action.of("newVariable", variable="x", domain=FiniteDomain.of([1])))
    for i, cid in enumerate(IDS):
        full = apply(full, Action.of("newConstraint", constraint=cid, decl=ConstraintDecl.eqc("x", i % 2)))
    return full


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(_STORE_RULES), st.sampled_from(IDS)), max_size=60))
def test_store_rules_keep_the_parts_sorted(steps):
    # every applicable step moves its constraint between the parts as the set
    # model says, and each part stays the sorted tuple of its model set
    apply = make_semantics().apply
    full = _declared_store()
    model = {part: set() for part in ("active", *PARTS)}
    for rule, cid in steps:
        args = {"cause": BOTTOM} if rule == "awake" else {}
        try:
            full = apply(full, Action.of(rule, constraint=cid, **args))
        except TransitionError:
            continue
        if rule == "post":
            model["active"].add(cid)
        elif rule == "deactivate":
            for part in model.values():
                part.discard(cid)
        else:
            source, target = _MOVES[rule]
            model[source].remove(cid)
            model[target].add(cid)
        s = full.solver
        assert sorted(c for c, _ in s.active) == sorted(model["active"])
        for part in PARTS:
            assert getattr(s, part) == tuple(sorted(model[part])), (rule, cid, part)


@pytest.mark.parametrize("name,run", sorted(GOLDEN))
def test_every_replayed_golden_step_has_canonical_parts(name, run):
    _, text = emitted_text(name, run)
    if run == "palm":
        events = parse_trace(text, dialect="palm").events
        steps = reconstruct(make_palm_semantics(),
                            Trace(palm_initial_state(), tuple(map(ActualPayload, events)))).events
    else:
        steps = validate(parse_trace(text).events, os=make_semantics(strict_reduce=run == "strict"),
                         guards=()).virtual.events
    for i, step in enumerate(steps):
        assert all(_is_canonical(getattr(step.state.solver, part)) for part in PARTS), (i, step.action)
