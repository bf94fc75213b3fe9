"""The value types of the solver state and the solution predicate.

Solver events and domains are named tuples: they compare and hash in C, as
tuples of their fields, and print, validate and fail as the frozen
dataclasses they replaced did.  ``solution_state`` tests the fixed
assignment; ``support.entailed_solution_state`` keeps the entailment-based
reading it must agree with.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gentra.constraints import ConstraintDecl
from gentra.errors import GentraError, StateInvariantError
from gentra.fdomain import EMPTY_DOMAIN, FiniteDomain
from gentra.state import BOTTOM, SolverEvent, SolverState, solution_state

from support import entailed_solution_state

small_sets = st.sets(st.integers(min_value=0, max_value=12), max_size=8)


@pytest.mark.parametrize("cls", [SolverEvent, FiniteDomain])
def test_equality_and_hash_are_the_tuple_ones(cls):
    # no Python-level comparison: the rules compare events and domains on
    # every step
    assert cls.__eq__ is tuple.__eq__ and cls.__hash__ is tuple.__hash__


def test_solver_event_equals_hashes_and_prints_by_its_fields():
    event = SolverEvent("dom", "x", "c1")
    assert event == SolverEvent("dom", "x", "c1") and hash(event) == hash(("dom", "x", "c1"))
    assert event != SolverEvent("dom", "x") and event != SolverEvent("min", "x", "c1")
    assert (event.kind, event.variable, event.origin) == ("dom", "x", "c1")
    assert repr(event) == "SolverEvent(kind='dom', variable='x', origin='c1')"
    assert repr(BOTTOM) == "SolverEvent(kind='bot', variable=None, origin=None)"
    assert BOTTOM == SolverEvent("bot") and hash(BOTTOM) == hash(("bot", None, None))
    assert SolverEvent(kind="val", variable="y").matches("val", "y")


@pytest.mark.parametrize("args,text", [
    (("dam", "x"), "unknown solver-event kind 'dam'"),
    (("bot", "x"), "the bottom event carries no variable and no origin"),
    (("bot", None, "c1"), "the bottom event carries no variable and no origin"),
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
