"""Palm's rules as a refinement of the generic rule table.

``check_simulable`` accepts the steps of a trace the palm bundle built
without applying a rule, on an argument that rests on the construction of
``palm.PALM_RULES`` and on two properties of the generic rules, pinned here:
they read no explanation table and return their input's table unchanged,
and the generic reduce ignores its explanation slot.  The equivalence tests
compare the report of that shortcut with the full per-step check on the same
steps, and the negative controls show that any other input takes the full
check.
"""

import dataclasses
from functools import cache

import pytest

from gentra import gentra4cp, palm
from gentra.abstraction import (SimulationViolation, StateMapping, check_simulable, palm_mapping, palm_profile,
                                project)
from gentra.errors import TransitionError
from gentra.gentra4cp import RULES, make_semantics, validate
from gentra.palm import PALM_RULES, REFINEMENT, make_palm_semantics, palm_initial_state, palm_solve
from gentra.semantics import Action, reconstruct
from gentra.solver import solve
from gentra.trace import ActualPayload, Trace

from support import RuleCalls, benchmark_corpus, ladder
from test_golden_traces import LIMITS, problems

LADDERS = (3, 4, 5)
CORPUS_SEED, CORPUS_SIZE = 7, 300


def _palm_replay(events) -> Trace:
    return reconstruct(make_palm_semantics(), Trace(palm_initial_state(), tuple(ActualPayload(e) for e in events)))


# the traces and steps are built once, by cached functions rather than
# fixtures, so that a failing test's report does not print them


@cache
def palm_traces(source: str) -> tuple[Trace, ...]:
    """The palm replays of the ladders k = 3-5, of the golden problems'
    palm runs or of the benchmark corpus."""
    if source == "ladders":
        return tuple(_palm_replay(palm_solve(ladder(k)).events) for k in LADDERS)
    if source == "golden":
        golden = problems()
        return tuple(_palm_replay(palm_solve(golden[name], limits=LIMITS).events) for name in sorted(golden))
    return tuple(_palm_replay(palm_solve(p).events) for p in benchmark_corpus(CORPUS_SEED, CORPUS_SIZE))


@cache
def replay_steps() -> tuple:
    """(pre-state, action) of every step of the fd and palm replays of the
    ladders and the corpus."""
    fd = [ladder(k) for k in LADDERS] + benchmark_corpus(CORPUS_SEED, CORPUS_SIZE)
    steps = []
    for t in [validate(solve(p).events).virtual for p in fd] + [*palm_traces("ladders"), *palm_traces("corpus")]:
        pre = t.initial_state
        for action, state in t.events:
            steps.append((pre, action))
            pre = state
    return tuple(steps)


class _TableRead(Exception):
    pass


class _Unreadable:
    """An explanation table that refuses every read."""

    def _refuse(self, *_args):
        raise _TableRead("the explanation table was read")

    __getattr__ = __getitem__ = __contains__ = __iter__ = __len__ = __bool__ = __eq__ = __hash__ = _refuse


def test_generic_rules_read_no_explanation_table():
    # on every replayed step, and on each step's action taken in the state of
    # another step, where it may fail: no generic rule reads the table, and
    # each returns its input's table object
    steps = replay_steps()
    kinds = set()
    for (pre, action), (other, _) in zip(steps, steps[7:] + steps[:7]):
        table = _Unreadable()
        assert RULES[action.kind](pre._replace(explanations=table), action).explanations is table
        kinds.add(action.kind)
        try:
            new = RULES[action.kind](other._replace(explanations=table), action)
        except TransitionError:
            continue
        assert new.explanations is table
    assert kinds == set(RULES)


def _with_explanation(action: Action, explanation) -> Action:
    cause, cid, _explanation, *rest = action.args
    return Action("reduce", (cause, cid, explanation, *rest))


def test_generic_reduce_ignores_its_explanation():
    reduce, checked = RULES["reduce"], 0
    for pre, action in replay_steps():
        if action.kind != "reduce":
            continue
        explanation = action.args[2] or frozenset({action.args[1]})
        with_one, without = (reduce(pre, _with_explanation(action, e)) for e in (explanation, None))
        assert with_one[:2] == without[:2], action
        checked += 1
    assert checked > 1000


def test_palm_rules_are_the_generic_rules_refined():
    ref = make_palm_semantics().refines
    assert ref.rules is PALM_RULES and ref.base is RULES
    assert (ref.map_state, ref.map_action, ref.action_map) == (
        palm_mapping().map_state, palm_mapping().map_action, dict(palm_mapping().action_map))
    for kind, rule in PALM_RULES.items():
        assert (rule is RULES[kind]) == (kind not in REFINEMENT), kind


def _first_step_off_the_generic_rule(t: Trace):
    """The first step of ``t`` whose solver or tree part is not the generic
    rule's, or which its palm rule does not give, as (index, kind)."""
    pre = t.initial_state
    for i, (action, state) in enumerate(t.events):
        if state[:2] != RULES[action.kind](pre, action)[:2] or state != PALM_RULES[action.kind](pre, action):
            return i, action.kind
        pre = state
    return None


@pytest.mark.parametrize("source", ["ladders", "corpus"])
def test_palm_rules_keep_the_generic_solver_and_tree(source):
    # a refined rule's conditions only refuse, and its update sets only the
    # explanation table
    off = [(ti, _first_step_off_the_generic_rule(t)) for ti, t in enumerate(palm_traces(source))]
    assert [o for o in off if o[1] is not None] == []


@pytest.mark.parametrize("source", ["ladders", "golden", "corpus"])
def test_simulation_of_a_palm_built_trace_reports_as_the_full_check(monkeypatch, source):
    # the copy has no provenance, so it takes the per-step check
    counter = RuleCalls(monkeypatch, gentra4cp.RULES, palm.PALM_RULES)
    palm_os, mapping = make_palm_semantics(), palm_mapping()
    projected = project(make_semantics(), palm_profile())  # its table holds the counting rules
    for t in palm_traces(source):
        assert t.applied_by is palm_os
        before = counter.calls
        by_construction = check_simulable(palm_os, projected, mapping, [t])
        applied = counter.calls - before
        checked = check_simulable(palm_os, projected, mapping, [Trace(t.initial_state, t.events)])
        assert by_construction == checked
        assert checked.ok and checked.transitions == t.size
        assert (applied, counter.calls - before) == (0, t.size)


def test_a_replaced_projected_rule_takes_the_full_check():
    # the suspend rule replaced by one that changes nothing: the projected
    # table no longer holds the rule palm's suspend refines
    t = palm_traces("ladders")[0]
    projected = project(make_semantics(), palm_profile())

    def stalled_suspend(full, action):
        RULES["suspend"](full, action)
        return full

    broken = dataclasses.replace(projected, rules={**projected.rules, "suspend": stalled_suspend})
    report = check_simulable(make_palm_semantics(), broken, palm_mapping(), [t])
    first = [action.kind for action, _ in t.events].index("suspend")
    assert report.violations == (SimulationViolation(0, first, "suspend transition is not simulated by suspend"),)
    assert report.transitions == first + 1


def test_a_mapping_other_than_the_refinement_takes_the_full_check(monkeypatch):
    # the same maps under another kind-map object and name are the refinement's;
    # an equal state map that is another function is not
    counter = RuleCalls(monkeypatch, gentra4cp.RULES, palm.PALM_RULES)
    palm_os, projected, ref = make_palm_semantics(), project(make_semantics(), palm_profile()), palm_mapping()
    t = palm_traces("ladders")[0]
    same = StateMapping("renamed", ref.map_state, dict(ref.action_map), ref.map_action)
    other = StateMapping("other", lambda full: ref.map_state(full), dict(ref.action_map), ref.map_action)
    assert check_simulable(palm_os, projected, same, [t]).ok and counter.calls == 0
    assert check_simulable(palm_os, projected, other, [t]).ok and counter.calls == t.size
