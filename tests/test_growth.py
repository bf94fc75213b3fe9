"""Per-event cost guards: work per event must not grow with trace length.

Wall-clock time is too noisy for a unit test, so each guard counts a
deterministic proxy for the work instead and compares events at the bottom
and the top of the path-colouring ladder.
"""

import dataclasses
import sys

import pytest

from gentra import gentra4cp, palm
from gentra.abstraction import check_generic, palm_process
from gentra.formats import document_for_events, parse_trace, serialize_trace
from gentra.gentra4cp import make_semantics, validate
from gentra.palm import make_palm_semantics, palm_initial_state, palm_solve
from gentra.semantics import check_faithful, reconstruct
from gentra.solver import solve
from gentra.state import SolverState
from gentra.trace import ActualPayload, Trace

from support import RuleCalls, ladder

GROWTH_LIMIT = 1.2


def test_faithfulness_state_comparisons_per_event_stay_flat(monkeypatch):
    # a comparison that walks every node snapshot of the search tree costs
    # O(nodes) state comparisons per event; one that stops at the objects
    # the two states share costs a constant number
    calls = 0
    original = SolverState.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(SolverState, "__eq__", counting_eq)
    os = make_semantics()
    per_event = {}
    for k in (4, 6):
        # a caller-built copy, so that extraction checks every transition
        solved = solve(ladder(k)).virtual
        virtual = Trace(solved.initial_state, solved.events)
        calls = 0
        assert check_faithful(os, [virtual]).ok
        per_event[k] = calls / virtual.size
    assert per_event[6] <= GROWTH_LIMIT * per_event[4], per_event


@pytest.mark.parametrize("machine", ["fd", "palm"])
def test_faithfulness_check_applies_each_rule_once(machine):
    # extraction applies each step's rule to check that it is a transition;
    # replaying the step's record then reads the action back and, when it is
    # the step's own, does not apply the rule a second time
    os, run = (make_semantics(), solve) if machine == "fd" else (make_palm_semantics(), palm_solve)
    virtual = run(ladder(4)).virtual
    calls = 0

    def counting(state, action):
        nonlocal calls
        calls += 1
        return os.apply(state, action)

    assert check_faithful(dataclasses.replace(os, apply=counting), [virtual]).ok
    assert calls == virtual.size


@pytest.mark.parametrize("k", [4, 6])
def test_fd_verdict_applies_one_rule_per_event(monkeypatch, k):
    # validate applies each record's rule once; the faithfulness check of
    # the trace validate built, under the same shared semantics, applies none
    events = solve(ladder(k)).events
    counter = RuleCalls(monkeypatch, gentra4cp.RULES)
    report = validate(events)
    assert report.ok
    assert check_faithful(make_semantics(), [report.virtual]).ok
    assert counter.calls == len(events)


@pytest.mark.parametrize("k", [4, 6])
def test_palm_verdict_applies_three_rules_per_event(monkeypatch, k):
    # check_generic, the route ``gentra check-compliance`` runs, applies each
    # record's rule in the palm replay, in the projected validate and in
    # check_simulable; the palm table holds most generic rules as they are
    events = palm_solve(ladder(k)).events
    counter = RuleCalls(monkeypatch, gentra4cp.RULES, palm.PALM_RULES)
    assert check_generic(make_semantics(), palm_process(), events).ok
    assert counter.calls == 3 * len(events)


@pytest.mark.parametrize("source", ["solve", "validate", "palm-reconstruct"])
def test_faithfulness_check_applies_no_rule_on_traces_its_semantics_built(monkeypatch, source):
    if source == "solve":
        os, virtual = make_semantics(), solve(ladder(4)).virtual
    elif source == "validate":
        os, virtual = make_semantics(), validate(solve(ladder(4)).events).virtual
    else:
        os, events = make_palm_semantics(), palm_solve(ladder(4)).events
        virtual = reconstruct(os, Trace(palm_initial_state(), tuple(ActualPayload(e) for e in events)))
    assert virtual.applied_by is os
    counter = RuleCalls(monkeypatch, gentra4cp.RULES, palm.PALM_RULES)
    assert check_faithful(os, [virtual]).ok
    assert counter.calls == 0


# Python line events count the interpreted work: a linear scan of an
# association tuple that grows along the run (declarations, nodes, the
# explanation table) adds lines per element, a keyed lookup a constant few.


def _line_events(run):
    """Run ``run()`` and return the line events it took and its result."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return count, result


def _assert_flat(work):
    """``work(k)`` runs a path on ladder k and returns the number of events it
    emitted or replayed; its line events per event may grow by at most
    GROWTH_LIMIT from k = 4 to k = 6."""
    per_event = {}
    for k in (4, 6):
        lines, events = _line_events(lambda: work(k))
        per_event[k] = lines / events
    assert per_event[6] <= GROWTH_LIMIT * per_event[4], per_event


def test_solve_work_per_event_stays_flat():
    _assert_flat(lambda k: len(solve(ladder(k)).events))


def test_palm_solve_work_per_event_stays_flat():
    _assert_flat(lambda k: len(palm_solve(ladder(k)).events))


def test_validate_work_per_event_stays_flat():
    events = {k: solve(ladder(k)).events for k in (4, 6)}
    _assert_flat(lambda k: validate(events[k]).checked)


def test_palm_replay_work_per_event_stays_flat():
    os = make_palm_semantics()
    actual = {k: Trace(palm_initial_state(), tuple(ActualPayload(e) for e in palm_solve(ladder(k)).events))
              for k in (4, 6)}
    _assert_flat(lambda k: reconstruct(os, actual[k]).size)


def _ladder_text(machine: str, k: int) -> str:
    if machine == "palm":
        return serialize_trace(document_for_events(palm_solve(ladder(k)).events, dialect="palm"))
    return serialize_trace(document_for_events(solve(ladder(k)).events))


@pytest.mark.parametrize("machine", ["fd", "palm"])
def test_parse_work_per_event_stays_flat(machine):
    texts = {k: _ladder_text(machine, k) for k in (4, 6)}
    _assert_flat(lambda k: len(parse_trace(texts[k]).events))


# Strict parsing reads a canonical line by its type's pattern in about 16
# line events; the tokenizer takes about 130.  A reader that silently falls
# back to the tokenizer costs the same per event at every size, so only an
# absolute bound sees it.
PARSE_LINE_EVENTS_PER_RECORD = 45


@pytest.mark.parametrize("machine", ["fd", "palm"])
def test_strict_parse_reads_canonical_lines_without_tokens(machine):
    text = _ladder_text(machine, 6)
    lines, doc = _line_events(lambda: parse_trace(text))
    assert lines <= PARSE_LINE_EVENTS_PER_RECORD * len(doc.events), lines / len(doc.events)


# At ladder k = 6 the palm verdict (three rule applications per event)
# takes about 241 line events per event, and the fd verdict (validate and
# check_faithful, one application) about 140.  A slower rule step costs the
# same per event at every size, so only an absolute bound sees it; each
# bound is that count plus about 5%.
VERDICT_LINE_EVENTS_PER_EVENT = {"palm": 253, "fd": 147}


@pytest.mark.parametrize("machine", ["fd", "palm"])
def test_verdict_rule_steps_stay_within_their_line_events(machine):
    if machine == "palm":
        events = palm_solve(ladder(6)).events
        lines, ok = _line_events(lambda: check_generic(make_semantics(), palm_process(), events).ok)
    else:
        events = solve(ladder(6)).events

        def verdict():
            report = validate(events)
            return report.ok and check_faithful(make_semantics(), [report.virtual]).ok

        lines, ok = _line_events(verdict)
    assert ok
    assert lines <= VERDICT_LINE_EVENTS_PER_EVENT[machine] * len(events), lines / len(events)
