"""Per-event cost guards: work per event must not grow with trace length.

Wall-clock time is too noisy for a unit test, so each guard counts a
deterministic proxy for the work instead (line events, rule applications,
state comparisons, or bytes held) and compares events at the bottom and the
top of the path-colouring ladder.
"""

import dataclasses
import gc
import sys
import tracemalloc
from unittest import mock

import pytest

from gentra import formats, gentra4cp, palm, state
from gentra.abstraction import check_generic, check_simulable, palm_mapping, palm_profile, palm_to_generic, project
from gentra.errors import ReconstructionError
from gentra.formats import document_for_events, parse_trace, serialize_trace
from gentra.gentra4cp import GUARD_NAMES, ValidationError, make_semantics, validate
from gentra.palm import make_palm_semantics, palm_initial_state, palm_solve
from gentra.semantics import Action, check_faithful, reconstruct
from gentra.solver import solve
from gentra.state import SolverEvent, SolverState
from gentra.trace import ActualPayload, Trace

from support import RuleCalls, ladder, solved
from test_golden_traces import GOLDEN, emitted_text

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
        _result, steps = solved(solve, ladder(k))
        virtual = Trace(steps.initial_state, steps.events)
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
    _result, virtual = solved(run, ladder(4))
    calls = 0

    def counting(rule):
        def count(state, action):
            nonlocal calls
            calls += 1
            return rule(state, action)
        return count

    rules = {kind: counting(rule) for kind, rule in os.rules.items()}
    assert check_faithful(dataclasses.replace(os, rules=rules), [virtual]).ok
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
def test_palm_verdict_applies_one_rule_per_event(monkeypatch, k):
    # check_generic, the route ``gentra check-compliance`` runs, applies each
    # record's rule once, in the palm replay: palm's rules refine the generic
    # ones, so no mapped replay or simulation check applies them again
    events = palm_solve(ladder(k)).events
    counter = RuleCalls(monkeypatch, gentra4cp.RULES, palm.PALM_RULES)
    assert check_generic(make_semantics(), make_palm_semantics(), events).ok
    assert counter.calls == len(events)


@pytest.mark.parametrize("source", ["validate", "palm-reconstruct"])
def test_faithfulness_check_applies_no_rule_on_traces_its_semantics_built(monkeypatch, source):
    if source == "validate":
        os, virtual = make_semantics(), validate(solve(ladder(4)).events).virtual
    else:
        os, events = make_palm_semantics(), palm_solve(ladder(4)).events
        virtual = reconstruct(os, Trace(palm_initial_state(), tuple(ActualPayload(e) for e in events)))
    assert virtual.applied_by is os
    counter = RuleCalls(monkeypatch, gentra4cp.RULES, palm.PALM_RULES)
    assert check_faithful(os, [virtual]).ok
    assert counter.calls == 0


def test_simulation_check_applies_no_rule_on_traces_palm_built(monkeypatch):
    os, events = make_palm_semantics(), palm_solve(ladder(4)).events
    virtual = reconstruct(os, Trace(palm_initial_state(), tuple(ActualPayload(e) for e in events)))
    counter = RuleCalls(monkeypatch, gentra4cp.RULES, palm.PALM_RULES)
    projected = project(make_semantics(), palm_profile())  # its table holds the counting rules
    report = check_simulable(os, projected, palm_mapping(), [virtual])
    assert report.ok and report.transitions == len(events)
    assert counter.calls == 0


def test_verdicts_and_solves_read_arguments_by_position(monkeypatch):
    # an action's arguments are values in ``ARGS`` order: there is no lookup
    # by name (``Action.get`` is gone), and no path a benchmark times lays
    # keyword arguments out by name (``Action.of``, kept for tests)
    assert not hasattr(Action, "get")

    def refuse(cls, kind, **kwargs):
        raise AssertionError(f"Action.of({kind!r}) reached")

    monkeypatch.setattr(Action, "of", classmethod(refuse))
    problem = ladder(4)
    fd, palm_run = solve(problem), palm_solve(problem)
    report = validate(fd.events)
    assert report.ok and check_faithful(make_semantics(), [report.virtual]).ok
    assert check_generic(make_semantics(), make_palm_semantics(), palm_run.events).ok


def _pipeline_verdicts(problem):
    """Solve ``problem`` on both machines and run the fd and palm verdicts on
    the trace texts, making the library calls ``perfbench/pipeline.py`` makes."""
    fd_text = serialize_trace(document_for_events(solve(problem).events, solver="fd"))
    palm_text = serialize_trace(document_for_events(palm_solve(problem).events, dialect="palm", solver="palm"))
    report = validate(parse_trace(fd_text).events, guards=("g1", "g2", "g3"))
    assert report.ok and check_faithful(make_semantics(), [report.virtual]).ok
    palm_os, projected = make_palm_semantics(), project(make_semantics(), palm_profile())
    events = parse_trace(palm_text, dialect="palm").events
    virtual = reconstruct(palm_os, Trace(palm_initial_state(), tuple(ActualPayload(e) for e in events)))
    assert validate(palm_to_generic(events), os=projected, guards=GUARD_NAMES).ok
    assert check_simulable(palm_os, projected, palm_mapping(), [virtual]).ok


def test_verdicts_and_solves_build_no_store_and_word_no_shape_error(monkeypatch):
    # the rules test membership on the store's parts, and a record that
    # reads is never handed to shape_error, which only words refusals; the
    # validating view ``store`` is left to palm's repair invariant
    assert not hasattr(SolverEvent, "matches")
    in_invariant = False

    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} reached")
        return call

    def store_in_invariant(solver, store=state.store):
        assert in_invariant, "store reached outside palm's repair invariant"
        return store(solver)

    def invariant(full, check=palm.check_palm_invariants):
        nonlocal in_invariant
        in_invariant = True
        try:
            check(full)
        finally:
            in_invariant = False

    monkeypatch.setattr(palm, "check_palm_invariants", invariant)
    monkeypatch.setattr(palm, "store", store_in_invariant)
    monkeypatch.setattr(state, "store", refused("store"))
    monkeypatch.setattr(gentra4cp, "store", refused("store"), raising=False)  # the rules import none
    monkeypatch.setattr(gentra4cp, "shape_error", refused("shape_error"))
    monkeypatch.setattr(formats, "shape_error", refused("shape_error"))
    _pipeline_verdicts(ladder(4))


def test_store_refusals_keep_their_texts():
    # one edit of a passing trace each: a post of a constraint already in the
    # store, a deactivate of one no longer in it, and a palm reduce whose
    # explanation names a constraint outside it
    fd, events = solve(ladder(4)).events, palm_solve(ladder(4)).events
    i = next(i for i, ev in enumerate(fd) if ev.type == "post")
    report = validate(fd[:i + 1] + fd[i:])
    assert report.error == ValidationError(i + 1, "post", f"{fd[i].constraint} already in the store")
    j = next(j for j, ev in enumerate(events) if ev.type == "deactivate")
    r = next(r for r, ev in enumerate(events) if ev.type == "reduce")
    wider = events[r]._replace(explanation=events[r].explanation + ("nowhere",))
    edits = {j + 1: (events[:j + 1] + events[j:], "deactivate", f"{events[j].constraint} not in the store"),
             r: (events[:r] + (wider,) + events[r + 1:], "reduce", "explanation is not a set of store constraints")}
    for index, (edited, rule, condition) in edits.items():
        with pytest.raises(ReconstructionError) as exc:
            reconstruct(make_palm_semantics(), Trace(palm_initial_state(), tuple(map(ActualPayload, edited))))
        assert (exc.value.index, exc.value.rule, exc.value.condition) == (index, rule, condition)


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


# At ladder k = 6 one solve takes about 80 line events per event and one
# palm_solve about 88, both through the one shared propagation loop, whose
# filter step skips a variable its constraint leaves whole and subtracts one
# value or one range without a walk, and whose records lay each action's
# arguments out as they are.  A costlier loop, filter step or domain
# operation costs the same per event at every size, so only an absolute
# bound sees it; each bound is that count plus about 5%.
SOLVE_LINE_EVENTS_PER_EVENT = {"fd": 84, "palm": 92}


@pytest.mark.parametrize("machine", ["fd", "palm"])
def test_solve_line_events_per_event_stay_bounded(machine):
    problem = ladder(6)
    lines, result = _line_events(lambda: (palm_solve if machine == "palm" else solve)(problem))
    per_event = lines / len(result.events)
    assert per_event <= SOLVE_LINE_EVENTS_PER_EVENT[machine], per_event


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


# Strict parsing reads a canonical line by its type's pattern in about 18.5
# line events; the tokenizer takes about 130.  A reader that silently falls
# back to the tokenizer costs the same per event at every size, so only an
# absolute bound sees it; the bound is that count plus about 5%.
PARSE_LINE_EVENTS_PER_RECORD = 19.5


@pytest.mark.parametrize("machine", ["fd", "palm"])
def test_strict_parse_reads_canonical_lines_without_tokens(machine):
    text = _ladder_text(machine, 6)
    lines, doc = _line_events(lambda: parse_trace(text))
    assert lines <= PARSE_LINE_EVENTS_PER_RECORD * len(doc.events), lines / len(doc.events)


# What one parse costs before its first event line: the header-only text of
# an emitted trace takes about 63 line events.  A parse binds the canonical
# reader of an event type, and makes its value memos, at the first line that
# needs them; binding every type's reader and building every memo up front
# took 150.  Short traces pay this once per call, so only an absolute bound
# sees it; the bound is that count plus about 5%.
HEADER_PARSE_LINE_EVENTS = 66


def test_header_only_parse_stays_within_its_line_events():
    text = "# solver: palm\n# dialect: palm\n# mx: 268435455\n"
    lines, doc = _line_events(lambda: parse_trace(text))
    assert doc.events == () and doc.dialect == "palm"
    assert lines <= HEADER_PARSE_LINE_EVENTS, lines


@pytest.mark.parametrize("source", ["golden", "ladder"])
def test_strict_parse_of_emitted_traces_makes_no_token(monkeypatch, source):
    # every line an emitted trace holds, a constraint declaration included,
    # is read by its type's pattern
    if source == "golden":
        texts = [emitted_text(name, run)[1] for name, run in sorted(GOLDEN)]
    else:
        texts = [_ladder_text(machine, 4) for machine in ("fd", "palm")]
    docs = [parse_trace(text) for text in texts]
    monkeypatch.setattr(formats, "_tokenize", mock.Mock(side_effect=AssertionError("tokenized")))
    monkeypatch.setattr(formats, "parse_declaration", mock.Mock(side_effect=AssertionError("declaration tokenized")))
    for text, doc in zip(texts, docs):
        assert parse_trace(text) == doc


# At ladder k = 6 the palm verdict (one rule application per event, in the
# palm replay, whose rules refine the generic ones; the projected validate
# and check_simulable it also ran took 108) takes about 51.3 line events per
# event, a reduce's wake kind check included, and the fd verdict (validate
# and check_faithful, one application) about 47.6: replay reads, applies and
# checks each record in its own loop, one reader and one record check for
# both machines, the reader only fills in what lenient text leaves out, and
# check_faithful makes no pass over a trace validate replayed, since the
# rules refuse a generated event already pending (64.4 while it extracted
# every step and compared its record, 75.4 while it read back every step).
# A slower rule step costs the same per event at every size, so only an
# absolute bound sees it; each bound is that count plus about 5%.
VERDICT_LINE_EVENTS_PER_EVENT = {"palm": 54, "fd": 50}


@pytest.mark.parametrize("machine", ["fd", "palm"])
def test_verdict_rule_steps_stay_within_their_line_events(machine):
    if machine == "palm":
        events = palm_solve(ladder(6)).events
        lines, ok = _line_events(lambda: check_generic(make_semantics(), make_palm_semantics(), events).ok)
    else:
        events = solve(ladder(6)).events

        def verdict():
            report = validate(events)
            return report.ok and check_faithful(make_semantics(), [report.virtual]).ok

        lines, ok = _line_events(verdict)
    assert ok
    assert lines <= VERDICT_LINE_EVENTS_PER_EVENT[machine] * len(events), lines / len(events)


# Bytes a run holds per event when it returns, measured with tracemalloc.
# The palm replay holds its virtual trace, one state per event, so a bigger
# state shows there at every size and only an absolute bound sees it; a
# solve result holds only its records, so a solver that kept a state, a
# step or an action per event shows in its bound.  Measured with Python
# 3.11 at ladder k = 4 and 6: the palm replay holds 587 and 618 bytes per
# event, palm_solve 207 and 209 and solve 207 and 209, since the generated
# events a run lists are shared, one tuple per (kinds, variable) (223 and 223,
# and 218 and 219, while each reduce made its own; 818 and 848, and 738 and
# 752, while a solve result also held the virtual trace of its run), and a
# record holds its action's removed or restored values, whose intervals a
# palm restore shares with the reduces that removed them (215 and 217 while
# extraction computed them from the two states).  Each bound is the larger
# measurement plus about 15%.
HELD_BYTES_PER_EVENT = {"palm-replay": 711, "palm-solve": 240, "fd-solve": 241}


def _held_bytes(run):
    """Run ``run()``, which returns a result and its number of events, and
    return the bytes per event it allocated and still holds with the result."""
    gc.collect()
    tracemalloc.start()
    try:
        result, events = run()  # the result stays alive while it is measured
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / events


@pytest.mark.parametrize("path", sorted(HELD_BYTES_PER_EVENT))
def test_held_bytes_per_event_stay_flat_and_bounded(path):
    if path == "palm-replay":
        os = make_palm_semantics()
        actual = {k: Trace(palm_initial_state(), tuple(map(ActualPayload, palm_solve(ladder(k)).events)))
                  for k in (4, 6)}

        def run(k):
            virtual = reconstruct(os, actual[k])
            return virtual, virtual.size
    else:
        solve_fn = palm_solve if path == "palm-solve" else solve
        problems = {k: ladder(k) for k in (4, 6)}

        def run(k):
            result = solve_fn(problems[k])
            return result, len(result.events)
    per_event = {k: _held_bytes(lambda: run(k)) for k in (4, 6)}
    assert per_event[6] <= GROWTH_LIMIT * per_event[4], per_event
    assert max(per_event.values()) <= HELD_BYTES_PER_EVENT[path], per_event
