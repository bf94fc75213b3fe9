"""Palm's rules as a refinement of the generic rule table.

``check_simulable`` accepts the steps of a trace the palm bundle built
without applying a rule, and ``check_generic`` checks a palm trace's
compliance with one palm replay, on an argument that rests on the
construction of ``palm.PALM_RULES`` and on properties pinned here: the
generic rules read no explanation table and return their input's table
unchanged, the generic reduce ignores its explanation slot, and a record the
palm replay accepts reads, under the generic reader in the mapped state, as
the mapped action, with the same depth check.  The equivalence tests compare
each shortcut with the full check it replaces on the same inputs, and the
negative controls show that any other input takes the full check.
"""

import dataclasses
import random
from functools import cache

import pytest

from gentra import gentra4cp, palm
from gentra.abstraction import (SimulationViolation, StateMapping, check_generic, check_simulable, map_palm_state,
                                palm_event_to_generic, palm_mapping, palm_profile, palm_to_generic, project)
from gentra.errors import GentraError, MappingError, ReconstructionError, TransitionError
from gentra.formats import document_for_events, parse_trace, serialize_trace
from gentra.gentra4cp import GUARD_NAMES, RULES, check_guards, check_record, make_semantics, read_record, validate
from gentra.palm import PALM_RULES, REFINEMENT, _strip_explanation, make_palm_semantics, palm_initial_state, palm_solve
from gentra.semantics import Action, reconstruct, replay_records
from gentra.solver import solve
from gentra.state import initial_state
from gentra.trace import ActualPayload, Trace

from support import RuleCalls, benchmark_corpus, benchmark_inputs, ladder
from test_golden_traces import LIMITS, emitted_text, problems

LADDERS = (3, 4, 5)
CORPUS_SEED, CORPUS_SIZE = 7, 300
MUTANTS = 3000  # seeded one-edit mutants of the corpus palm traces, for the compliance equivalence


def _palm_replay(events) -> Trace:
    return reconstruct(make_palm_semantics(), Trace(palm_initial_state(), tuple(ActualPayload(e) for e in events)))


# the traces and steps are built once, by cached functions rather than
# fixtures, so that a failing test's report does not print them


@cache
def palm_runs(source: str) -> tuple[tuple, ...]:
    """The records palm_solve emits on the ladders k = 3-5, on the golden
    problems or on the benchmark corpus."""
    if source == "ladders":
        return tuple(palm_solve(ladder(k)).events for k in LADDERS)
    if source == "golden":
        golden = problems()
        return tuple(palm_solve(golden[name], limits=LIMITS).events for name in sorted(golden))
    return tuple(palm_solve(p).events for p in benchmark_corpus(CORPUS_SEED, CORPUS_SIZE))


@cache
def palm_traces(source: str) -> tuple[Trace, ...]:
    """The palm replays of ``palm_runs(source)``."""
    return tuple(map(_palm_replay, palm_runs(source)))


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


# the record level: a palm record reads as its mapped action


def _depth_outcome(record, successor):
    try:
        check_record(record, successor)
    except ReconstructionError as exc:
        return str(exc)
    return None


def _record_steps():
    """(state, record) pairs the palm replay accepts: each record of the
    ladders' palm runs and of the compliance inputs below (a tenth of the
    mutants), up to the first the palm replay refuses, in the state the
    replay reached, and each such record in the state seven records before,
    where the replay accepts it."""
    palm_os, steps, inputs = make_palm_semantics(), [], compliance_inputs()
    for events in (*palm_runs("ladders"), *inputs[:-MUTANTS], *inputs[-MUTANTS::10]):
        pres, state = [], initial_state()
        for record in events:
            try:
                (_action, successor), = replay_records(palm_os, state, (record,))
            except ReconstructionError:
                break
            pres.append(state)
            steps.append((state, record))
            state = successor
        for pre, record in zip(pres, events[7:len(pres)]):
            try:
                replay_records(palm_os, pre, (record,))
            except ReconstructionError:
                continue
            steps.append((pre, record))
    return steps


def test_a_palm_record_reads_as_its_mapped_action_under_the_generic_reader():
    # read_record(d(s), m(r)) == strip(palm_read(s, r)) for every record r the
    # palm replay accepts in s, and the depth check of r, and of r one level
    # deeper, agrees with the generic one on the generic successor of d(s)
    palm_read, checked, explained = make_palm_semantics().read_action, 0, 0
    for pre, record in _record_steps():
        action, mapped, mapped_pre = palm_read(pre, record), palm_event_to_generic(record), map_palm_state(pre)
        generic = read_record(mapped_pre, mapped)
        assert generic == _strip_explanation(action), (record, generic)
        successor, mapped_successor = PALM_RULES[action.kind](pre, action), RULES[generic.kind](mapped_pre, generic)
        assert _depth_outcome(record, successor) is None
        assert _depth_outcome(mapped, mapped_successor) is None
        deeper = record._replace(depth=record.depth + 1)
        assert _depth_outcome(deeper, successor) == _depth_outcome(palm_event_to_generic(deeper), mapped_successor)
        checked += 1
        explained += pre.explanations != mapped_pre.explanations
    assert checked > 20_000 and explained > 1000, (checked, explained)


# check_generic against the two-pass chain it replaces

REFINEMENT_LINE = "PASS palm rules refine the gentra4cp rules (properties pinned in tests/test_refinement.py)"


def _two_pass_chain(events) -> tuple[bool, tuple[str, ...]]:
    """The palm compliance check as two passes: the palm replay, then the
    mapped records validated under the projected format with every guard,
    and the simulation checked on every step of the palm replay."""
    palm_os, projected = make_palm_semantics(), project(make_semantics(), palm_profile())
    start = initial_state()
    try:
        steps = replay_records(palm_os, start, events)
    except GentraError as exc:
        return False, (f"FAIL replay under the palm rules: {exc}",)
    lines = [f"PASS palm replay events={len(steps)}"]
    try:
        mapped = palm_to_generic(events)
    except MappingError as exc:
        return False, (*lines, f"FAIL map-palm: {exc}")
    report = validate(mapped, os=projected, guards=GUARD_NAMES)
    sim = check_simulable(palm_os, projected, palm_mapping(), [Trace(start, steps)])  # no provenance: every step
    ok = report.ok and sim.ok
    return ok, (*lines, *report.lines(), *sim.lines(), f"{'PASS' if ok else 'FAIL'} compliance")


def _one_edit(text: str, rng: random.Random) -> str:
    """``text`` with one event line edited: an attribute token replaced by,
    or a token inserted from, the trace's own tokens, a token deleted, the
    depth moved by one, the line dropped or swapped with the next; the
    chronos are renumbered."""
    header = [line for line in text.splitlines() if line.startswith("#")]
    lines = [line[line.index("["):] for line in text.splitlines() if not line.startswith("#")]
    tokens = sorted({token for line in lines for token in line.split(" ")[1:]})
    i = rng.randrange(len(lines))
    head, *attrs = lines[i].split(" ")
    op = rng.choice(("replace", "insert", "delete", "depth", "drop", "swap"))
    if op == "replace" and attrs:
        attrs[rng.randrange(len(attrs))] = rng.choice(tokens)
    elif op == "insert":
        attrs.insert(rng.randrange(len(attrs) + 1), rng.choice(tokens))
    elif op == "delete" and attrs:
        del attrs[rng.randrange(len(attrs))]
    elif op == "depth":
        depth, rest = head[1:].split("]", 1)
        head = f"[{max(0, int(depth) + rng.choice((-1, 1)))}]{rest}"
    if op == "drop":
        del lines[i]
    elif op == "swap":
        lines[i:i + 2] = lines[i:i + 2][::-1]
    else:
        lines[i] = " ".join([head, *attrs])
    return "\n".join(header + [f"{n}{line}" for n, line in enumerate(lines, 1)]) + "\n"


@cache
def compliance_inputs() -> tuple[tuple, ...]:
    """The records of the golden palm traces, of the corpus palm traces, of
    their defect twins and of seeded one-edit mutants of the corpus traces
    that parse and differ from their trace."""
    golden = [emitted_text(name, "palm")[1] for name in sorted(problems())]
    corpus = [serialize_trace(document_for_events(events, dialect="palm", solver="palm"))
              for events in palm_runs("corpus")]
    rng = random.Random(CORPUS_SEED)
    twins = [benchmark_inputs().defect_twin(text, rng)[0] for text in corpus]
    inputs = [parse_trace(text).events for text in golden + corpus + twins]
    mutants, attempts = 0, 0
    while mutants < MUTANTS and attempts < 4 * MUTANTS:
        text = corpus[attempts % len(corpus)]
        attempts += 1
        mutant = _one_edit(text, rng)
        try:
            events = parse_trace(mutant, dialect="palm").events
        except GentraError:
            continue
        if mutant != text:
            inputs.append(events)
            mutants += 1
    assert mutants == MUTANTS, attempts
    return tuple(inputs)


# the guards: palm's rules carry g3-g5, so check_generic evaluates none per trace


def test_the_guards_hold_on_every_step_the_palm_replay_accepts():
    # on the ladders' palm runs and every compliance input, up to its first
    # refused record: the palm rules make the guards' tests (``refines.guards``)
    palm_os, start, steps = make_palm_semantics(), initial_state(), 0
    assert palm_os.refines.guards == GUARD_NAMES
    for events in (*palm_runs("ladders"), *compliance_inputs()):
        try:
            accepted = replay_records(palm_os, start, events)
        except ReconstructionError as exc:
            accepted = replay_records(palm_os, start, events[:exc.index])
        report = check_guards(Trace(start, accepted), GUARD_NAMES)
        assert report.ok, report.violations
        steps += len(accepted)
    assert steps > 100_000, steps


def test_check_generic_refuses_a_bundle_that_does_not_carry_every_guard():
    palm_os = make_palm_semantics()
    lacking = dataclasses.replace(palm_os, refines=palm_os.refines._replace(guards=("g3", "g5")))
    report = check_generic(make_semantics(), lacking, palm_runs("ladders")[0])
    assert (report.ok, report.lines) == (False, ("FAIL compliance palm: its rules do not carry the guards g4",))


def test_check_generic_runs_no_guard_pass_and_builds_no_trace(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a guard pass or a trace")

    monkeypatch.setattr(gentra4cp, "check_guards", refuse)
    monkeypatch.setattr(Trace, "__post_init__", refuse)
    events = palm_runs("ladders")[0]
    report = check_generic(make_semantics(), make_palm_semantics(), events)
    assert report.ok
    assert report.lines[2:] == (f"PASS guards=g3,g4,g5 events={len(events)}", "PASS compliance")


def test_check_generic_gives_the_two_pass_verdict():
    # the same verdict, replay failure line, guard lines and first failing
    # index; the refinement line stands for the validate and simulate lines
    gt, palm_os, outcomes = make_semantics(), make_palm_semantics(), set()
    inputs = compliance_inputs()
    assert len(inputs) == 2 * CORPUS_SIZE + len(problems()) + MUTANTS
    for i, events in enumerate(inputs):
        ok, lines = _two_pass_chain(events)
        expected = []
        for line in lines:
            if not line.startswith(("PASS validate events=", "PASS simulate palm-to-generic ")):
                expected.append(line)
            if line.startswith("PASS palm replay "):
                expected.append(REFINEMENT_LINE)
        report = check_generic(gt, palm_os, events)
        assert (report.ok, report.lines) == (ok, tuple(expected)), i
        outcomes.add(lines[-1].split(":")[0])
    assert outcomes == {"PASS compliance", "FAIL replay under the palm rules"}
