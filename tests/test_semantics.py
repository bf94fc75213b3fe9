"""Framework-level tests against a toy counter machine, and the one-pass
faithfulness check against the long way on both solver machines."""

import random

import pytest
from hypothesis import given, strategies as st

from gentra.errors import ReconstructionError, TransitionError
from gentra.gentra4cp import make_semantics
from gentra.palm import make_palm_semantics, palm_solve
from gentra.semantics import (
    Action,
    ObservationalSemantics,
    check_faithful,
    extract,
    first_divergence,
    reconstruct,
    replay_divergence,
    transition_holds,
)
from gentra.solver import solve
from gentra.trace import ActualPayload, Trace, VirtualPayload

from support import extraction_from_reconstruction, ladder, random_problem


def _apply(state, action):
    amount = action.get("amount")
    if action.kind not in ("inc", "dec") or amount is None or amount <= 0:
        raise TransitionError(action.kind, "unknown action or non-positive amount")
    return state + amount if action.kind == "inc" else state - amount


def _extract(state, action, successor):
    return (action.kind, successor - state)


def _read(state, record):
    kind, delta = record
    if kind == "inc" and delta > 0:
        return Action.of("inc", amount=delta)
    if kind == "dec" and delta < 0:
        return Action.of("dec", amount=-delta)
    raise ReconstructionError(kind, f"malformed record {record!r}")


def counter_os():
    return ObservationalSemantics(
        name="counter",
        action_kinds=frozenset({"inc", "dec"}),
        apply=_apply,
        extract_local=_extract,
        read_action=_read,
        is_initial=lambda s: s == 0,
    )


def lossy_counter_os():
    """Extraction drops the amount, so reconstruction cannot invert it."""
    return ObservationalSemantics(
        name="lossy-counter",
        action_kinds=frozenset({"inc", "dec"}),
        apply=_apply,
        extract_local=lambda s, a, s2: (a.kind, 1 if a.kind == "inc" else -1),
        read_action=_read,
        is_initial=lambda s: s == 0,
    )


def floored_lossy_counter_os():
    """Lossy extraction, and a reader that refuses to go below zero: a
    replay that has drifted from the trace can fail where the trace itself
    would not."""

    def read_action(state, record):
        action = _read(state, record)
        if state + record[1] < 0:
            raise ReconstructionError(action.kind, "counter below zero")
        return action

    return ObservationalSemantics(
        name="floored-lossy-counter",
        action_kinds=frozenset({"inc", "dec"}),
        apply=_apply,
        extract_local=lambda s, a, s2: (a.kind, 1 if a.kind == "inc" else -1),
        read_action=read_action,
        is_initial=lambda s: s == 0,
    )


def random_walk(rng, steps=5):
    events = []
    state = 0
    for _ in range(steps):
        kind = rng.choice(["inc", "dec"])
        amount = rng.randint(1, 4)
        action = Action.of(kind, amount=amount)
        state = _apply(state, action)
        events.append(VirtualPayload(action, state))
    return Trace(0, tuple(events))


def test_extract_empty_trace():
    os = counter_os()
    assert extract(os, Trace(0)) == Trace(0)
    assert reconstruct(os, Trace(0)) == Trace(0)


def test_extract_requires_initial_state():
    with pytest.raises(TransitionError):
        extract(counter_os(), Trace(5))


def test_extract_flags_first_bad_transition():
    good = VirtualPayload(Action.of("inc", amount=2), 2)
    bad = VirtualPayload(Action.of("inc", amount=1), 7)  # 2 + 1 != 7
    with pytest.raises(TransitionError) as err:
        extract(counter_os(), Trace(0, (good, bad)))
    assert err.value.index == 1


def test_round_trip_and_length():
    os = counter_os()
    rng = random.Random(3)
    for _ in range(25):
        t = random_walk(rng)
        at = extract(os, t)
        assert at.size == t.size
        back = reconstruct(os, at)
        assert back == t
        assert extract(os, back) == at


def test_check_faithful_empty_and_samples():
    os = counter_os()
    assert check_faithful(os, []).ok
    rng = random.Random(11)
    report = check_faithful(os, [random_walk(rng) for _ in range(10)])
    assert report.ok and len(report.entries) == 10


def test_check_faithful_flags_lossy_semantics():
    rng = random.Random(5)
    samples = [random_walk(rng) for _ in range(5)]
    report = check_faithful(lossy_counter_os(), samples)
    assert not report.ok
    assert any("FAIL" in line for line in report.lines())


def test_corrupted_record_is_localized():
    os = counter_os()
    t = random_walk(random.Random(9), steps=6)
    at = extract(os, t)
    records = list(at.events)
    kind, delta = records[3].record
    records[3] = ActualPayload((kind, delta + (1 if delta > 0 else -1)))
    back = reconstruct(os, Trace(0, tuple(records)))
    assert first_divergence(t, back) == 3


def test_reconstruct_rejects_bad_record():
    with pytest.raises(ReconstructionError) as err:
        reconstruct(counter_os(), Trace(0, (ActualPayload(("inc", -2)),)))
    assert err.value.index == 0


def test_transition_relation_membership():
    os = counter_os()
    assert transition_holds(os, 1, Action.of("inc", amount=2), 3)
    assert not transition_holds(os, 1, Action.of("inc", amount=2), 4)
    assert not transition_holds(os, 1, Action.of("inc", amount=0), 1)


def test_first_divergence_cases():
    a = random_walk(random.Random(1))
    assert first_divergence(a, a) is None
    shorter = Trace(a.initial_state, a.events[:-1])
    assert first_divergence(a, shorter) == a.size - 1
    assert first_divergence(a, Trace(99, a.events)) == -1


def test_extraction_derivable_from_reconstruction():
    os = counter_os()
    t = random_walk(random.Random(21), steps=8)
    candidates = [(k, d) for k in ("inc", "dec") for d in range(-4, 5) if d]

    derived = extraction_from_reconstruction(os, lambda s: candidates)
    state = t.initial_state
    for ev in t.events:
        assert derived(state, ev.action, ev.state) == _extract(state, ev.action, ev.state)
        state = ev.state


def test_extraction_inversion_needs_unique_candidate():
    os = counter_os()
    derived = extraction_from_reconstruction(os, lambda s: [])
    with pytest.raises(TransitionError):
        derived(0, Action.of("inc", amount=1), 1)


def _two_pass_entry(os, t):
    """The faithfulness verdict built the long way: extract, reconstruct the
    whole trace, then compare."""
    try:
        back = reconstruct(os, extract(os, t))
    except (TransitionError, ReconstructionError) as exc:
        return False, exc.index, str(exc)
    pos = first_divergence(t, back)
    return pos is None, pos, ""


def _corrupt(t, index, how):
    """``t`` with one step or the initial state made invalid."""
    if how == "initial":
        return Trace(t.initial_state + 1, t.events)
    events = list(t.events)
    ev = events[index]
    if how == "state":
        events[index] = VirtualPayload(ev.action, ev.state + 1)
    else:
        events[index] = VirtualPayload(Action.of(ev.action.kind, amount=0), ev.state)
    return Trace(t.initial_state, tuple(events))


SEMANTICS = {"counter": counter_os, "lossy": lossy_counter_os, "floored": floored_lossy_counter_os}


@given(st.sampled_from(sorted(SEMANTICS)), st.integers(0, 2**32 - 1), st.integers(0, 8),
       st.none() | st.tuples(st.integers(0, 7), st.sampled_from(["state", "action", "initial"])))
def test_one_pass_check_matches_extract_reconstruct_compare(os_name, seed, steps, corruption):
    os = SEMANTICS[os_name]()
    t = random_walk(random.Random(seed), steps=steps)
    if corruption is not None and steps:
        index, how = corruption
        t = _corrupt(t, index % steps, how)
    entry = check_faithful(os, [t]).entries[0]
    assert (entry.ok, entry.divergence, entry.detail) == _two_pass_entry(os, t)


def test_replay_keeps_its_own_chain_after_a_divergence():
    # the lossy replay drifts at step 0 (inc 1, not inc 3) and then runs
    # below zero at step 2, where the trace itself stays at 1
    steps = [("inc", 3), ("dec", 1), ("dec", 1), ("dec", 1)]
    state, events = 0, []
    for kind, amount in steps:
        state = _apply(state, Action.of(kind, amount=amount))
        events.append(VirtualPayload(Action.of(kind, amount=amount), state))
    t = Trace(0, tuple(events))
    os = floored_lossy_counter_os()
    assert first_divergence(t, reconstruct(lossy_counter_os(), extract(os, t))) == 0
    entry = check_faithful(os, [t]).entries[0]
    assert (entry.ok, entry.divergence) == (False, 2)
    assert "counter below zero" in entry.detail
    assert (entry.ok, entry.divergence, entry.detail) == _two_pass_entry(os, t)


def test_one_pass_check_matches_the_long_way_on_both_machines():
    # each run clean and with one step's state replaced by the next step's
    rng = random.Random(2011)
    problems = [ladder(4)] + [random_problem(rng) for _ in range(20)]
    for os, run in ((make_semantics(), solve), (make_palm_semantics(), palm_solve)):
        for problem in problems:
            t = run(problem).virtual
            j = rng.randrange(t.size - 1)
            events = list(t.events)
            events[j] = VirtualPayload(events[j].action, events[j + 1].state)
            for sample in (t, Trace(t.initial_state, tuple(events))):
                entry = check_faithful(os, [sample]).entries[0]
                assert entry.ok == (sample is t)
                assert (entry.ok, entry.divergence, entry.detail) == _two_pass_entry(os, sample)


@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 6), st.integers(-1, 1))
def test_replay_divergence_matches_first_divergence(seed, ref_steps, actual_steps, start_shift):
    # the reference and the replayed trace may differ in their initial
    # states (position -1), in their lengths (position min(size)) or in
    # any step
    os = counter_os()
    rng = random.Random(seed)
    reference = random_walk(rng, steps=ref_steps)
    walk = random_walk(rng, steps=actual_steps) if rng.random() < 0.5 else reference
    actual = extract(os, Trace(0, walk.events[:actual_steps]))
    reference = Trace(reference.initial_state + start_shift, reference.events)
    assert replay_divergence(os, actual, reference) == first_divergence(reference, reconstruct(os, actual))
