"""Framework-level tests against a toy counter machine."""

import random

import pytest

from gentra.errors import ReconstructionError, TransitionError
from gentra.semantics import (
    Action,
    ObservationalSemantics,
    check_faithful,
    extract,
    first_divergence,
    reconstruct,
    transition_holds,
)
from gentra.trace import ActualPayload, Trace, VirtualPayload

from support import extraction_from_reconstruction


def _apply(state, action):
    amount = action.get("amount")
    if action.kind not in ("inc", "dec") or amount is None or amount <= 0:
        raise TransitionError(action.kind, "unknown action or non-positive amount")
    return state + amount if action.kind == "inc" else state - amount


def _extract(state, action, successor):
    return (action.kind, successor - state)


def _reconstruct(state, record):
    kind, delta = record
    if kind == "inc" and delta > 0:
        return Action.of("inc", amount=delta), state + delta
    if kind == "dec" and delta < 0:
        return Action.of("dec", amount=-delta), state + delta
    raise ReconstructionError(kind, f"malformed record {record!r}")


def counter_os():
    return ObservationalSemantics(
        name="counter",
        action_kinds=frozenset({"inc", "dec"}),
        apply=_apply,
        extract_local=_extract,
        reconstruct_local=_reconstruct,
        is_initial=lambda s: s == 0,
    )


def lossy_counter_os():
    """Extraction drops the amount, so reconstruction cannot invert it."""
    return ObservationalSemantics(
        name="lossy-counter",
        action_kinds=frozenset({"inc", "dec"}),
        apply=_apply,
        extract_local=lambda s, a, s2: (a.kind, 1 if a.kind == "inc" else -1),
        reconstruct_local=_reconstruct,
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
