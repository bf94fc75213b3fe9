import random

import pytest
from hypothesis import given, strategies as st

from gentra.errors import ClosureError, KindMismatchError, PrefixRangeError
from gentra.palm import palm_solve
from gentra.solver import solve
from gentra.trace import (
    EMPTY_SEGMENT,
    ActualPayload,
    Segment,
    Trace,
    TraceDomain,
    VirtualPayload,
    _actual_payloads,
    _payload,
    all_prefixes,
    concat,
    domain_join,
    domain_meet,
    is_prefix_closed,
)

from support import canonical_traces, generated_domain, ladder, random_trace_set, solved

E1, E2, E3 = (VirtualPayload(a, s) for a, s in [("a", "s1"), ("b", "s2"), ("c", "s3")])


def test_prefix_basics():
    t = Trace("s0", (E1, E2, E3))
    assert t.prefix(0) == Trace("s0")
    assert t.prefix(t.size) == t
    # enumerate all four prefixes and pick index 2
    enumerated = [Trace("s0", t.events[:k]) for k in range(4)]
    assert t.prefix(2) == enumerated[2] == Trace("s0", (E1, E2))
    assert list(t.prefixes()) == enumerated


def test_prefix_out_of_range():
    t = Trace("s0", (E1,))
    with pytest.raises(PrefixRangeError):
        t.prefix(2)
    with pytest.raises(PrefixRangeError):
        t.prefix(-1)


def test_size_zero_trace_is_just_a_state():
    t = Trace("s0")
    assert t.size == 0 and t.kind is None


def test_mixed_payload_kinds_rejected():
    with pytest.raises(KindMismatchError):
        Trace("s0", (E1, ActualPayload("rec")))


def test_cheap_payloads_are_the_payloads_the_class_call_builds():
    records = (("r", 1), None, "r")
    built = _actual_payloads(records)
    assert built == tuple(ActualPayload(r) for r in records) and built[0].record == ("r", 1)
    virtual = _payload(VirtualPayload, ("a", "s1"))
    for cheap, called in [(built[0], ActualPayload(("r", 1))), (virtual, E1)]:
        assert type(cheap) is type(called)
        assert cheap == called and hash(cheap) == hash(called) and repr(cheap) == repr(called)
    assert virtual.action == "a" and virtual.state == "s1"
    assert Trace("s0", built).kind == "actual" and Trace("s0", (virtual,)).kind == "virtual"


def test_all_prefixes_examples():
    t = Trace("s0", (E1, E2))
    ps = all_prefixes([t])
    assert len(ps) == 3 and t in ps and Trace("s0") in ps
    assert all_prefixes([]) == frozenset()
    # two traces sharing the initial state and first event: one prefix per
    # size is shared twice, so the count is size(T1) + size(T2)
    t1 = Trace("s0", (E1, E2))
    t2 = Trace("s0", (E1, E3))
    brute = {p for t in (t1, t2) for p in t.prefixes()}
    ps = all_prefixes([t1, t2])
    assert ps == frozenset(brute)
    assert len(ps) == t1.size + t2.size


@pytest.mark.parametrize("run", [solve, palm_solve])
def test_solver_traces_hash_into_prefix_sets(run):
    # states hash by every field but their dicts, so prefix sets take them
    _result, v = solved(run, ladder(2))
    ps = all_prefixes([v])
    assert len(ps) == v.size + 1
    assert is_prefix_closed(ps)


def test_all_prefixes_kind_mismatch():
    with pytest.raises(KindMismatchError):
        all_prefixes([Trace("s0", (E1,)), Trace("s0", (ActualPayload("r"),))])


def test_concat_laws():
    s = Segment((E1, E2))
    assert concat(EMPTY_SEGMENT, s) == s
    assert concat(s, EMPTY_SEGMENT) == s
    t = Segment((E3,))
    assert concat(s, t).events == (E1, E2, E3)
    assert concat(s, t).size == s.size + t.size
    u = Segment((E2,))
    assert concat(concat(s, t), u) == concat(s, concat(t, u))


def test_domain_ops_examples():
    top = all_prefixes([Trace("s0", (E1, E2, E3))])
    x = all_prefixes([Trace("s0", (E1,))])
    assert domain_meet(x, frozenset()) == frozenset()
    assert domain_join(x, top) == top
    assert domain_meet(x, top) == x


def test_domain_ops_require_closure():
    not_closed = frozenset({Trace("s0", (E1, E2))})
    with pytest.raises(ClosureError):
        domain_join(not_closed, frozenset())
    with pytest.raises(ClosureError):
        domain_meet(frozenset(), not_closed)


def test_containment_semantics():
    smaller = all_prefixes([Trace("s0", (E1,))])
    larger = all_prefixes([Trace("s0", (E1, E2)), Trace("s0", (E3,))])
    assert smaller <= larger
    for t in smaller:
        assert all(p in larger for p in t.prefixes())


def test_canonical_order_deterministic():
    ps = all_prefixes([Trace("s0", (E1, E2)), Trace("s0", (E3,))])
    order = canonical_traces(ps)
    assert order == canonical_traces(frozenset(order))
    assert [t.size for t in order] == sorted(t.size for t in ps)


def test_trace_domain_generated_by_is_closed():
    a = all_prefixes([Trace("s0", (E1,))])
    b = all_prefixes([Trace("s0", (E2, E3))])
    dom = generated_domain([a, b])
    assert a in dom.members and b in dom.members
    assert dom.bottom == frozenset()
    assert dom.top == frozenset(a | b)
    assert frozenset(a | b) in dom.members
    assert frozenset(a & b) in dom.members


def test_trace_domain_rejects_unclosed_member():
    with pytest.raises(ClosureError):
        TraceDomain(frozenset([frozenset({Trace("s0", (E1, E2))})]))


# law suite over random small trace sets

traces_strategy = st.lists(
    st.builds(
        Trace,
        st.just("s0"),
        st.lists(st.sampled_from([E1, E2, E3]), max_size=6).map(tuple),
    ),
    max_size=5,
)


@given(traces_strategy, traces_strategy)
def test_lattice_laws(ts1, ts2):
    x = all_prefixes(ts1)
    y = all_prefixes(ts2)
    assert is_prefix_closed(domain_join(x, y))
    assert is_prefix_closed(domain_meet(x, y))
    assert domain_join(x, x) == x and domain_meet(x, x) == x
    assert domain_join(x, y) == domain_join(y, x)
    assert domain_meet(x, y) == domain_meet(y, x)
    assert domain_join(x, domain_meet(x, y)) == x
    assert domain_meet(x, domain_join(x, y)) == x


@given(traces_strategy, traces_strategy, traces_strategy)
def test_lattice_associativity(ts1, ts2, ts3):
    x, y, z = all_prefixes(ts1), all_prefixes(ts2), all_prefixes(ts3)
    assert domain_join(domain_join(x, y), z) == domain_join(x, domain_join(y, z))
    assert domain_meet(domain_meet(x, y), z) == domain_meet(x, domain_meet(y, z))


@given(traces_strategy)
def test_all_prefixes_idempotent(ts):
    once = all_prefixes(ts)
    assert all_prefixes(once) == once


@given(traces_strategy, traces_strategy)
def test_subset_join_meet(ts1, ts2):
    x = all_prefixes(ts1)
    y = domain_join(x, all_prefixes(ts2))
    assert x <= y
    assert domain_meet(x, y) == x
    assert domain_join(x, y) == y


def test_law_suite_seeded_loop():
    rng = random.Random(7)
    for _ in range(200):
        x = all_prefixes(random_trace_set(rng))
        y = all_prefixes(random_trace_set(rng))
        assert is_prefix_closed(domain_join(x, y))
        assert is_prefix_closed(domain_meet(x, y))
        assert domain_join(x, domain_meet(x, y)) == x
