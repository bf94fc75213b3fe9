from unittest import mock

import pytest
from hypothesis import given, strategies as st

from gentra import fdomain
from gentra.errors import GentraError
from gentra.fdomain import (
    DEFAULT_MX,
    EMPTY_DOMAIN,
    FiniteDomain,
    format_domain,
    full_domain,
    parse_domain,
    parse_range,
)

small_sets = st.sets(st.integers(min_value=0, max_value=30), max_size=12)


def test_of_normalizes():
    d = FiniteDomain.of([5, 1, 2, 3, 9])
    assert d.intervals == ((1, 3), (5, 5), (9, 9))


def test_constructor_rejects_overlap_and_adjacency():
    with pytest.raises(GentraError):
        FiniteDomain(((0, 2), (2, 4)))
    with pytest.raises(GentraError):
        FiniteDomain(((0, 2), (3, 4)))  # adjacent intervals must be merged
    with pytest.raises(GentraError):
        FiniteDomain(((4, 2),))


def test_queries():
    d = FiniteDomain.of([2, 5, 7])
    assert d.min_value() == 2 and d.max_value() == 7 and d.size() == 3
    assert 5 in d and 6 not in d
    assert not d.is_singleton()
    assert FiniteDomain.of([4]).singleton_value() == 4
    assert EMPTY_DOMAIN.is_empty()


# one range, the common right operand of subtract: it takes a direct path
ranges = st.builds(lambda lo, n: set(range(lo, lo + n)), st.integers(0, 30), st.integers(1, 8))


@given(small_sets, st.one_of(small_sets, ranges), st.booleans())
def test_set_algebra_matches_python_sets(a, b, high):
    if high:  # the same sets placed just below the universe's upper bound
        a, b = {DEFAULT_MX - v for v in a}, {DEFAULT_MX - v for v in b}
    da, db = FiniteDomain.of(a), FiniteDomain.of(b)
    for result, expected in ((da.union(db), a | b), (da.intersect(db), a & b), (da.subtract(db), a - b)):
        assert set(result.values()) == expected
        assert FiniteDomain(result.intervals) == result  # normal: the checking constructor accepts it
    assert da.issubset(db) == (a <= b)
    assert da.disjoint(db) == (not (a & b))
    # an operation that changes nothing returns its operand
    assert (da.subtract(db) is da) == (not (a & b))
    if not b:
        assert da.union(db) is da
    if not a:
        assert da.union(db) is db


@given(small_sets, st.one_of(small_sets, ranges))
def test_subset_and_disjointness_build_no_domain(a, b):
    da, db = FiniteDomain.of(a), FiniteDomain.of(b)
    with mock.patch.object(fdomain, "_normal", side_effect=AssertionError("built a domain")):
        assert da.issubset(db) == (a <= b)
        assert da.disjoint(db) == (not (a & b))


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5)), max_size=8))
def test_parse_merges_shuffled_overlapping_literals(pieces):
    # the pieces come in any order, may overlap or touch, and may repeat
    literal = "[" + ",".join(f"{lo}-{lo + n}" if n else str(lo) for lo, n in pieces) + "]"
    values = {v for lo, n in pieces for v in range(lo, lo + n + 1)}
    assert parse_domain(literal) == FiniteDomain.of(values)


def test_wide_intervals_never_enumerate():
    top = full_domain()
    carved = top.subtract(FiniteDomain.of([0, 1, 2]))
    assert carved.min_value() == 3
    assert carved.size() == DEFAULT_MX - 2
    with pytest.raises(GentraError):
        list(carved.values())


def test_format_examples():
    mx = DEFAULT_MX
    d = FiniteDomain.of([0, 1, 3, 4, 6]).union(FiniteDomain.interval(8, mx))
    assert format_domain(d, mx) == "[0-1,3-4,6,8-mx]"
    assert format_domain(full_domain(mx), mx) == "[0-mx]"
    assert format_domain(EMPTY_DOMAIN, mx) == "[]"
    assert format_domain(FiniteDomain.of([6]), mx) == "[6]"


@given(small_sets)
def test_parse_inverts_format(values):
    d = FiniteDomain.of(values)
    assert parse_domain(format_domain(d)) == d


@given(st.sets(st.integers(-40, 40), max_size=12), st.sampled_from([DEFAULT_MX, 20]))
def test_parse_inverts_format_with_negative_bounds(values, mx):
    # a signed lower bound, and a signed upper bound after the range's dash
    d = FiniteDomain.of(values)
    assert parse_domain(format_domain(d, mx), mx) == d


@pytest.mark.parametrize("literal,lo,hi", [("[-2-1]", -2, 1), ("[-3--1]", -3, -1), ("[-5]", -5, -5),
                                          ("[-7-mx]", -7, DEFAULT_MX)])
def test_negative_intervals_read_back(literal, lo, hi):
    d = FiniteDomain.interval(lo, hi)
    assert format_domain(d) == literal
    assert parse_domain(literal) == d


def test_parse_domain_forms():
    assert parse_domain("[0,4-mx]") == FiniteDomain.of([0]).union(
        FiniteDomain.interval(4, DEFAULT_MX))
    assert parse_domain("[]") == EMPTY_DOMAIN
    with pytest.raises(GentraError):
        parse_domain("0-4")
    with pytest.raises(GentraError):
        parse_domain("[5-2]")


def test_parse_range():
    assert parse_range("0..mx") == full_domain()
    assert parse_range("2..5") == FiniteDomain.interval(2, 5)
    assert parse_range("[1,3]") == FiniteDomain.of([1, 3])
    assert parse_range("7") == FiniteDomain.of([7])
    assert parse_range("2..2") == FiniteDomain.of([2])
    for text in ("5..1", "-1..-3", "4..mx"):
        with pytest.raises(GentraError, match="descending bounds"):
            parse_range(text, mx=3)
