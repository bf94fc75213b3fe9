"""Finite integer domains represented as sorted lists of closed intervals.

The upper bound of the value universe is a configurable sentinel ``mx``;
domains store plain integers and only the text renderer knows to print the
sentinel symbolically (``[0-mx]``, ``[0-1,3-4,6,8-mx]``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import GentraError

DEFAULT_MX = 2**28 - 1

# Iterating a domain wider than this is almost certainly a bug.
_VALUES_GUARD = 1 << 20

_LO, _HI = itemgetter(0), itemgetter(1)


class _Intervals(NamedTuple):
    intervals: tuple[tuple[int, int], ...] = ()


class FiniteDomain(_Intervals):
    """An immutable set of integers, kept as disjoint ascending intervals.

    A named tuple, so it compares and hashes by value in C.  The constructor
    checks the intervals; the set algebra builds its results, normal by
    construction, without the check (``_normal``).
    """

    __slots__ = ()

    def __new__(cls, intervals=()):
        prev_hi = None
        for lo, hi in intervals:
            if lo > hi:
                raise GentraError(f"malformed interval [{lo},{hi}]")
            if prev_hi is not None and lo <= prev_hi + 1:
                raise GentraError("intervals must be disjoint, non-adjacent, ascending")
            prev_hi = hi
        return tuple.__new__(cls, (intervals,))

    @staticmethod
    def of(values: Iterable[int]) -> "FiniteDomain":
        """Build a domain from arbitrary integers, normalizing into intervals."""
        vs = sorted(set(values))
        if not vs:
            return EMPTY_DOMAIN
        parts = []
        lo = hi = vs[0]
        for v in vs[1:]:
            if v == hi + 1:
                hi = v
            else:
                parts.append((lo, hi))
                lo = hi = v
        parts.append((lo, hi))
        return _normal(tuple(parts))

    @staticmethod
    def interval(lo: int, hi: int) -> "FiniteDomain":
        if lo > hi:
            return EMPTY_DOMAIN
        return _normal(((lo, hi),))

    @staticmethod
    def from_intervals(parts: Iterable[tuple[int, int]]) -> "FiniteDomain":
        """Normalize possibly overlapping/unsorted intervals into a domain in one
        sort-and-merge pass; an interval with ``lo > hi`` is empty."""
        out: list[tuple[int, int]] = []
        for lo, hi in sorted(p for p in parts if p[0] <= p[1]):
            if out and lo <= out[-1][1] + 1:
                out[-1] = (out[-1][0], max(out[-1][1], hi))
            else:
                out.append((lo, hi))
        return _normal(tuple(out))

    # set queries

    def is_empty(self) -> bool:
        return not self.intervals

    def is_singleton(self) -> bool:
        return len(self.intervals) == 1 and self.intervals[0][0] == self.intervals[0][1]

    def singleton_value(self) -> int:
        if not self.is_singleton():
            raise GentraError(f"domain {self.intervals} is not a singleton")
        return self.intervals[0][0]

    def min_value(self) -> int:
        if self.is_empty():
            raise GentraError("empty domain has no minimum")
        return self.intervals[0][0]

    def max_value(self) -> int:
        if self.is_empty():
            raise GentraError("empty domain has no maximum")
        return self.intervals[-1][1]

    def size(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.intervals)

    def __contains__(self, value: int) -> bool:
        return any(lo <= value <= hi for lo, hi in self.intervals)

    def values(self) -> Iterator[int]:
        """Iterate members in ascending order. Guarded against huge domains."""
        if self.size() > _VALUES_GUARD:
            raise GentraError(f"refusing to enumerate {self.size()} values")
        for lo, hi in self.intervals:
            yield from range(lo, hi + 1)

    # set algebra: merges over the two ascending interval tuples; an operation
    # that changes nothing returns its operand

    def union(self, other: "FiniteDomain") -> "FiniteDomain":
        if not (self.intervals and other.intervals):
            return other if other.intervals else self
        return FiniteDomain.from_intervals(self.intervals + other.intervals)

    def intersect(self, other: "FiniteDomain") -> "FiniteDomain":
        a, b = self.intervals, other.intervals
        parts = []
        i = j = 0
        while i < len(a) and j < len(b):
            (alo, ahi), (blo, bhi) = a[i], b[j]
            if alo <= bhi and blo <= ahi:
                parts.append((max(alo, blo), min(ahi, bhi)))
            if ahi < bhi:
                i += 1
            else:
                j += 1
        parts = tuple(parts)
        return self if parts == a else _normal(parts)

    def subtract(self, other: "FiniteDomain") -> "FiniteDomain":
        a, b = self.intervals, other.intervals
        if len(b) == 1:  # one range: keep a's intervals outside it, cut the two it ends in
            blo, bhi = b[0]
            i, k = bisect_left(a, blo, key=_HI), bisect_right(a, bhi, key=_LO)
            if i == k:
                return self
            head = ((a[i][0], blo - 1),) if a[i][0] < blo else ()
            tail = ((bhi + 1, a[k - 1][1]),) if a[k - 1][1] > bhi else ()
            return _normal(a[:i] + head + tail + a[k:])
        parts = []
        j = 0
        for lo, hi in a:
            while j < len(b) and b[j][1] < lo:
                j += 1
            k = j
            while k < len(b) and b[k][0] <= hi:  # each b[k] here ends at or after lo
                if b[k][0] > lo:
                    parts.append((lo, b[k][0] - 1))
                lo = b[k][1] + 1
                k += 1
            if lo <= hi:
                parts.append((lo, hi))
        parts = tuple(parts)
        return self if parts == a else _normal(parts)

    def issubset(self, other: "FiniteDomain") -> bool:
        # other's intervals are maximal: each of self's lies inside the first that ends at or after its start
        b = other.intervals
        for lo, hi in self.intervals:
            j = bisect_left(b, lo, key=_HI)
            if j == len(b) or b[j][0] > lo or b[j][1] < hi:
                return False
        return True

    def disjoint(self, other: "FiniteDomain") -> bool:
        # each of self's intervals ends before the first of other's that ends at or after its start
        b = other.intervals
        for lo, hi in self.intervals:
            j = bisect_left(b, lo, key=_HI)
            if j < len(b) and b[j][0] <= hi:
                return False
        return True


def _normal(intervals: tuple[tuple[int, int], ...]) -> FiniteDomain:
    """The domain of intervals already disjoint, non-adjacent and ascending."""
    return tuple.__new__(FiniteDomain, (intervals,))


EMPTY_DOMAIN = FiniteDomain()


def full_domain(mx: int = DEFAULT_MX) -> FiniteDomain:
    return FiniteDomain.interval(0, mx)


def format_domain(dom: FiniteDomain, mx: int = DEFAULT_MX) -> str:
    """Render a domain as ``[0-1,3-4,6,8-mx]``; the empty domain is ``[]``."""
    parts = []
    for lo, hi in dom.intervals:
        hi_txt = "mx" if hi == mx else str(hi)
        parts.append(str(lo) if lo == hi else f"{lo}-{hi_txt}")
    return "[" + ",".join(parts) + "]"


def parse_domain(text: str, mx: int = DEFAULT_MX) -> FiniteDomain:
    """Parse a ``[..]`` domain literal; inverse of :func:`format_domain`."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise GentraError(f"domain literal must be bracketed: {text!r}")
    body = body[1:-1].strip()
    if not body:
        return EMPTY_DOMAIN
    parts = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        cut = chunk.find("-", 1)  # a '-' in front is the lower bound's sign, not the range's dash
        try:
            if cut > 0:
                lo_txt, hi_txt = chunk[:cut], chunk[cut + 1:]
                lo = int(lo_txt)
                hi = mx if hi_txt.strip() == "mx" else int(hi_txt)
            else:
                lo = hi = mx if chunk == "mx" else int(chunk)
        except ValueError:
            raise GentraError(f"not an integer or interval in domain literal {text!r}: {chunk!r}") from None
        if lo > hi:
            raise GentraError(f"descending interval in domain literal: {chunk!r}")
        parts.append((lo, hi))
    return FiniteDomain.from_intervals(parts)


def parse_range(text: str, mx: int = DEFAULT_MX) -> FiniteDomain:
    """Parse a ``lo..hi`` range (``hi`` may be ``mx``) or a domain literal."""
    text = text.strip()
    if text.startswith("["):
        return parse_domain(text, mx)
    if ".." in text:
        lo_txt, hi_txt = text.split("..", 1)
        lo = int(lo_txt)
        hi = mx if hi_txt.strip() == "mx" else int(hi_txt)
        if lo > hi:
            raise GentraError(f"descending bounds {lo} > {hi}")
        return FiniteDomain.interval(lo, hi)
    value = mx if text == "mx" else int(text)
    return FiniteDomain.interval(value, value)
