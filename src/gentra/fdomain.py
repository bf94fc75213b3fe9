"""Finite integer domains represented as sorted lists of closed intervals.

The upper bound of the value universe is a configurable sentinel ``mx``;
domains store plain integers and only the text renderer knows to print the
sentinel symbolically (``[0-mx]``, ``[0-1,3-4,6,8-mx]``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import GentraError

DEFAULT_MX = 2**28 - 1

# Iterating a domain wider than this is almost certainly a bug.
_VALUES_GUARD = 1 << 20


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
        """Normalize possibly overlapping/unsorted intervals into a domain."""
        acc = EMPTY_DOMAIN
        for lo, hi in parts:
            acc = acc.union(FiniteDomain.interval(lo, hi))
        return acc

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

    # set algebra

    def union(self, other: "FiniteDomain") -> "FiniteDomain":
        merged = sorted(self.intervals + other.intervals)
        parts: list[tuple[int, int]] = []
        for lo, hi in merged:
            if parts and lo <= parts[-1][1] + 1:
                parts[-1] = (parts[-1][0], max(parts[-1][1], hi))
            else:
                parts.append((lo, hi))
        return _normal(tuple(parts))

    def intersect(self, other: "FiniteDomain") -> "FiniteDomain":
        parts = []
        for alo, ahi in self.intervals:
            for blo, bhi in other.intervals:
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo <= hi:
                    parts.append((lo, hi))
        return _normal(tuple(parts))

    def subtract(self, other: "FiniteDomain") -> "FiniteDomain":
        parts = []
        for lo, hi in self.intervals:
            segments = [(lo, hi)]
            for blo, bhi in other.intervals:
                nxt = []
                for slo, shi in segments:
                    if bhi < slo or blo > shi:
                        nxt.append((slo, shi))
                        continue
                    if slo < blo:
                        nxt.append((slo, blo - 1))
                    if bhi < shi:
                        nxt.append((bhi + 1, shi))
                segments = nxt
            parts.extend(segments)
        return _normal(tuple(parts))

    def issubset(self, other: "FiniteDomain") -> bool:
        return self.subtract(other).is_empty()

    def disjoint(self, other: "FiniteDomain") -> bool:
        return self.intersect(other).is_empty()


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
        try:
            if "-" in chunk:
                lo_txt, hi_txt = chunk.split("-", 1)
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
        return FiniteDomain.interval(lo, hi)
    value = mx if text == "mx" else int(text)
    return FiniteDomain.interval(value, value)
