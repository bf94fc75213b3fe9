"""How fast the host runs right now, from a fixed pure-Python kernel.

On a small shared guest the same code runs up to twice as slow for stretches
of seconds to minutes, and the guest cannot see why: steal time reads 0 and
process CPU time equals wall time.  The kernel does the kind of work gentra
does (small frozen dataclasses, tuples, dict lookups, structural equality,
set algebra), but none of gentra's code, so a change to gentra never changes
it.  Timing the kernel while the benchmark runs tells how much of a
repetition's time was the host, not the program, and ``Speed.rescale``
removes that part.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter

ROUNDS = 1600
# kernel time at the reference speed: the fastest kernel time seen on the
# 2-vCPU Intel Xeon KVM guest (Python 3.11.7) where these values were chosen
REFERENCE_S = 0.0047
PROBE_EVERY_S = 0.1


@dataclass(frozen=True)
class _Node:
    key: str
    values: tuple
    parent: "_Node | None"


def kernel(rounds: int = ROUNDS) -> int:
    """Small frozen objects built, stored in a dict and compared.

    Fitted over the host's slow and fast stretches, the log of a stage's
    time against the log of the kernel's has slope about 1.0 for the fd
    checker and the corpus pipelines, 1.15 for the palm checker and 0.75 for
    the palm solver.  A kernel mixing in long tuple copies tracked them
    worse.
    """
    table: dict[str, _Node] = {}
    node = _Node("root", (), None)
    hits = 0
    for i in range(rounds):
        values = tuple(range(i % 11))
        node = _Node(f"n{i % 37}", values, node if i % 5 else None)
        if table.get(node.key) == _Node(node.key, values, node.parent):
            hits += 1
        table[node.key] = node
        hits += len(frozenset(values) - {3, 5})
    return hits


class Speed:
    """Kernel probes taken every ``PROBE_EVERY_S`` while armed, from a
    SIGALRM timer, so that long repetitions are sampled inside as well as at
    both ends.

    ``rescale`` turns an interval into its time at the reference speed: the
    interval minus the probes that ran inside it, times the reference kernel
    time over the mean of the probes inside it and the nearest probe on
    either side.  The host's speed changes within a second, so nearer probes
    estimate it better than a wider average does.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []

    def probe(self, *_signal_args) -> None:
        # The kernel's objects die by reference counting.  With the collector
        # off they cannot trigger a collection over the interrupted code's
        # objects, which would charge that code for time it did not spend.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            kernel()
            self.starts.append(start)
            self.ends.append(perf_counter())
            self.kernel_s.append(self.ends[-1] - start)
        finally:
            if collecting:
                gc.enable()

    def __enter__(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()
        return False

    def probe_time(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent in probes."""
        lo, hi = bisect_left(self.starts, start), bisect_right(self.ends, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def factor(self, start: float, end: float) -> float:
        before = max(bisect_right(self.ends, start) - 1, 0)
        after = min(bisect_left(self.starts, end), len(self.starts) - 1)
        samples = self.kernel_s[before:after + 1]
        return REFERENCE_S * len(samples) / sum(samples)

    def measured(self, start: float, end: float) -> float:
        return end - start - self.probe_time(start, end)

    def rescale(self, start: float, end: float) -> float:
        return self.measured(start, end) * self.factor(start, end)

    def factors(self) -> list[float]:
        return [REFERENCE_S / k for k in self.kernel_s]
