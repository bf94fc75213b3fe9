"""Per-event cost guards: work per event must not grow with trace length.

Wall-clock time is too noisy for a unit test, so each guard counts a
deterministic proxy for the work instead and compares events at the bottom
and the top of the path-colouring ladder.
"""

from gentra.gentra4cp import make_semantics
from gentra.semantics import check_faithful
from gentra.solver import solve
from gentra.state import SolverState

from support import ladder

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
        virtual = solve(ladder(k)).virtual
        calls = 0
        assert check_faithful(os, [virtual]).ok
        per_event[k] = calls / virtual.size
    assert per_event[6] <= GROWTH_LIMIT * per_event[4], per_event
