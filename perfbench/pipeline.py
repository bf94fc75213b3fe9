"""The solve -> validate -> check-compliance pipeline, called through
gentra's public functions, in a timed form and a traced form.

The timed form makes the calls a user of the library makes.  The traced form
splits the two composite checkers into their public parts (``validate`` into
replay and ``check_guards``; ``check_faithful`` into ``extract``,
``reconstruct`` and ``first_divergence``) and puts a span around each call,
so that each layer's time can be read off the spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from gentra.abstraction import (
    check_simulable,
    map_palm_state,
    palm_mapping,
    palm_profile,
    palm_to_generic,
    project,
)
from gentra.errors import MappingError, ReconstructionError
from gentra.formats import document_for_events, parse_problem, parse_trace, serialize_trace
from gentra.gentra4cp import check_guards, make_semantics, validate
from gentra.palm import make_palm_semantics, palm_initial_state, palm_solve
from gentra.semantics import check_faithful, extract, first_divergence, reconstruct
from gentra.solver import solve
from gentra.trace import ActualPayload, Trace

FD_GUARDS = ("g1", "g2", "g3")
PALM_GUARDS = ("g1", "g2", "g3", "g4", "g5")
NODE_EVENTS = frozenset({"newChild", "solution", "failure"})


@dataclass(frozen=True)
class Counts:
    """What a run produced; must repeat exactly for a given input."""

    events: int
    nodes: int
    solutions: int
    bytes: int


@dataclass(frozen=True)
class Run:
    """One pass of the pipeline over one problem on one machine."""

    text: str
    solutions: tuple
    counts: Counts
    verdict: tuple[bool, int | None]
    stages: dict[str, tuple[float, float]]  # solve, check, pipeline: (start, end); empty when traced
    states: tuple = ()  # palm states, for the state-map probe


def _counts(events, text: str, solutions) -> Counts:
    nodes = sum(1 for e in events if e.type in NODE_EVENTS)
    return Counts(len(events), nodes, len(solutions), len(text.encode()))


def _first_index(report) -> int | None:
    if report.error is not None:
        return report.error.index
    return report.guard_report.violations[0].index


class Tracer:
    """In-memory spans: (name, start, end, parent span index, unit), with
    times in seconds of ``time.perf_counter``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.unit = None
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.index)
        self.start = perf_counter()

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        tr._stack.pop()
        parent = tr._stack[-1] if tr._stack else None
        tr.spans[self.index] = (self.name, self.start, end, parent, tr.unit)
        return False


class Pipelines:
    """The semantics objects every check needs, built once."""

    def __init__(self):
        self.gt = make_semantics()
        self.palm_os = make_palm_semantics()
        self.projected = project(make_semantics(), palm_profile())
        self.mapping = palm_mapping()

    # verdicts from trace text: (passed, first refused event index)

    def fd_verdict(self, text: str) -> tuple[bool, int | None]:
        report = validate(parse_trace(text).events, guards=FD_GUARDS)
        if not report.ok:
            return False, _first_index(report)
        faithful = check_faithful(self.gt, [report.virtual])
        return faithful.ok, faithful.entries[0].divergence

    def palm_verdict(self, text: str) -> tuple[bool, int | None]:
        doc = parse_trace(text, dialect="palm")
        actual = Trace(palm_initial_state(), tuple(ActualPayload(e) for e in doc.events))
        try:
            virtual = reconstruct(self.palm_os, actual)
        except ReconstructionError as exc:
            return False, exc.index
        try:
            mapped = palm_to_generic(doc.events)
        except MappingError:
            return False, None
        report = validate(mapped, os=self.projected, guards=PALM_GUARDS)
        if not report.ok:
            return False, _first_index(report)
        sim = check_simulable(self.palm_os, self.projected, self.mapping, [virtual])
        return sim.ok, sim.violations[0].event if sim.violations else None

    def verdict(self, machine: str, text: str) -> tuple[bool, int | None]:
        return self.fd_verdict(text) if machine == "fd" else self.palm_verdict(text)

    # the timed pipeline

    def run(self, machine: str, problem_text: str) -> Run:
        t0 = perf_counter()
        problem = parse_problem(problem_text)
        t1 = perf_counter()
        if machine == "fd":
            result = solve(problem)
            t2 = perf_counter()
            text = serialize_trace(document_for_events(result.events, solver="fd"))
            t3 = perf_counter()
            verdict = self.fd_verdict(text)
        else:
            result = palm_solve(problem)
            t2 = perf_counter()
            text = serialize_trace(document_for_events(result.events, dialect="palm", solver="palm"))
            t3 = perf_counter()
            verdict = self.palm_verdict(text)
        t4 = perf_counter()
        stages = {"solve": (t1, t2), "check": (t3, t4), "pipeline": (t0, t4)}
        return Run(text, result.solutions, _counts(result.events, text, result.solutions), verdict, stages)

    # the traced pipeline

    def run_traced(self, machine: str, problem_text: str, tr: Tracer) -> Run:
        with tr.span("pipeline"):
            with tr.span("formats.parse_problem"):
                problem = parse_problem(problem_text)
            if machine == "fd":
                run = self._fd_traced(problem, tr)
            else:
                run = self._palm_traced(problem, tr)
        return run

    def _fd_traced(self, problem, tr: Tracer) -> Run:
        with tr.span("solver.solve"):
            result = solve(problem)
        with tr.span("formats.serialize"):
            text = serialize_trace(document_for_events(result.events, solver="fd"))
        with tr.span("check"):
            with tr.span("formats.parse"):
                doc = parse_trace(text)
            with tr.span("gentra4cp.replay"):
                report = validate(doc.events, guards=())
            verdict = (report.ok, _first_index(report) if not report.ok else None)
            if report.ok:
                with tr.span("gentra4cp.guards"):
                    guards = check_guards(report.virtual, FD_GUARDS)
                with tr.span("semantics.extract"):
                    actual = extract(self.gt, report.virtual)
                with tr.span("semantics.reconstruct"):
                    back = reconstruct(self.gt, actual)
                with tr.span("semantics.compare"):
                    divergence = first_divergence(report.virtual, back)
                verdict = (guards.ok and divergence is None, divergence)
        return Run(text, result.solutions, _counts(result.events, text, result.solutions), verdict, {})

    def _palm_traced(self, problem, tr: Tracer) -> Run:
        with tr.span("palm.solve"):
            result = palm_solve(problem)
        with tr.span("formats.serialize"):
            text = serialize_trace(document_for_events(result.events, dialect="palm", solver="palm"))
        with tr.span("check"):
            with tr.span("formats.parse"):
                doc = parse_trace(text, dialect="palm")
            actual = Trace(palm_initial_state(), tuple(ActualPayload(e) for e in doc.events))
            with tr.span("palm.replay"):
                virtual = reconstruct(self.palm_os, actual)
            with tr.span("abstraction.map"):
                mapped = palm_to_generic(doc.events)
            with tr.span("gentra4cp.replay"):
                report = validate(mapped, os=self.projected, guards=())
            verdict = (report.ok, _first_index(report) if not report.ok else None)
            if report.ok:
                with tr.span("gentra4cp.guards"):
                    guards = check_guards(report.virtual, PALM_GUARDS)
                with tr.span("abstraction.simulate"):
                    sim = check_simulable(self.palm_os, self.projected, self.mapping, [virtual])
                verdict = (guards.ok and sim.ok, sim.violations[0].event if sim.violations else None)
        states = (virtual.initial_state,) + tuple(e.state for e in virtual.events)
        return Run(text, result.solutions, _counts(result.events, text, result.solutions), verdict, {},
                   states)


def map_states(states, tr: Tracer) -> None:
    """The palm-to-generic state map applied once per state, as its own span."""
    with tr.span("abstraction.state_map"):
        for state in states:
            map_palm_state(state)
