"""Parsing and serialization: canonical round trips and the fixture corpus."""

import random
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gentra.constraints import ConstraintDecl
from gentra.errors import GentraError, ProblemError, TraceShapeError, TraceSyntaxError
from gentra.fdomain import FiniteDomain, parse_domain
from gentra.formats import (
    diff_events,
    document_for_events,
    parse_declaration,
    parse_problem,
    parse_trace,
    serialize_trace,
    strip_origins,
)
from gentra.gentra4cp import GenericEvent
from gentra.palm import palm_solve
from gentra.solver import solve
from gentra.state import SolverEvent

from support import apply_edits, edit_scripts, ladder, random_problem

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def gnu_doc():
    return parse_trace((FIXTURES / "gnu_element.trace").read_text(), mode="lenient")


@pytest.fixture(scope="module")
def palm_doc():
    return parse_trace((FIXTURES / "palm_element.trace").read_text(),
                       mode="lenient", dialect="palm")


@pytest.fixture(scope="module")
def element_problem():
    return parse_problem((FIXTURES / "element.prob").read_text())


# single-line examples


def test_parse_new_variable_line():
    doc = parse_trace("2[1]newVariable v1 [0-mx]", mode="strict")
    ev = doc.events[0]
    assert doc.chrono_start == 2
    assert (ev.type, ev.depth, ev.variable) == ("newVariable", 1, "v1")
    assert ev.domain == parse_domain("[0-mx]")


def test_parse_palm_reduce_with_wake_kind():
    doc = parse_trace("6[0]reduce c0 v0 [3-mx] max", mode="lenient", dialect="palm")
    ev = doc.events[0]
    assert ev.type == "reduce" and ev.wake_kind == "max"
    assert ev.domain == parse_domain("[3-mx]")
    assert ev.constraint == "c0" and ev.variable == "v0"


def test_empty_text_is_empty_document():
    doc = parse_trace("", mode="strict")
    assert doc.events == () and serialize_trace(doc) == ""


def test_schedule_line_forms():
    two = parse_trace("1[0]schedule v2 dom", mode="strict").events[0]
    assert two.constraint is None and two.event == SolverEvent("dom", "v2")
    three = parse_trace("1[0]schedule c1 v2 dom", mode="strict").events[0]
    assert three.constraint == "c1" and three.event == SolverEvent("dom", "v2")


def test_explanation_block_round_trip():
    line = "4[0]reduce c0 v0 gen{dom(v0)} [3-mx] bot expl{c0,c1} max"
    doc = parse_trace(line, mode="strict", dialect="palm")
    ev = doc.events[0]
    assert ev.explanation == ("c0", "c1")
    assert ev.generated == (SolverEvent("dom", "v0"),)
    assert ev.cause is not None and ev.cause.kind == "bot"
    assert serialize_trace(doc).strip().endswith(line.split("]", 1)[1])


# fixtures


def test_gnu_fixture_shape(gnu_doc):
    assert len(gnu_doc.events) == 18
    assert gnu_doc.chrono_start == 1
    reduces = [c for c, e in zip(gnu_doc.chronos(), gnu_doc.events) if e.type == "reduce"]
    assert reduces == [6, 7, 12, 13]
    assert [e.type for e in gnu_doc.events[-2:]] == ["reject", "failure"]
    assert gnu_doc.events[0].type == "newChild"  # the 'choice point' alias
    assert gnu_doc.events[3].decl == ConstraintDecl.element("v1", (2, 5, 7), "v2")
    assert gnu_doc.events[9].decl == ConstraintDecl.eq("v2", "v1")


def test_gnu_fixture_values(gnu_doc):
    byc = [e for e in gnu_doc.events if e.type == "reduce"]
    assert byc[0].domain == parse_domain("[0,4-mx]")
    assert byc[1].domain == parse_domain("[0-1,3-4,6,8-mx]")
    assert byc[2].domain == FiniteDomain.of([5, 7])
    assert byc[3].domain == FiniteDomain.of([1, 3])


def test_gnu_fixture_deviations_stable(gnu_doc):
    assert gnu_doc.deviations == (
        "line 5: continuation joined to line 4",
        "line 9: continuation joined to line 8",
        "line 13: continuation joined to line 12",
        "line 1: 'choice point' read as newChild",
        "line 7: reduce without generated events",
        "line 7: reduce without a waking event",
        "line 8: reduce without generated events",
        "line 8: reduce without a waking event",
        "line 11: 'choice point' read as newChild",
        "line 15: reduce without generated events",
        "line 15: reduce without a waking event",
        "line 16: reduce without generated events",
        "line 16: reduce without a waking event",
        "line 19: awake without a waking event",
        "line 20: reject without a waking event",
    )


def test_palm_fixture_shape(palm_doc):
    assert len(palm_doc.events) == 19
    assert palm_doc.chrono_start == 0
    assert palm_doc.events[2].decl == ConstraintDecl.element("I", (2, 5, 7), "A", index_base=0)
    kinds = [e.type for e in palm_doc.events]
    assert kinds[13] == "awake" and palm_doc.events[13].cause == SolverEvent("max", "v0")
    assert kinds[16] == "failure" and palm_doc.events[16].node is None
    assert palm_doc.events[17].variable == "v-1"
    wake_kinds = [e.wake_kind for e in palm_doc.events if e.type == "reduce"]
    assert wake_kinds == ["max", "min", "max", "empty", "empty"]


def test_palm_fixture_deviations_stable(palm_doc):
    assert palm_doc.deviations == (
        "line 4: continuation joined to line 3",
        "line 1: source-name token 'I' on newVariable",
        "line 2: source-name token 'A' on newVariable",
        "line 7: awake without a waking event",
        "line 8: reduce without generated events",
        "line 8: reduce without a waking event",
        "line 9: reduce without generated events",
        "line 9: reduce without a waking event",
        "line 10: reduce without generated events",
        "line 10: reduce without a waking event",
        "line 15: paired cause form (v0,max)",
        "line 16: reduce without generated events",
        "line 16: reduce without a waking event",
        "line 17: wake-kind token 'empty' on reject",
        "line 17: reject without a waking event",
        "line 18: failure without a node id",
        "line 19: source-name token 'I' on newVariable",
        "line 19: irregular identifier 'v-1'",
        "line 20: irregular identifier 'v-1'",
        "line 20: reduce without generated events",
        "line 20: reduce without a waking event",
    )


def test_gnu_normalization_fixpoint(gnu_doc):
    text1 = serialize_trace(gnu_doc)
    doc2 = parse_trace(text1, mode="lenient")
    assert serialize_trace(doc2) == text1


# round trips


def fd_document():
    res = solve(parse_problem((FIXTURES / "element.prob").read_text()))
    return document_for_events(res.events, solver="fd")


def test_strict_round_trip_document_and_text():
    doc = fd_document()
    text = serialize_trace(doc)
    back = parse_trace(text, mode="strict")
    assert back.events == doc.events
    assert serialize_trace(back) == text


def test_palm_dialect_round_trip(element_problem):
    res = palm_solve(element_problem)
    doc = document_for_events(res.events, dialect="palm", solver="palm")
    text = serialize_trace(doc)
    back = parse_trace(text, mode="strict")
    assert back.events == doc.events
    assert back.dialect == "palm"  # recovered from the header
    assert serialize_trace(back) == text
    # dialect containment: canonical text is lenient-clean too
    assert parse_trace(text, mode="lenient").deviations == ()


@pytest.mark.parametrize("machine", ["fd", "palm"])
def test_strict_parse_inverts_serialize_on_emitted_events(machine):
    run, dialect = (solve, "generic") if machine == "fd" else (palm_solve, "palm")
    problems = [ladder(4)] + [random_problem(random.Random(seed)) for seed in range(20)]
    for problem in problems:
        doc = document_for_events(run(problem).events, dialect=dialect, solver=machine)
        back = parse_trace(serialize_trace(doc), mode="strict")
        assert back.dialect == dialect
        assert back.events == doc.events
        assert all(type(ev) is GenericEvent for ev in back.events)


@pytest.mark.parametrize("run", [solve, palm_solve])
def test_records_without_origins_are_not_rebuilt(run):
    def solver_events(ev):
        return (ev.cause, ev.event, *(ev.generated or ()))

    events = run(ladder(4)).events
    tagged = 0
    for ev in events:
        stripped = strip_origins(ev)
        if any(e is not None and e.origin is not None for e in solver_events(ev)):
            tagged += 1
            assert all(e is None or e.origin is None for e in solver_events(stripped))
        else:
            assert stripped is ev
    assert 0 < tagged < len(events)


def test_strict_text_is_lenient_with_zero_deviations():
    text = serialize_trace(fd_document())
    doc = parse_trace(text, mode="lenient")
    assert doc.deviations == ()


def test_mx_header_round_trip():
    res = solve(parse_problem("var x 0..15\nlabel x", mx=15), )
    doc = document_for_events(res.events, solver="fd", mx=15)
    text = serialize_trace(doc)
    assert "# mx: 15" in text
    back = parse_trace(text, mode="strict")
    assert back.mx == 15
    assert back.events == doc.events


# strict-mode rejections


def test_strict_rejects_foreign_idioms():
    with pytest.raises(TraceSyntaxError):
        parse_trace("1[0]choice point node(0)", mode="strict")
    with pytest.raises(TraceSyntaxError):
        parse_trace("1[0]newConstraint c1\nelement(v1,[2],v2)", mode="strict")
    with pytest.raises(TraceShapeError):
        parse_trace("1[0]reduce c1 v1 [0-1]", mode="strict")  # missing gen and cause
    with pytest.raises(TraceShapeError):
        parse_trace("1[0]failure", mode="strict")
    with pytest.raises(TraceSyntaxError):
        parse_trace("1[0]reduce c1 v1 gen{} [0] bot max", mode="strict")  # dialect extra


@pytest.mark.parametrize("text", [
    "1[0]newVariable v1 [1,]",
    "1[0]newVariable v1 [,1]",
    "1[0]newVariable v1 [1-]",
    "1[0]newVariable v1 [a]",
    "1[0]newVariable v1 [1-2-3]",
    "# mx: abc\n1[0]newVariable v1 [0-mx]",
    "1[0]newChild node(a)",
], ids=["trailing-comma", "leading-comma", "open-interval", "letter", "two-dashes", "mx-header", "node-id"])
def test_malformed_numbers_raise_gentra_errors(text):
    with pytest.raises(GentraError):
        parse_trace(text, mode="strict")


def test_mx_header_error_names_its_line():
    with pytest.raises(TraceSyntaxError) as info:
        parse_trace("# solver: fd\n# mx: abc\n", mode="strict")
    assert info.value.line == 2


def test_chrono_must_be_consecutive():
    with pytest.raises(TraceSyntaxError):
        parse_trace("1[0]post c1\n3[0]suspend c1", mode="lenient")


def test_unknown_event_type():
    with pytest.raises(TraceSyntaxError):
        parse_trace("1[0]frobnicate x", mode="lenient")


def test_declaration_parsing_forms():
    decl, raw = parse_declaration("element(I,[2,5,7],A)")
    assert decl == ConstraintDecl.element("I", (2, 5, 7), "A") and raw is None
    decl, _ = parse_declaration("fd_element([v1,[2,5,7],v2])")
    assert decl == ConstraintDecl.element("v1", (2, 5, 7), "v2")
    decl, _ = parse_declaration("x_eq_y([v2,v1])")
    assert decl == ConstraintDecl.eq("v2", "v1")
    decl, _ = parse_declaration("element0(I,[9,8],A)")
    assert decl == ConstraintDecl.element("I", (9, 8), "A", index_base=0)
    decl, raw = parse_declaration("all_different(v1,v2)")
    assert decl is None and raw == "all_different(v1,v2)"


# problems


def test_element_problem_file(element_problem):
    res = solve(element_problem)
    assert res.solution_dicts() == [{"I": 1, "A": 2}]


def test_problem_undeclared_variable():
    with pytest.raises(ProblemError):
        parse_problem("var x 0..3\ncon c1 eq(x,zz)")


def test_problem_empty_file():
    p = parse_problem("")
    res = solve(p)
    assert res.solutions == ((),)
    assert [e.type for e in res.events] == ["solution"]


def test_problem_syntax_errors():
    with pytest.raises(ProblemError):
        parse_problem("var x")
    with pytest.raises(ProblemError):
        parse_problem("frob x 0..3")
    with pytest.raises(ProblemError):
        parse_problem("var x 0..3\ncon c1 nonsense(x)")
    with pytest.raises(ProblemError):
        parse_problem("var x 0..3\nbranch eq(x,x)")  # missing parentheses


def test_problem_branch_and_label_parsing():
    p = parse_problem("var x 0..3\nvar y 0..3\nbranch (eq(x,y) | eqc(x,2))\nlabel x,y")
    assert p.branches == ((ConstraintDecl.eq("x", "y"), ConstraintDecl.eqc("x", 2)),)
    assert p.labels == ("x", "y")


# diffs


def test_diff_events_localizes():
    doc = fd_document()
    assert diff_events(doc.events, doc.events) == []
    mutated = list(doc.events)
    mutated[5] = GenericEvent("suspend", mutated[5].depth, constraint="zz")
    diffs = diff_events(doc.events, tuple(mutated))
    assert diffs and diffs[0].startswith("event 5")
    shorter = doc.events[:-1]
    assert any("length" in d for d in diff_events(doc.events, shorter))


# totality: near-miss texts parse or raise a GentraError, nothing else


@cache
def near_miss_sources() -> tuple[str, ...]:
    """The three fixtures and an emitted element trace."""
    fixtures = tuple((FIXTURES / name).read_text()
                     for name in ("element.prob", "gnu_element.trace", "palm_element.trace"))
    return fixtures + (serialize_trace(fd_document()),)


# the characters of the formats plus a few they never use
EDIT_CHARS = sorted(set("".join(near_miss_sources())) | set("\t\r\x00{}()|;:=#-+é∞"))

edits = edit_scripts(EDIT_CHARS)


@settings(deadline=None)
@given(st.integers(0, 3), edits)
def test_parsers_raise_only_gentra_errors_on_near_misses(source, script):
    text = apply_edits(near_miss_sources()[source], script)
    parsers = [lambda: parse_problem(text)]
    parsers += [lambda mode=mode, dialect=dialect: parse_trace(text, mode=mode, dialect=dialect)
                for mode in ("strict", "lenient") for dialect in ("generic", "palm")]
    for parse in parsers:
        try:
            parse()
        except GentraError:
            pass
