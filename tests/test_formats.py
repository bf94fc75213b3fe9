"""Parsing and serialization: canonical round trips and the fixture corpus."""

import random
from functools import cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gentra import formats
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
from gentra.gentra4cp import _SHAPES, EVENT_TYPES, GenericEvent
from gentra.palm import palm_solve
from gentra.solver import solve
from gentra.state import SolverEvent

from support import apply_edits, edit_scripts, ladder, random_problem
from test_golden_traces import GOLDEN, emitted_text

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


# two read paths: canonical lines by pattern, everything else by tokens


def _outcome(text: str, **options):
    """What parsing gives: the document's parts, or the error's class, text,
    line and column."""
    try:
        doc = parse_trace(text, **options)
    except GentraError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return doc.events, doc.header, doc.chrono_start, doc.dialect, doc.mx, doc.deviations


def _tokenized_outcome(text: str, **options):
    """``_outcome`` with every line read by the tokenizer."""
    with mock.patch.multiple(formats, _READERS={}, _PALM_READERS={}):
        return _outcome(text, **options)


def _respaced(text: str) -> str:
    """Every space of each event line doubled: the canonical patterns refuse
    the line, and the tokenizer reads it as before."""
    return "".join(line if line.startswith("#") else line.replace(" ", "  ")
                   for line in text.splitlines(keepends=True))


def test_canonical_patterns_fill_exactly_the_strict_shape():
    # a record read by pattern passes the shape and dialect checks a
    # tokenized one gets: its pattern has a group for every required
    # attribute and none for an attribute foreign to its type
    readers = {"generic": formats._READERS, "palm": formats._PALM_READERS}
    for dialect, table in readers.items():
        assert set(table) == set(EVENT_TYPES)
        for kind, (_, fields, _) in table.items():
            required, optional = _SHAPES[kind]
            extras = ("explanation", "wake_kind") if (dialect, kind) == ("palm", "reduce") else ()
            assert set(required) <= set(fields) <= set(required + optional + extras), kind


@pytest.mark.parametrize("name,run", sorted(GOLDEN))
def test_respaced_twin_reads_like_the_canonical_trace(monkeypatch, name, run):
    count, text = emitted_text(name, run)
    tokenized = 0
    parse = formats._EventParser.parse

    def counting(*args):
        nonlocal tokenized
        tokenized += 1
        return parse(*args)

    monkeypatch.setattr(formats._EventParser, "parse", counting)
    canonical = _outcome(text)
    assert tokenized == 0
    assert _outcome(_respaced(text)) == canonical
    assert tokenized == count
    # without its header, the trace read in each dialect, wrong one included
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    for dialect in ("generic", "palm"):
        assert _outcome(body, dialect=dialect) == _outcome(_respaced(body), dialect=dialect)


@cache
def _element_trace(machine: str) -> str:
    problem = parse_problem((FIXTURES / "element.prob").read_text())
    if machine == "palm":
        return serialize_trace(document_for_events(palm_solve(problem).events, dialect="palm"))
    return serialize_trace(document_for_events(solve(problem).events))


# one-edit mutants of the emitted element traces: the line at a 1-based
# file line number is deleted, duplicated, swapped with the next line or
# replaced, and the text is parsed strictly; each error is the class, text,
# line and column the tokenizer-only reader gave, or None for a clean parse.
# Every error names its line, and a column counts from the line's start.
PARSE_MUTANTS = [
    (("fd", 7, "delete"),
     ("TraceSyntaxError", "chrono 6 breaks the consecutive numbering (line 7)", 7, None)),
    (("fd", 11, "duplicate"),
     ("TraceSyntaxError", "chrono 9 breaks the consecutive numbering (line 12)", 12, None)),
    (("fd", 14, "swap"),
     ("TraceSyntaxError", "chrono 13 breaks the consecutive numbering (line 14)", 14, None)),
    (("fd", 7, "5[1]reduce c1 I gen{dom(I),min(I),max(I)} [0,4-mx] bot"), None),
    (("fd", 11, "9[0]reduce c1 dom(I)"),
     ("TraceShapeError", "reduce: expected constraint and variable (line 11)", 11, None)),
    (("fd", 9, "7[0]awake c1"),
     ("TraceShapeError", "awake: missing required attribute 'cause' (line 9)", 9, None)),
    (("fd", 40, "38[1]jumpTo node(1)"),
     ("TraceShapeError", "jumpTo: missing required attribute 'node2' (line 40)", 40, None)),
    (("fd", 3, "1[0]newVariable I [4-1]"),
     ("TraceSyntaxError", "descending interval in domain literal: '4-1' (line 3)", 3, None)),
    (("fd", 7, "5[0]reduce c1 I gen{dom(I),min(I),max(I)} [0,4-mx bot"),
     ("TraceSyntaxError", "unbalanced '[' (line 7, col 43)", 7, 43)),
    (("fd", 28, "26[1]newChild node(x1)"),
     ("TraceSyntaxError", "expected node(k), got 'node(x1)' (line 28)", 28, None)),
    (("fd", 13, "11[0]schedule c1 I 7"),
     ("TraceShapeError", "schedule: unknown event kind 'I' (line 13)", 13, None)),
    (("fd", 13, "12[0]schedule c1 I min"),
     ("TraceSyntaxError", "chrono 12 breaks the consecutive numbering (line 13)", 13, None)),
    (("fd", 6, "4[0]post zz"), None),
    (("fd", 5, "3[0]newConstraint c1 element(I,[],A)"),
     ("TraceSyntaxError", "element takes (index var, non-empty value list, value var) (line 5)", 5, None)),
    (("palm", 1, "# dialect: generic"),
     ("TraceSyntaxError", "wake-kind token 'max' on reduce (line 7)", 7, None)),
    (("palm", 11, "9[0]awake c1 dom(I) dom"),
     ("TraceSyntaxError", "wake-kind token 'dom' on awake (line 11)", 11, None)),
    (("palm", 7, "5[0]reduce c1 I gen{dom(I),max(I)} [3-mx] bot expl{c1 max"),
     ("TraceSyntaxError", "unbalanced '{' (line 7, col 51)", 7, 51)),
    (("palm", 39, "37[2]restore I [0-mx] gen{dom(I),bot(I)}"),
     ("TraceSyntaxError", "not a solver event: 'bot(I)' (line 39)", 39, None)),
]


@pytest.mark.parametrize("mutant,error", PARSE_MUTANTS, ids=[f"{m[0]}-{m[1]}" for m, _ in PARSE_MUTANTS])
def test_one_edit_mutant_keeps_its_parse_error(mutant, error):
    machine, line, edit = mutant
    lines = _element_trace(machine).splitlines()
    i = line - 1
    if edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "swap":
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    else:
        lines[i] = edit
    text = "\n".join(lines) + "\n"
    outcome = _outcome(text)
    assert (outcome if isinstance(outcome[0], str) else None) == error
    assert outcome == _tokenized_outcome(text)


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


@settings(deadline=None)
@given(st.integers(1, 3), edits)
def test_canonical_reading_agrees_with_the_tokenizer_on_near_misses(source, script):
    # a line the patterns read gives the record the tokenizer gives, and a
    # line they refuse keeps its tokenizer error, class, text, line and column
    text = apply_edits(near_miss_sources()[source], script)
    for mode in ("strict", "lenient"):
        for dialect in ("generic", "palm"):
            assert _outcome(text, mode=mode, dialect=dialect) == _tokenized_outcome(text, mode=mode, dialect=dialect)
