"""Parsing and serialization: canonical round trips and the fixture corpus."""

import random
from functools import cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

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
)
from gentra.gentra4cp import _SHAPES, EVENT_TYPES, LAYOUT, GenericEvent
from gentra.palm import palm_solve
from gentra.solver import solve
from gentra.state import SolverEvent

from support import apply_edits, edit_scripts, ladder, random_problem
from test_golden_traces import GOLDEN, RUNS, emitted_text

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


# the tokenizer reads what a record needs; strict mode refuses a line with
# tokens left over, which it used to drop or let overwrite an attribute


@pytest.mark.parametrize("dialect", ["generic", "palm"])
@pytest.mark.parametrize("line", ["1[0]post c1 c2", "1[0]newChild node(1) node(2)", "1[0]suspend c1 bot",
                                  "1[0]reduce c1 x gen{} [0-2] [4] bot"])
def test_strict_parsing_refuses_surplus_attribute_tokens(line, dialect):
    kind = line.split("]")[1].split(" ")[0]
    with pytest.raises(TraceShapeError) as exc:
        parse_trace(line, mode="strict", dialect=dialect)
    assert str(exc.value) == f"{kind}: surplus attribute tokens (line 1)"
    assert parse_trace(line, mode="lenient", dialect=dialect).events[0].type == kind


# strict mode checks every identifier, a constraint's or a variable's, and
# pairs each token with the attribute its position gives; it used to check
# only the variables of newVariable and reduce, and to pick a domain, a
# generated-event block and a cause by their token kind wherever they stood


@pytest.mark.parametrize("line", ["1[0]post c-1", "1[0]post c.1", "1[0]newConstraint c-1 eq(x,y)",
                                  "1[0]schedule c-1 x dom", "1[0]schedule x.y dom"])
def test_strict_parsing_refuses_irregular_identifiers(line):
    name = "x.y" if "x.y" in line else line.split(" ")[1]
    with pytest.raises(GentraError) as exc:
        parse_trace(line, mode="strict")
    assert exc.value.line == 1
    assert str(exc.value) == f"irregular identifier {name!r} (line 1)"
    assert parse_trace(line, mode="lenient").deviations == (f"line 1: irregular identifier {name!r}",)


@pytest.mark.parametrize("line,name", [
    ("1[0]awake c1 dom(x.y)", "x.y"),
    ("1[0]reduce c1 x gen{dom(x-1)} [0] bot", "x-1"),
    ("1[0]reduce c1 x gen{} [0] dom(a-b)", "a-b"),
])
def test_strict_parsing_refuses_irregular_identifiers_inside_solver_events(line, name):
    # a cause's or a generated event's variable is an identifier too
    with pytest.raises(TraceSyntaxError) as exc:
        parse_trace(line, mode="strict")
    assert str(exc.value) == f"irregular identifier {name!r} (line 1)"
    assert parse_trace(line, mode="lenient").deviations == (f"line 1: irregular identifier {name!r}",)


@pytest.mark.parametrize("line,canonical,error", [
    ("1[0]newVariable [0-2] x", "1[0]newVariable x [0-2]", "newVariable: expected attribute 'variable', got '[0-2]'"),
    ("1[0]restore x gen{} [0-2]", "1[0]restore x [0-2] gen{}", "restore: expected attribute 'domain', got 'gen{}'"),
    ("1[0]reduce c1 x bot [0-2] gen{}", "1[0]reduce c1 x gen{} [0-2] bot",
     "reduce: expected attribute 'generated', got 'bot'"),
])
def test_strict_parsing_refuses_attributes_out_of_layout_order(line, canonical, error):
    with pytest.raises(TraceShapeError) as exc:
        parse_trace(line, mode="strict")
    assert str(exc.value) == f"{error} (line 1)"
    assert parse_trace(canonical.replace(" ", "  "), mode="strict").events == parse_trace(canonical).events
    assert parse_trace(line, mode="lenient").events == parse_trace(canonical).events


# strict mode reads a domain literal only as ``format_domain`` writes it; it
# used to normalize any literal, so writing the record back changed the line
NON_CANONICAL_DOMAINS = {"[2,0-1]": "[0-2]", "[1,1]": "[1]", "[0-1,2]": "[0-2]", "[0-2,1-3]": "[0-3]",
                         "[0-0]": "[0]", "[00-2]": "[0-2]", "[0- 2]": "[0-2]"}


@pytest.mark.parametrize("literal", list(NON_CANONICAL_DOMAINS))
@pytest.mark.parametrize("line", ["2[0]newVariable x {}", "2[0]restore x {} gen{{}}", "2[0]reduce c1 x gen{{}} {} bot"],
                         ids=["newVariable", "restore", "reduce"])
def test_strict_parsing_refuses_non_canonical_domain_literals(line, literal):
    canonical = NON_CANONICAL_DOMAINS[literal]
    text = "1[0]post c1\n" + line.format(literal)
    column = line.format(literal).index("[", 4) + 1
    error = f"non-canonical domain literal {literal!r}; canonical form is {canonical!r} (line 2, col {column})"
    # the pattern reading (all but the spaced literal) and the tokenizer refuse it alike
    assert _outcome(text) == _tokenized_outcome(text) == ("TraceSyntaxError", error, 2, column)
    written = parse_trace(text.replace(literal, canonical))
    assert serialize_trace(written) == text.replace(literal, canonical) + "\n"
    assert parse_trace(text, mode="lenient").events == written.events


# strict palm reading takes an explanation block only as the writer writes
# it, its names sorted and each once; lenient reading takes it as a set
NON_CANONICAL_EXPLANATIONS = {"expl{c2,c1}": "expl{c1,c2}", "expl{c1,c1}": "expl{c1}",
                              "expl{c0,bc1,bc1}": "expl{bc1,c0}"}


@pytest.mark.parametrize("block", sorted(NON_CANONICAL_EXPLANATIONS))
def test_strict_palm_parsing_refuses_a_non_canonical_explanation(block):
    canonical = NON_CANONICAL_EXPLANATIONS[block]
    line = "1[0]reduce c1 x gen{} [0] bot expl max"
    text = "# dialect: palm\n" + line.replace("expl", block)
    column = line.index("expl") + 1
    error = f"non-canonical explanation {block!r}; canonical form is {canonical!r} (line 2, col {column})"
    # the pattern reading and the tokenizer refuse it alike
    assert _outcome(text) == _tokenized_outcome(text) == ("TraceSyntaxError", error, 2, column)
    written = parse_trace(text.replace(block, canonical))
    assert serialize_trace(written) == text.replace(block, canonical) + "\n"
    lenient, = parse_trace(text, mode="lenient").events
    assert set(lenient.explanation) == set(written.events[0].explanation)


# strict mode reads a number only as the writer writes it, with no leading
# zero and no minus sign on 0: in a chrono, a depth, a node id or a
# declaration's constant or value list
NON_CANONICAL_NUMBERS = [  # the line, its canonical form, and the strict error
    ("01[0]post c1", "1[0]post c1", "non-canonical chrono '01'; canonical form is '1' (line 2, col 1)"),
    ("1[00]post c1", "1[0]post c1", "non-canonical depth '00'; canonical form is '0' (line 2, col 3)"),
    ("1[0]newChild node(01)", "1[0]newChild node(1)", "newChild: expected attribute 'node', got 'node(01)' (line 2)"),
    ("1[0]newConstraint c1 eqc(x,01)", "1[0]newConstraint c1 eqc(x,1)",
     "newConstraint: expected attribute 'decl', got 'eqc(x,01)' (line 2)"),
    ("1[0]newConstraint c1 eqc(x,-0)", "1[0]newConstraint c1 eqc(x,0)",
     "newConstraint: expected attribute 'decl', got 'eqc(x,-0)' (line 2)"),
    ("1[0]newConstraint c1 element(x,[01,2],y)", "1[0]newConstraint c1 element(x,[1,2],y)",
     "newConstraint: expected attribute 'decl', got 'element(x,[01,2],y)' (line 2)"),
]


@pytest.mark.parametrize("line,canonical,error", NON_CANONICAL_NUMBERS, ids=[c[0] for c in NON_CANONICAL_NUMBERS])
def test_strict_parsing_refuses_non_canonical_numbers(line, canonical, error):
    text = "# solver: fd\n" + line
    outcome = _outcome(text)
    assert outcome[1] == error and outcome[2] == 2
    assert outcome == _tokenized_outcome(text)
    written = parse_trace("# solver: fd\n" + canonical)
    assert serialize_trace(written) == "# solver: fd\n" + canonical + "\n"
    assert parse_trace(text, mode="lenient").events == written.events


# strict mode reads each attribute token only as its pattern fragment writes
# it: spacing inside a token is refused, since the writer would drop it
INNER_SPACING = [  # the line, its dialect, the attribute, its spaced token, and the token as written
    ("1[0]reduce c1 x gen{dom(x), min(x)} [0] bot", "generic", "generated", "gen{dom(x), min(x)}",
     "gen{dom(x),min(x)}"),
    ("1[0]restore x [0-2] gen{ }", "generic", "generated", "gen{ }", "gen{}"),
    ("1[0]newConstraint c1 eq(x, y)", "generic", "decl", "eq(x, y)", "eq(x,y)"),
    ("1[0]newConstraint c1 element0(x, [1,2], y)", "generic", "decl", "element0(x, [1,2], y)", "element0(x,[1,2],y)"),
    ("1[0]newChild node( 1 )", "generic", "node", "node( 1 )", "node(1)"),
    ("1[0]awake c1 dom( x )", "generic", "cause", "dom( x )", "dom(x)"),
    ("1[0]reduce c1 x gen{} [0] bot expl{c1, c2} max", "palm", "explanation", "expl{c1, c2}", "expl{c1,c2}"),
]


@pytest.mark.parametrize("line,dialect,name,spaced,token", INNER_SPACING, ids=[f[3] for f in INNER_SPACING])
def test_strict_parsing_refuses_spacing_inside_an_attribute(line, dialect, name, spaced, token):
    kind = line.split("]")[1].split(" ")[0]
    canonical = line.replace(spaced, token)
    with pytest.raises(TraceShapeError) as exc:
        parse_trace(line, dialect=dialect)
    assert (str(exc.value), exc.value.line) == (f"{kind}: expected attribute {name!r}, got {spaced!r} (line 1)", 1)
    lenient = parse_trace(line, mode="lenient", dialect=dialect)
    assert (lenient.events, lenient.deviations) == (parse_trace(canonical, dialect=dialect).events, ())
    assert serialize_trace(lenient) == canonical + "\n"


@pytest.mark.parametrize("mode", ["strict", "lenient"])
@pytest.mark.parametrize("line", ["1[0]reduce c1 x gen{bot} [0-2] bot", "1[0]restore x [0-2] gen{dom(x), bot}"])
def test_a_generated_event_names_its_variable(line, mode):
    with pytest.raises(TraceSyntaxError) as exc:
        parse_trace(line, mode=mode)
    assert str(exc.value) == "bad generated-event item 'bot' (line 1)"


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
    # the strict parse of a solver's text is the solver's own records
    run, dialect = (solve, "generic") if machine == "fd" else (palm_solve, "palm")
    problems = [ladder(4)] + [random_problem(random.Random(seed)) for seed in range(20)]
    for problem in problems:
        events = run(problem).events
        back = parse_trace(serialize_trace(document_for_events(events, dialect=dialect, solver=machine)), mode="strict")
        assert back.dialect == dialect
        assert back.events == events
        assert all(type(ev) is GenericEvent for ev in back.events)


@pytest.mark.parametrize("run", [solve, palm_solve])
def test_documents_wrap_emitted_records_as_they_are(run):
    # a record's solver events are what the text writes: a document holds the
    # emitted records themselves, and each equals its own strict parse
    events = run(ladder(4)).events
    dialect = "palm" if run is palm_solve else "generic"
    doc = document_for_events(events, dialect=dialect)
    assert all(a is b for a, b in zip(doc.events, events, strict=True))
    assert parse_trace(serialize_trace(doc), mode="strict").events == events
    carried = [e for ev in events for e in (ev.cause, ev.event, *(ev.generated or ())) if e is not None]
    assert carried and all(type(e) is SolverEvent and len(e) == 2 for e in carried)


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


@pytest.mark.parametrize("line,error", [
    ("1[0]newConstraint", "newConstraint: missing constraint identifier (line 1)"),
    ("1[0]jumpTo", "jumpTo: missing target node (line 1)"),
], ids=["newConstraint", "jumpTo"])
def test_strict_parsing_refuses_a_line_without_its_first_attribute(line, error):
    with pytest.raises(TraceShapeError) as exc:
        parse_trace(line, mode="strict")
    assert str(exc.value) == error


@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_a_bare_node_id_is_a_lenient_idiom(mode):
    # ``newChild 3`` reads as ``newChild node(3)`` with one deviation; strict reading refuses it
    if mode == "strict":
        with pytest.raises(TraceSyntaxError) as exc:
            parse_trace("1[0]newChild 3", mode=mode)
        assert str(exc.value) == "bare node id 3 (line 1)"
        return
    doc = parse_trace("1[0]newChild 3", mode=mode)
    assert (doc.events, doc.deviations) == ((GenericEvent("newChild", 0, node=3),), ("line 1: bare node id 3",))


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


@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_unknown_dialect_is_refused_at_its_line(mode):
    # a generic reduce that carries an explanation, which only the palm dialect writes
    body = ("1[0]newVariable x [0-3]\n2[0]newConstraint c1 eqc(x,1)\n3[0]post c1\n4[0]awake c1 bot\n"
            "5[0]reduce c1 x [0,2-3] gen{val(x)} bot expl{c1}\n")
    with pytest.raises(TraceShapeError, match="dialect attribute 'explanation' not allowed here"):
        parse_trace("# solver: fd\n# dialect: generic\n" + body)
    with pytest.raises(TraceSyntaxError) as info:
        parse_trace("# solver: fd\n# dialect: foo\n" + body, mode=mode)
    assert (str(info.value), info.value.line) == ("unknown dialect 'foo' (line 2)", 2)
    with pytest.raises(TraceSyntaxError, match="unknown dialect 'foo'"):
        parse_trace(body, mode=mode, dialect="foo")


@pytest.mark.parametrize("header,late,repeated", [
    ("# mx: 5", "1[0]newVariable x [0-3]\n2[0]newVariable y [0-mx]\n# mx: 5\n",
     "# mx: 7\n# mx: 5\n1[0]newVariable x [0-3]\n2[0]newVariable y [0-mx]\n"),
    ("# dialect: palm", "1[0]newVariable x [0-3]\n# dialect: palm\n2[0]newConstraint c1 element(x,[1,2],x)\n",
     "# dialect: generic\n# dialect: palm\n1[0]newVariable x [0-3]\n2[0]newConstraint c1 element(x,[1,2],x)\n"),
], ids=["mx", "dialect"])
def test_late_or_repeated_header_changes_how_no_line_is_read(header, late, repeated):
    key = header[2:header.index(":")]
    for text, problem in ((late, "after the first event line"), (repeated, "repeated")):
        line = text.splitlines().index(header) + 1
        with pytest.raises(TraceSyntaxError) as info:
            parse_trace(text)
        assert (str(info.value), info.value.line) == (f"{key} header {problem} (line {line})", line)
        # lenient reading notes the header and reads every line as it would without it
        doc = parse_trace(text, mode="lenient")
        without = parse_trace(text.replace(header + "\n", ""), mode="lenient")
        assert doc.deviations == (f"line {line}: {key} header {problem}, ignored",)
        assert (doc.events, doc.mx, doc.dialect, doc.header) == (without.events, without.mx, without.dialect,
                                                                 without.header)
    assert parse_trace(late, mode="lenient").events[-1] != parse_trace(late.replace(header + "\n", "").replace(
        "1[0]", header + "\n1[0]"), mode="lenient").events[-1]  # read in front of the events, it would change one


NEGATIVE_PROBLEM = "var I -2..1\nvar A -8..6\ncon c1 element(I,[-2,5,-7,3],A)\ncon c2 neq(I,A)\nlabel I,A\n"


@pytest.mark.parametrize("machine", ["fd", "palm"])
def test_negative_domains_round_trip_by_pattern(monkeypatch, machine):
    # both bounds of a domain part are signed, and a strict parse reads the
    # trace's lines, domains and declarations by pattern, without tokens
    problem = parse_problem(NEGATIVE_PROBLEM)
    run, dialect = (solve, "generic") if machine == "fd" else (palm_solve, "palm")
    doc = document_for_events(run(problem).events, dialect=dialect)
    text = serialize_trace(doc)
    assert "[-2-1]" in text
    monkeypatch.setattr(formats, "_tokenize", mock.Mock(side_effect=AssertionError("tokenized")))
    assert parse_trace(text).events == doc.events


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
def golden_records() -> list[tuple[str, str]]:
    """Each distinct event line of the golden traces, renumbered 1, with its trace's dialect."""
    records = set()
    for name, run in GOLDEN:
        for line in emitted_text(name, run)[1].splitlines():
            if not line.startswith("#"):
                records.add((RUNS[run][0], "1" + line[line.index("["):]))
    return sorted(records)


# the attributes whose tokens share a syntax, identifiers and node ids; every
# other attribute's token has a syntax of its own
_SYNTAX = dict(constraint="name", variable="name", node="node", node2="node")


def _token_syntaxes(ev: GenericEvent) -> list[str]:
    """The syntax of each token of a record's canonical line, in order; a scheduled event is two tokens."""
    syntaxes = []
    for name, _ in LAYOUT[ev.type]:
        if getattr(ev, name) is not None:
            syntaxes += ("name", "kind") if name == "event" else (_SYNTAX.get(name, name),)
    return syntaxes


@settings(deadline=None)
@given(st.data())
def test_permuted_attribute_tokens_parse_strictly_only_in_layout_order(data):
    # tokens of one syntax may trade places, which reads another record that is
    # written back as the permuted line; any other move is refused at its line
    dialect, line = data.draw(st.sampled_from(golden_records()))
    head, *tokens = line.split(" ")
    order = data.draw(st.permutations(range(len(tokens))))
    permuted = " ".join([head, *(tokens[i] for i in order)])
    syntax = _token_syntaxes(parse_trace(line, dialect=dialect).events[0])
    if all(syntax[i] == syntax[j] for i, j in enumerate(order)):
        assert serialize_trace(parse_trace(permuted, dialect=dialect)) == permuted + "\n"
    else:
        with pytest.raises(GentraError) as exc:
            parse_trace(permuted, dialect=dialect)
        assert exc.value.line == 1


@settings(deadline=None)
@given(st.data())
def test_any_spacing_between_attribute_tokens_reads_the_canonical_record(data):
    dialect, line = data.draw(st.sampled_from(golden_records()))
    head, *tokens = line.split(" ")
    gaps = data.draw(st.lists(st.text(" \t", min_size=1, max_size=4), min_size=len(tokens), max_size=len(tokens)))
    spaced = head + "".join(gap + token for gap, token in zip(gaps, tokens))
    assert parse_trace(spaced, dialect=dialect).events == parse_trace(line, dialect=dialect).events


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


def _token_replacements(machine: str) -> list[str]:
    """The emitted element trace's event lines, each alone and renumbered 1,
    with one attribute token replaced by each other token of the trace."""
    lines = [line.split(" ") for line in _element_trace(machine).splitlines() if not line.startswith("#")]
    tokens = {token for head, *rest in lines for token in rest}
    return sorted({" ".join(["1" + head[head.index("["):], *rest[:i], token, *rest[i + 1:]])
                   for head, *rest in lines for i in range(len(rest)) for token in tokens - {rest[i]}})


@pytest.mark.parametrize("machine", ["fd", "palm"])
def test_canonical_reading_agrees_with_the_tokenizer_on_token_replacements(machine):
    # each text is the edited line alone: the trace's other lines are
    # canonical and read alike on both paths
    texts = _token_replacements(machine)
    options = [dict(mode=mode, dialect=dialect) for mode in ("strict", "lenient") for dialect in ("generic", "palm")]
    read = [[_outcome(text, **o) for o in options] for text in texts]
    with mock.patch.multiple(formats, _READERS={}, _PALM_READERS={}):
        tokenized = [[_outcome(text, **o) for o in options] for text in texts]
    assert [text for text, a, b in zip(texts, read, tokenized) if a != b] == []
    assert {isinstance(outcomes[0][0], str) for outcomes in read} == {True, False}  # some refused, some read


# problems


def test_element_problem_file(element_problem):
    res = solve(element_problem)
    assert res.solution_dicts() == [{"I": 1, "A": 2}]


def test_problem_undeclared_variable():
    with pytest.raises(ProblemError):
        parse_problem("var x 0..3\ncon c1 eq(x,zz)")


@pytest.mark.parametrize("text,error", [
    ("var x 0..3\nvar y 0..3\nvar x 0..2\n", "variable 'x' declared twice (line 3)"),
    ("var x 0..3\ncon c1 eqc(x,1)\ncon c1 eqc(x,2)\n", "constraint 'c1' declared twice (line 3)"),
    ("var x 0..3\nvar y 5..1\n", "bad range '5..1': descending bounds 5 > 1 (line 2)"),
    ("var x 0..3\nlabel q\nvar x 0..1\n", "label directive names undeclared variable 'q' (line 2)"),
], ids=["var", "con", "descending", "earliest-line"])
def test_problem_refuses_duplicates_and_descending_ranges(text, error):
    # each is refused where the problem is read, not left to the solver or read as an empty domain
    with pytest.raises(ProblemError) as exc:
        parse_problem(text)
    assert str(exc.value) == error


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


def leading_zero_examples(test):
    """``test`` with examples that write a number of the emitted trace with a
    leading zero: the first event line's chrono and depth, a node id and an
    element value."""
    text = near_miss_sources()[3]
    first = text.index("\n1[") + 1
    for at in (first, first + 2, text.index("node(") + 5, text.index(",[") + 2):
        test = example(3, [(at, "insert", "0")])(test)
    return test


@leading_zero_examples
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


@leading_zero_examples
@settings(deadline=None)
@given(st.integers(1, 3), edits)
def test_canonical_reading_agrees_with_the_tokenizer_on_near_misses(source, script):
    # a line the patterns read gives the record the tokenizer gives, and a
    # line they refuse keeps its tokenizer error, class, text, line and column
    text = apply_edits(near_miss_sources()[source], script)
    for mode in ("strict", "lenient"):
        for dialect in ("generic", "palm"):
            assert _outcome(text, mode=mode, dialect=dialect) == _tokenized_outcome(text, mode=mode, dialect=dialect)
