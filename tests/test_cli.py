"""Command-line surface: happy paths and exit-code contract."""

from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from gentra.abstraction import check_generic, palm_profile, project
from gentra.cli import main
from gentra.errors import GentraError, TransitionError
from gentra.fdomain import EMPTY_DOMAIN
from gentra.formats import document_for_events, parse_problem, parse_trace, serialize_trace
from gentra.gentra4cp import GUARD_NAMES, make_semantics, validate
from gentra.palm import make_palm_semantics, palm_solve
from gentra.semantics import Action
from gentra.solver import solve
from gentra.state import initial_state

from support import apply_edits, edit_scripts, ladder

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def element_prob(tmp_path):
    target = tmp_path / "element.prob"
    target.write_text((FIXTURES / "element.prob").read_text())
    return str(target)


def test_solve_prints_solution_and_writes_trace(runner, element_prob, tmp_path):
    out = tmp_path / "run.trace"
    result = runner.invoke(main, ["solve", element_prob, "--trace", str(out)])
    assert result.exit_code == 0, result.output
    assert "solution I=1 A=2" in result.output
    assert "solutions=1" in result.output
    assert out.read_text().startswith("# solver: fd")


def test_solve_palm_flag(runner, element_prob, tmp_path):
    out = tmp_path / "palm.trace"
    result = runner.invoke(main, ["solve", element_prob, "--palm", "--trace", str(out)])
    assert result.exit_code == 0, result.output
    assert "solution I=0 A=2" in result.output
    assert "# dialect: palm" in out.read_text()


def test_solve_strict_reduce_flag(runner, element_prob, tmp_path):
    out = tmp_path / "strict.trace"
    result = runner.invoke(main, ["solve", element_prob, "--strict-reduce", "--trace", str(out)])
    assert result.exit_code == 0
    check = runner.invoke(main, ["validate", str(out), "--strict-reduce"])
    assert check.exit_code == 0, check.output


def test_solve_palm_refuses_strict_reduce(runner, element_prob, tmp_path):
    # the strict reduce rule belongs to the fd machine; palm would silently
    # ignore it and write a palm trace
    out = tmp_path / "palm.trace"
    result = runner.invoke(main, ["solve", element_prob, "--palm", "--strict-reduce", "--trace", str(out)])
    assert result.exit_code == 2
    assert (result.stdout, result.stderr) == (
        "", "usage error: --strict-reduce applies to the fd solver, not to --palm\n")
    assert not out.exists()


@pytest.mark.parametrize("palm", [False, True], ids=["fd", "palm"])
def test_solve_over_budget_fails_in_one_line(runner, tmp_path, palm):
    # 8 labelled variables over [0-9] open far more than the 500 nodes a run may
    names = [f"x{i}" for i in range(8)]
    prob = tmp_path / "big.prob"
    prob.write_text("".join(f"var {n} 0..9\n" for n in names) + f"label {','.join(names)}\n")
    result = runner.invoke(main, ["solve", str(prob), *(["--palm"] if palm else [])])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert (result.stdout, result.stderr) == ("", "FAIL solve: node budget 500 exceeded\n")


def test_solve_broken_palm_invariant_fails_in_one_line(runner, element_prob, monkeypatch):
    # a repair that restores nothing leaves an explanation naming a relaxed
    # constraint, which palm's run-level check reports
    monkeypatch.setattr("gentra.palm.broken_values", lambda full, var: EMPTY_DOMAIN)
    result = runner.invoke(main, ["solve", element_prob, "--palm"])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == ("FAIL solve: state-invariant failed at event 35: "
                             "an explanation for I mentions relaxed constraints\n")


def test_solve_parse_error_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.prob"
    bad.write_text("nonsense directive")
    result = runner.invoke(main, ["solve", str(bad)])
    assert result.exit_code == 2


def test_validate_pass_and_fail(runner, element_prob, tmp_path):
    out = tmp_path / "run.trace"
    assert runner.invoke(main, ["solve", element_prob, "--trace", str(out)]).exit_code == 0
    good = runner.invoke(main, ["validate", str(out)])
    assert good.exit_code == 0
    assert "PASS validate" in good.output

    lines = out.read_text().splitlines()
    # drop one mid-trace event so the replay breaks
    del lines[10]
    renumbered = []
    chrono = None
    for line in lines:
        if line.startswith("#"):
            renumbered.append(line)
            continue
        body = line.split("]", 1)[1]
        depth = line.split("[", 1)[1].split("]", 1)[0]
        chrono = 1 if chrono is None else chrono + 1
        renumbered.append(f"{chrono}[{depth}]{body}")
    broken = tmp_path / "broken.trace"
    broken.write_text("\n".join(renumbered) + "\n")
    bad = runner.invoke(main, ["validate", str(broken)])
    assert bad.exit_code == 1
    assert "FAIL validate" in bad.output


def test_validate_guard_selection(runner, element_prob, tmp_path):
    out = tmp_path / "run.trace"
    runner.invoke(main, ["solve", element_prob, "--trace", str(out)])
    result = runner.invoke(main, ["validate", str(out), "--guards", "g3,g4"])
    assert result.exit_code == 0
    assert "guards=g3,g4" in result.output
    ranged = runner.invoke(main, ["validate", str(out), "--guards", "g3..g5"])
    assert ranged.exit_code == 0
    assert "guards=g3,g4,g5" in ranged.output
    bad = runner.invoke(main, ["validate", str(out), "--guards", "g9"])
    assert bad.exit_code == 2
    for deleted in ("g1", "g2,g3", "g1..g3"):  # g1 and g2 could never fire
        refused = runner.invoke(main, ["validate", str(out), "--guards", deleted])
        assert refused.exit_code == 2
        assert "unknown guards" in refused.output
    for empty in ("g5..g3", ","):  # a selection that names no guard checks nothing
        refused = runner.invoke(main, ["validate", str(out), "--guards", empty])
        assert refused.exit_code == 2
        assert "no guards selected" in refused.output


def test_reconstruct_prints_run(runner, element_prob, tmp_path):
    out = tmp_path / "run.trace"
    runner.invoke(main, ["solve", element_prob, "--trace", str(out)])
    result = runner.invoke(main, ["reconstruct", str(out)])
    assert result.exit_code == 0
    assert "PASS reconstruct" in result.output
    assert "newVariable" in result.output


def test_map_palm_and_compliance(runner, element_prob, tmp_path):
    palm_out = tmp_path / "palm.trace"
    runner.invoke(main, ["solve", element_prob, "--palm", "--trace", str(palm_out)])
    mapped_out = tmp_path / "mapped.trace"
    mapped = runner.invoke(main, ["map-palm", str(palm_out), "-o", str(mapped_out)])
    assert mapped.exit_code == 0
    assert "expl{" not in mapped_out.read_text()
    check = runner.invoke(main, ["validate", str(mapped_out), "--profile", "palm"])
    assert check.exit_code == 0, check.output
    compliance = runner.invoke(main, ["check-compliance", str(palm_out)])
    assert compliance.exit_code == 0, compliance.output
    assert compliance.output == (
        "PASS palm replay events=110\n"
        "PASS palm rules refine the gentra4cp rules (properties pinned in tests/test_refinement.py)\n"
        "PASS guards=g3,g4,g5 events=110\n"
        "PASS compliance\n"
    )


def test_an_out_of_profile_record_is_refused_in_one_text_on_every_route(runner, element_prob, tmp_path):
    # the palm element trace with its first newChild line turned into a jump, which palm's rules lack
    palm_out, jump_out = tmp_path / "palm.trace", tmp_path / "jump.trace"
    runner.invoke(main, ["solve", element_prob, "--palm", "--trace", str(palm_out)])
    lines = palm_out.read_text().splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if "]newChild " in line)
    lines[n] = lines[n][:lines[n].index("newChild")] + "jumpTo node(0) node(0)\n"
    jump_out.write_text("".join(lines))
    i = n - sum(line.startswith("#") for line in lines)
    compliance = runner.invoke(main, ["check-compliance", str(jump_out)])
    assert (compliance.exit_code, compliance.output) == (
        1, f"FAIL replay under the palm rules: jumpTo: event type outside the profile at event {i}\n")
    validated = runner.invoke(main, ["validate", "--profile", "palm", str(jump_out)])
    assert (validated.exit_code, validated.output) == (
        1, f"FAIL validate event={i} rule=jumpTo event type outside the profile\nFAIL validate events={i}\n")
    with pytest.raises(TransitionError) as err:
        make_palm_semantics().apply(initial_state(), Action.of("jumpTo", node=0))
    assert (err.value.rule, err.value.condition) == ("jumpTo", "event type outside the profile")


def test_check_compliance_rejects_jump_traces(runner, element_prob, tmp_path):
    out = tmp_path / "fd.trace"
    runner.invoke(main, ["solve", element_prob, "--trace", str(out)])
    result = runner.invoke(main, ["check-compliance", str(out)])
    assert result.exit_code == 1
    assert result.output == ("FAIL replay under the palm rules: reduce: reduce record "
                             "carries no explanation at event 4\n")


def test_check_compliance_replay_checks_record_depths(runner, element_prob, tmp_path):
    palm_out = tmp_path / "palm.trace"
    runner.invoke(main, ["solve", element_prob, "--palm", "--trace", str(palm_out)])
    mutant = tmp_path / "mutant.trace"
    mutant.write_text(palm_out.read_text().replace("[0]reduce", "[1]reduce", 1))
    result = runner.invoke(main, ["check-compliance", str(mutant)])
    assert result.exit_code == 1
    assert result.output == ("FAIL replay under the palm rules: reduce: depth 1 != current "
                             "node depth 0 at event 4\n")
    mapped = tmp_path / "mapped.trace"
    assert runner.invoke(main, ["map-palm", str(mutant), "-o", str(mapped)]).exit_code == 0
    check = runner.invoke(main, ["validate", "--profile", "palm", str(mapped)])
    assert check.exit_code == 1
    assert check.output.startswith("FAIL validate event=4 rule=reduce depth 1 != current node depth 0\n")


def _palm_ladder_trace(tmp_path, k: int, line: int, old: str, new: str) -> str:
    """The palm trace of ladder ``k`` as ``solve --palm`` writes it, with ``old`` on text line ``line`` made ``new``."""
    doc = document_for_events(palm_solve(ladder(k)).events, dialect="palm", solver="palm")
    lines = serialize_trace(doc).splitlines(keepends=True)
    assert old in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(old, new)
    path = tmp_path / f"ladder-{k}.trace"
    path.write_text("".join(lines))
    return str(path)


def test_check_compliance_refuses_a_wrong_wake_kind_at_its_event(runner, tmp_path):
    # event 12 (chrono 13) leaves x0 one value, so its wake kind is val
    path = _palm_ladder_trace(tmp_path, 3, 16, "[1-2] bot expl{bc1} val", "[1-2] bot expl{bc1} dom")
    result = runner.invoke(main, ["check-compliance", path])
    assert (result.exit_code, result.output) == (1, "FAIL replay under the palm rules: reduce: wake kind dom != "
                                                    "domain change wake kind val at event 12\n")


def test_a_wrong_wake_kind_is_refused_by_validate_in_the_words_of_check_compliance(runner, element_prob,
                                                                                    tmp_path):
    # the element palm trace with its first val wake kind written as dom: one
    # record check serves both routes, so validate --profile palm refuses it
    # at the same event; map-palm is a relabelling that drops it unchecked
    palm_out, wake_out, mapped_out = tmp_path / "palm.trace", tmp_path / "wake.trace", tmp_path / "mapped.trace"
    runner.invoke(main, ["solve", element_prob, "--palm", "--trace", str(palm_out)])
    lines = palm_out.read_text().splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if "]reduce " in line and line.endswith(" val\n"))
    lines[n] = lines[n][:-len("val\n")] + "dom\n"
    wake_out.write_text("".join(lines))
    i = n - sum(line.startswith("#") for line in lines)
    assert i == 25
    refusal = "wake kind dom != domain change wake kind val"
    compliance = runner.invoke(main, ["check-compliance", str(wake_out)])
    assert (compliance.exit_code, compliance.output) == (
        1, f"FAIL replay under the palm rules: reduce: {refusal} at event {i}\n")
    validated = runner.invoke(main, ["validate", "--profile", "palm", str(wake_out)])
    assert (validated.exit_code, validated.output) == (
        1, f"FAIL validate event={i} rule=reduce {refusal}\nFAIL validate events={i}\n")
    assert runner.invoke(main, ["map-palm", str(wake_out), "-o", str(mapped_out)]).exit_code == 0
    assert runner.invoke(main, ["validate", "--profile", "palm", str(mapped_out)]).exit_code == 0


def test_check_compliance_refuses_a_non_canonical_explanation_at_its_line(runner, tmp_path):
    # an explanation is written sorted, each name once; lenient reading reads the block as a set
    path = _palm_ladder_trace(tmp_path, 4, 26, "expl{bc1,c0}", "expl{c0,bc1,bc1}")
    result = runner.invoke(main, ["check-compliance", path])
    assert (result.exit_code, result.output) == (2, "parse error: non-canonical explanation 'expl{c0,bc1,bc1}'; "
                                                    "canonical form is 'expl{bc1,c0}' (line 26, col 52)\n")
    assert runner.invoke(main, ["check-compliance", "--lenient", path]).exit_code == 0


def test_check_compliance_output_on_the_lenient_palm_fixture(runner):
    result = runner.invoke(main, ["check-compliance", str(FIXTURES / "palm_element.trace"), "--lenient"])
    assert result.exit_code == 1
    assert result.output == ("FAIL replay under the palm rules: newConstraint: undeclared "
                             "variables ['I', 'A'] at event 2\n")


def test_diff_exit_codes(runner, element_prob, tmp_path):
    a = tmp_path / "a.trace"
    b = tmp_path / "b.trace"
    runner.invoke(main, ["solve", element_prob, "--trace", str(a)])
    runner.invoke(main, ["solve", element_prob, "--trace", str(b)])
    same = runner.invoke(main, ["diff", str(a), str(b)])
    assert same.exit_code == 0
    other = tmp_path / "other.prob"
    other.write_text("var x 0..1\nlabel x\n")
    c = tmp_path / "c.trace"
    runner.invoke(main, ["solve", str(other), "--trace", str(c)])
    differ = runner.invoke(main, ["diff", str(a), str(c)])
    assert differ.exit_code == 1
    assert "event 0" in differ.output


def test_lenient_validate_of_fixture(runner):
    result = runner.invoke(main, ["validate", str(FIXTURES / "gnu_element.trace"), "--lenient"])
    # the foreign fragment parses but does not fully replay (its queue
    # bookkeeping is elided), so the verdict is a clean failure, not a crash
    assert result.exit_code == 1
    assert "NOTE deviation" in result.output
    assert "FAIL validate" in result.output


# A constraint declared without a declaration (``newConstraint c1`` alone)
# watches no variable: scheduling an event on x needs another sleeper that
# watches x, and c1 cannot be woken by it.
_UNDECLARED_SLEEPER = """\
# solver: fd
# dialect: generic
1[0]newVariable x [0-3]
2[0]newConstraint c1
3[0]post c1
4[0]suspend c1
5[0]newConstraint c2 eqc(x,1)
6[0]post c2
7[0]reduce c2 x gen{dom(x),min(x),max(x),val(x)} [0,2-3] bot
"""


@pytest.mark.parametrize("tail, code, failure", [
    ("8[0]suspend c2\n9[0]schedule x dom\n10[0]awake c2 dom(x)\n11[0]solved c2\n", 0, None),
    ("8[0]solved c2\n9[0]schedule x dom\n", 1, "FAIL validate event=8 rule=schedule"),
    ("8[0]suspend c2\n9[0]schedule x dom\n10[0]awake c1 dom(x)\n", 1, "FAIL validate event=9 rule=awake"),
], ids=["other-sleeper", "no-sleeper", "awake-undeclared"])
def test_undeclared_sleeper_watches_nothing(runner, tmp_path, tail, code, failure):
    path = tmp_path / "undeclared.trace"
    path.write_text(_UNDECLARED_SLEEPER + tail)
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == code, result.output
    assert not isinstance(result.exception, Exception), result.exception  # no traceback
    assert ("PASS validate" in result.output) if failure is None else (failure in result.output)


@pytest.mark.parametrize("text", [
    "# dialect: palm\n1[0]newVariable v1 [1,]\n",
    "# dialect: palm\n# mx: abc\n1[0]newVariable v1 [0-mx]\n",
], ids=["domain", "mx-header"])
@pytest.mark.parametrize("command", ["validate", "check-compliance"])
def test_malformed_numbers_are_parse_errors(runner, tmp_path, command, text):
    path = tmp_path / "bad.trace"
    path.write_text(text)
    result = runner.invoke(main, [command, str(path)])
    assert result.exit_code == 2, result.output
    assert "parse error" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("palm", [False, True], ids=["fd", "palm"])
def test_negative_domain_trace_round_trips(runner, tmp_path, palm):
    problem, trace = tmp_path / "neg.prob", tmp_path / "neg.trace"
    problem.write_text("var x -2..1\nvar y -3..-1\ncon c1 neq(x,y)\nlabel x,y\n")
    solved = runner.invoke(main, ["solve", str(problem), "--trace", str(trace)] + ["--palm"] * palm)
    assert solved.exit_code == 0, solved.output
    assert "[-2-1]" in trace.read_text() and "[-3--1]" in trace.read_text()
    for command in ["validate", "reconstruct"] + ["check-compliance"] * palm:
        result = runner.invoke(main, [command, str(trace)] + ["--profile", "palm"] * (palm and command == "validate"))
        assert result.exit_code == 0, (command, result.output)


@pytest.mark.parametrize("text,error", [
    ("var x 0..3\nvar x 0..2\nlabel x\n", "variable 'x' declared twice (line 2)"),
    ("var x 0..3\ncon c1 eqc(x,1)\ncon c1 eqc(x,2)\nlabel x\n", "constraint 'c1' declared twice (line 3)"),
    ("var x 5..1\nlabel x\n", "bad range '5..1': descending bounds 5 > 1 (line 1)"),
    ("var x 0..3\ncon c1 eqc(x,1)\ncon c2 neq(x,z)\nlabel x\n",
     "constraint c2 uses undeclared variables ['z'] (line 3)"),
    ("var x 0..3\nbranch (eqc(x,1) | eq(x,z))\nlabel x\n",
     "branch constraint uses undeclared variables ['z'] (line 2)"),
    ("var x 0..3\nlabel x\n\n# the labels\nlabel x,q\n", "label directive names undeclared variable 'q' (line 5)"),
    ("var x 0..3\nlabel q\nvar x 0..1\n", "label directive names undeclared variable 'q' (line 2)"),
], ids=["var", "con", "descending", "con-undeclared", "branch-undeclared", "label-undeclared", "earliest-line"])
@pytest.mark.parametrize("palm", [False, True], ids=["fd", "palm"])
def test_problem_file_refusals_are_parse_errors(runner, tmp_path, text, error, palm):
    # a parse error (exit 2) names the problem file's fault, where a solver failure (exit 1) would not
    path = tmp_path / "bad.prob"
    path.write_text(text)
    result = runner.invoke(main, ["solve", str(path)] + ["--palm"] * palm)
    assert result.exit_code == 2, result.output
    assert result.output == f"parse error: {error}\n"
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("command", ["validate", "check-compliance", "reconstruct"])
def test_unknown_dialect_is_a_parse_error(runner, tmp_path, command):
    path = tmp_path / "foo.trace"
    path.write_text("# dialect: foo\n1[0]newVariable x [0-3]\n2[0]newConstraint c1 eqc(x,1)\n3[0]post c1\n"
                    "4[0]awake c1 bot\n5[0]reduce c1 x [0,2-3] gen{val(x)} bot expl{c1}\n")
    result = runner.invoke(main, [command, str(path)])
    assert result.exit_code == 2, result.output
    assert result.output == "parse error: unknown dialect 'foo' (line 1)\n"
    assert isinstance(result.exception, SystemExit)


def test_usage_error_exit_code(runner):
    assert runner.invoke(main, ["validate", "/nonexistent/file"]).exit_code == 2


# totality: every run on a near-miss input exits with 0, 1 or 2


def _near_miss_sources() -> tuple[str, ...]:
    """The three fixtures, and the fd and palm traces of the element problem,
    which parse strictly and so reach every command's verdict more often."""
    fixtures = tuple((FIXTURES / name).read_text(encoding="utf-8")
                     for name in ("element.prob", "gnu_element.trace", "palm_element.trace"))
    problem = parse_problem(fixtures[0])
    fd = document_for_events(solve(problem).events, solver="fd")
    palm = document_for_events(palm_solve(problem).events, dialect="palm", solver="palm")
    return fixtures + (serialize_trace(fd), serialize_trace(palm))


NEAR_MISS_SOURCES = _near_miss_sources()
# the characters of the formats plus a few they never use
NEAR_MISS_CHARS = set("".join(NEAR_MISS_SOURCES)) | set("\t\r\x00{}()|;:=#-+é∞")
# the two trace fixtures are foreign fragments that parse only leniently, so
# each trace command also runs with --lenient
COMMANDS = (
    ["validate"], ["validate", "--lenient"], ["validate", "--profile", "palm"],
    ["validate", "--profile", "palm", "--lenient"], ["reconstruct"], ["reconstruct", "--lenient"],
    ["map-palm"], ["map-palm", "--lenient"], ["check-compliance"], ["check-compliance", "--lenient"],
    ["solve"], ["solve", "--palm"],
)


@settings(deadline=None, max_examples=50)
@given(edit_scripts(NEAR_MISS_CHARS))
def test_every_command_exits_0_1_or_2_on_near_misses(script):
    runner = CliRunner()
    with runner.isolated_filesystem():
        for source in NEAR_MISS_SOURCES:
            Path("input").write_text(apply_edits(source, script), encoding="utf-8")
            for command in COMMANDS:
                # an exception other than SystemExit propagates and fails the test
                result = runner.invoke(main, [command[0], "input", *command[1:]], catch_exceptions=False)
                assert result.exit_code in (0, 1, 2), (command, result.output)


# one-token edits of the emitted element traces: a token of a line's
# attributes is inserted, replaced or deleted.  The edited trace either fails
# to parse with a GentraError, or the library calls behind `gentra validate`
# (plain and --profile palm) and `gentra check-compliance` report on it
# without raising, in strict and in lenient mode


EMITTED_TRACES = {"fd": NEAR_MISS_SOURCES[3], "palm": NEAR_MISS_SOURCES[4]}
ATTRIBUTE_TOKENS = sorted({token for text in EMITTED_TRACES.values() for line in text.splitlines()
                           if not line.startswith("#") for token in line.split(" ")[1:]})


def _token_edit(machine: str, line: int, op: str, at: int, token: str) -> str:
    lines = EMITTED_TRACES[machine].splitlines()
    events = [i for i, text in enumerate(lines) if not text.startswith("#")]
    i = events[line % len(events)]
    head, *attrs = lines[i].split(" ")
    if op == "insert":
        attrs.insert(at % (len(attrs) + 1), token)
    elif op == "replace":
        attrs[at % len(attrs)] = token
    else:
        del attrs[at % len(attrs)]
    lines[i] = " ".join([head, *attrs])
    return "\n".join(lines) + "\n"


def _checks():
    gt = make_semantics()
    palm_os = project(gt, palm_profile())
    return (("generic", lambda events: validate(events, os=gt)),
            ("palm", lambda events: validate(events, os=palm_os, guards=GUARD_NAMES)),
            ("palm", lambda events: check_generic(gt, make_palm_semantics(), events)))


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(sorted(EMITTED_TRACES)), st.integers(0, 2**10), st.sampled_from(["insert", "replace", "delete"]),
       st.integers(0, 8), st.sampled_from(ATTRIBUTE_TOKENS + ["gen{bot}"]))
@example("fd", 4, "replace", 2, "gen{bot}")  # 5[0]reduce c1 I gen{bot} [0,4-mx] bot
@example("fd", 3, "insert", 1, "c1")  # 4[0]post c1 c1
def test_validate_and_check_compliance_report_on_one_token_edits(machine, line, op, at, token):
    text = _token_edit(machine, line, op, at, token)
    for mode in ("strict", "lenient"):
        for dialect, check in _checks():
            try:
                events = parse_trace(text, mode=mode, dialect=dialect).events
            except GentraError:
                continue
            check(events)  # an exception fails the test


# a file a command cannot read as text, or cannot write: one error line on
# stderr and exit 2, never a traceback


@pytest.mark.parametrize("command", COMMANDS + (["diff"],), ids=" ".join)
def test_non_utf8_input_is_a_parse_error(runner, tmp_path, command):
    path = tmp_path / "input"
    path.write_bytes(b"\x00\xff")
    second = [str(path)] if command[0] == "diff" else []
    result = runner.invoke(main, [command[0], str(path), *command[1:], *second], catch_exceptions=False)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (f"parse error: {path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                             "in position 1: invalid start byte\n")


def test_unreadable_input_is_an_error(runner, element_prob, monkeypatch):
    def refuse(self, encoding=None):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "read_text", refuse)
    result = runner.invoke(main, ["solve", element_prob], catch_exceptions=False)
    assert result.exit_code == 2
    assert (result.stdout, result.stderr) == ("", f"error: cannot read {element_prob}: Permission denied\n")


@pytest.mark.parametrize("command", [["solve", "--trace"], ["solve", "--palm", "--trace"]])
def test_unwritable_trace_output_is_an_error(runner, element_prob, tmp_path, command):
    target = tmp_path / "missing" / "x.trace"
    result = runner.invoke(main, [command[0], element_prob, *command[1:], str(target)], catch_exceptions=False)
    assert result.exit_code == 2
    assert result.stderr == f"error: cannot write {target}: No such file or directory\n"


def test_unwritable_mapped_output_is_an_error(runner, element_prob, tmp_path):
    palm_out = tmp_path / "palm.trace"
    assert runner.invoke(main, ["solve", element_prob, "--palm", "--trace", str(palm_out)]).exit_code == 0
    target = tmp_path / "missing" / "mapped.trace"
    result = runner.invoke(main, ["map-palm", str(palm_out), "-o", str(target)], catch_exceptions=False)
    assert result.exit_code == 2
    assert (result.stdout, result.stderr) == ("", f"error: cannot write {target}: No such file or directory\n")
