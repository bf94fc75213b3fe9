"""Command-line surface: happy paths and exit-code contract."""

from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings

from gentra.cli import main
from gentra.formats import document_for_events, parse_problem, serialize_trace
from gentra.palm import palm_solve
from gentra.solver import solve

from support import apply_edits, edit_scripts

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
        "PASS palm replay events=122\n"
        "PASS validate events=122\n"
        "PASS guards=g3,g4,g5 events=122\n"
        "PASS simulate palm-to-generic traces=1 transitions=122\n"
        "PASS compliance\n"
    )


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
