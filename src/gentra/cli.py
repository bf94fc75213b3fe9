"""Command-line surface.

Exit codes: 0 for a passing verdict, 1 for a failing verdict (validation,
compliance, differing traces, exceeded budgets), 2 for usage or parse
errors.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import click

from .abstraction import check_generic, palm_process, palm_profile, palm_to_generic, project
from .errors import GentraError, SolveLimitError
from .fdomain import DEFAULT_MX
from .formats import (
    diff_events,
    document_for_events,
    parse_problem,
    parse_trace,
    serialize_trace,
)
from .gentra4cp import DEFAULT_GUARDS, GUARD_NAMES, make_semantics, validate as validate_events
from .palm import palm_solve
from .solver import solve as fd_solve
from .state import store


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _parse_trace_file(path, mode, dialect, mx):
    try:
        return parse_trace(_read(path), mode=mode, dialect=dialect, mx=mx)
    except GentraError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(2)


def _guard_tuple(text: str | None, default):
    if not text:
        return default
    text = text.strip().lower()
    m = re.fullmatch(r"g(\d)\.\.g(\d)", text)
    if m:  # range form, e.g. g3..g5
        lo, hi = int(m.group(1)), int(m.group(2))
        guards = tuple(f"g{i}" for i in range(lo, hi + 1))
    else:
        guards = tuple(g.strip() for g in text.split(",") if g.strip())
    if not guards:
        click.echo("no guards selected", err=True)
        sys.exit(2)
    bad = [g for g in guards if g not in GUARD_NAMES]
    if bad:
        click.echo(f"unknown guards {bad}", err=True)
        sys.exit(2)
    return guards


@click.group()
def main():
    """Trace tooling for finite-domain solver runs."""


@main.command("solve")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--trace", "trace_out", type=click.Path(dir_okay=False), help="write the emitted trace here")
@click.option("--strict-reduce", is_flag=True, help="reduce also deactivates the active pair")
@click.option("--palm", "use_palm", is_flag=True, help="run the explanation-based solver instead")
@click.option("--mx", type=int, default=DEFAULT_MX, show_default=False, help="domain upper sentinel")
def solve_cmd(problem, trace_out, strict_reduce, use_palm, mx):
    """Solve a problem file, printing solutions and emitting the trace."""
    try:
        prob = parse_problem(_read(problem), mx=mx)
    except GentraError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(2)
    try:
        if use_palm:
            result = palm_solve(prob)
            doc = document_for_events(result.events, dialect="palm", solver="palm", mx=mx)
        else:
            result = fd_solve(prob, strict_reduce=strict_reduce)
            doc = document_for_events(result.events, solver="fd-strict" if strict_reduce else "fd", mx=mx)
    except SolveLimitError as exc:
        click.echo(f"FAIL solve: {exc}", err=True)
        sys.exit(1)
    for assignment in result.solutions:
        click.echo("solution " + " ".join(f"{v}={d}" for v, d in assignment))
    click.echo(f"solutions={len(result.solutions)} events={len(result.events)}")
    text = serialize_trace(doc)
    if trace_out:
        Path(trace_out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


@main.command("validate")
@click.argument("trace", type=click.Path(exists=True, dir_okay=False))
@click.option("--profile", type=click.Choice(["generic", "palm"]), default="generic")
@click.option("--guards", default=None, help="comma-separated guard list, e.g. g3,g4")
@click.option("--lenient", is_flag=True, help="accept foreign trace idioms")
@click.option("--strict-reduce", is_flag=True, help="replay under the strict reduce rule")
@click.option("--mx", type=int, default=DEFAULT_MX)
def validate_cmd(trace, profile, guards, lenient, strict_reduce, mx):
    """Replay a trace against the format rules and guard checks."""
    dialect = "palm" if profile == "palm" else "generic"
    doc = _parse_trace_file(trace, "lenient" if lenient else "strict", dialect, mx)
    for dev in doc.deviations:
        click.echo(f"NOTE deviation {dev}")
    os = make_semantics(strict_reduce=strict_reduce)
    default_guards = GUARD_NAMES if profile == "palm" else DEFAULT_GUARDS
    if profile == "palm":
        os = project(os, palm_profile())
    report = validate_events(doc.events, os=os, guards=_guard_tuple(guards, default_guards))
    for line in report.lines():
        click.echo(line)
    sys.exit(0 if report.ok else 1)


@main.command("reconstruct")
@click.argument("trace", type=click.Path(exists=True, dir_okay=False))
@click.option("--lenient", is_flag=True)
@click.option("--mx", type=int, default=DEFAULT_MX)
def reconstruct_cmd(trace, lenient, mx):
    """Replay a trace and print the reconstructed run."""
    doc = _parse_trace_file(trace, "lenient" if lenient else "strict", "generic", mx)
    report = validate_events(doc.events, guards=())
    if report.error is not None:
        click.echo(f"FAIL reconstruct event={report.error.index} "
                   f"rule={report.error.rule} {report.error.condition}")
        sys.exit(1)
    for chrono, step in zip(doc.chronos(), report.virtual.events):
        s = step.state.solver
        click.echo(f"{chrono} {step.action.kind:<13} store={len(store(s))} "
                   f"active={len(s.active)} pending={len(s.pending)} rejected={len(s.rejected)}")
    click.echo(f"PASS reconstruct events={report.checked}")


@main.command("map-palm")
@click.argument("trace", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", type=click.Path(dir_okay=False), help="write the mapped trace here")
@click.option("--lenient", is_flag=True)
@click.option("--mx", type=int, default=DEFAULT_MX)
def map_palm_cmd(trace, out, lenient, mx):
    """Translate a palm-dialect trace into the plain format."""
    doc = _parse_trace_file(trace, "lenient" if lenient else "strict", "palm", mx)
    try:
        mapped = palm_to_generic(doc.events)
    except GentraError as exc:
        click.echo(f"FAIL map-palm: {exc}", err=True)
        sys.exit(1)
    text = serialize_trace(document_for_events(mapped, solver="palm-mapped", mx=mx,
                                               chrono_start=doc.chrono_start))
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


@main.command("check-compliance")
@click.argument("trace", type=click.Path(exists=True, dir_okay=False))
@click.option("--lenient", is_flag=True)
@click.option("--mx", type=int, default=DEFAULT_MX)
def check_compliance_cmd(trace, lenient, mx):
    """Check a palm-dialect trace against the format: replay it under the
    palm machine, map it, validate under the restricted format with all
    guards, and check the transition simulation."""
    doc = _parse_trace_file(trace, "lenient" if lenient else "strict", "palm", mx)
    report = check_generic(make_semantics(), palm_process(), doc.events)
    for line in report.lines:
        click.echo(line)
    sys.exit(0 if report.ok else 1)


@main.command("diff")
@click.argument("trace_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("trace_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--lenient", is_flag=True)
@click.option("--mx", type=int, default=DEFAULT_MX)
def diff_cmd(trace_a, trace_b, lenient, mx):
    """Structural event-level diff of two traces."""
    mode = "lenient" if lenient else "strict"
    a = _parse_trace_file(trace_a, mode, "generic", mx)
    b = _parse_trace_file(trace_b, mode, "generic", mx)
    diffs = diff_events(a.events, b.events)
    for d in diffs:
        click.echo(d)
    click.echo(f"{'PASS' if not diffs else 'FAIL'} diff events={min(len(a.events), len(b.events))}")
    sys.exit(0 if not diffs else 1)


if __name__ == "__main__":
    main()
