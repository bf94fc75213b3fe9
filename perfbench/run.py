"""Benchmark of gentra's solve -> validate -> check-compliance pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ladder-fd --seed 1 --seconds 35 --trace 0

One workload runs in one single-threaded process.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run, and the
spans are written to ``.perfbench-out/``.  The noise rules behind the timing
are in README.md next to this file.  The exit code is 0 when every verdict
agreed with its known answer, 1 when one did not, and 2 when the checkout has
no gentra sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import calibration
import inputs
from calibration import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("ladder-fd", "ladder-palm", "corpus-short")
MIN_PASSES = 1
MAX_PASSES = 50
# Seconds of defect-twin checks per pass, shared evenly by the units.  A
# unit's twin is checked back to back enough times to fill its share, in one
# timed batch, so that short checks are not timed alone.
TWIN_SHARE_S = 2.0
SETUP_STARTS = 12  # fresh interpreters after the discarded first one
SETUP_PROBES = 3  # speed probes before each start-up
SETUP_CODE = """\
import gentra.cli
from gentra.abstraction import palm_mapping, palm_profile, project
from gentra.gentra4cp import make_semantics
from gentra.palm import make_palm_semantics
make_semantics()
make_palm_semantics()
project(make_semantics(), palm_profile())
palm_mapping()
"""

# per-layer timings: metric, span, machines whose units it covers
LAYER_TIMES = (
    ("solver.us_per_event", "solver.solve", ("fd",)),
    ("palm.us_per_event", "palm.solve", ("palm",)),
    ("palm.replay_us_per_event", "palm.replay", ("palm",)),
    ("formats.serialize_us_per_event", "formats.serialize", ("fd", "palm")),
    ("formats.parse_us_per_event", "formats.parse", ("fd", "palm")),
    ("gentra4cp.replay_us_per_event", "gentra4cp.replay", ("fd", "palm")),
    ("gentra4cp.guards_us_per_event", "gentra4cp.guards", ("fd", "palm")),
    ("semantics.extract_us_per_event", "semantics.extract", ("fd",)),
    ("semantics.reconstruct_us_per_event", "semantics.reconstruct", ("fd",)),
    ("semantics.compare_us_per_event", "semantics.compare", ("fd",)),
    ("abstraction.map_us_per_event", "abstraction.map", ("palm",)),
    ("abstraction.simulate_us_per_event", "abstraction.simulate", ("palm",)),
    ("abstraction.state_map_us_per_state", "abstraction.state_map", ("palm",)),
)
# per-layer counts: metric, machines, numerator field, per event
LAYER_COUNTS = (
    ("solver.events", ("fd",), "events", False),
    ("solver.nodes", ("fd",), "nodes", False),
    ("solver.solutions", ("fd",), "solutions", False),
    ("palm.events", ("palm",), "events", False),
    ("formats.bytes_per_event", ("fd", "palm"), "bytes", True),
)
CLI_METRICS = ("cli.solve_ms", "cli.validate_ms", "cli.check_compliance_ms")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(seed: int, workload: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "workload": workload, "seed": seed}


def measure_setup(speed: Speed) -> tuple[float, float]:
    """Median start-up of a fresh interpreter that imports the CLI and builds
    the semantics every command needs, rescaled and as measured.

    The first start-up, which may write bytecode caches, is discarded.  The
    phase runs on one CPU, so that the start-ups run at the speed the probes
    between them see, and it is rescaled by the median probe.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    first = len(speed.kernel_s)
    times = []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        for _ in range(SETUP_STARTS + 1):
            for _ in range(SETUP_PROBES):
                speed.probe()
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            times.append(perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, allowed)
    measured = statistics.median(times[1:])
    return measured * calibration.REFERENCE_S / statistics.median(speed.kernel_s[first:]), measured


class Ledger:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"FAILED {what}", file=sys.stderr)


class Unit:
    """One ladder size or one corpus trace, with its defect twin."""

    def __init__(self, index: int, problem, machine: str):
        self.index, self.problem, self.machine = index, problem, machine
        self.reference = None  # the warm-up Run: text and counts must repeat
        self.twin: tuple[str, int] | None = None
        self.twin_batch = 1
        self.reps: list[tuple[str, float, float, int]] = []  # stage, start, end, operations
        self.best: dict[str, float] = {}  # median rescaled time per stage and operation
        self.raw: dict[str, float] = {}  # the same, as measured

    def summarize(self, speed: Speed) -> None:
        rescaled, measured = defaultdict(list), defaultdict(list)
        for name, start, end, count in self.reps:
            rescaled[name].append(speed.rescale(start, end) / count)
            measured[name].append(speed.measured(start, end) / count)
        self.best = {name: statistics.median(values) for name, values in rescaled.items()}
        self.raw = {name: statistics.median(values) for name, values in measured.items()}

    @property
    def label(self) -> str:
        return f"{self.problem.name}/{self.machine}"


def build_units(workload: str, seed: int) -> list[Unit]:
    rng = random.Random(seed)
    if workload == "corpus-short":
        return [Unit(i, p, m) for i, (p, m) in
                enumerate((p, m) for p in inputs.corpus(rng) for m in ("fd", "palm"))]
    machine = "fd" if workload == "ladder-fd" else "palm"
    return [Unit(i, inputs.ladder(k, rng), machine) for i, k in enumerate(inputs.LADDER_SIZES)]


def check_run(unit: Unit, run, ledger: Ledger, mode: str) -> None:
    ok = run.verdict == (True, None) and inputs.solutions_ok(unit.problem, unit.machine, run.solutions)
    if unit.reference is not None:
        ok = ok and run.counts == unit.reference.counts and run.text == unit.reference.text
    ledger.record(ok, f"{mode} verdict {unit.label}: {run.verdict} counts={run.counts}")


def check_twin(unit: Unit, pipes, ledger: Ledger) -> tuple[float, float]:
    """Check the defect twin ``unit.twin_batch`` times back to back."""
    text, index = unit.twin
    gc.collect()
    t0 = perf_counter()
    verdicts = [pipes.verdict(unit.machine, text) for _ in range(unit.twin_batch)]
    t1 = perf_counter()
    for verdict in verdicts:
        ledger.record(verdict == (False, index), f"defect twin {unit.label}: {verdict} expected FAIL at {index}")
    return t0, t1


def guarded(ledger: Ledger, what: str, fn, *args):
    """Run one operation; an unexpected exception counts as a failed one."""
    try:
        return fn(*args)
    except Exception as exc:  # the run must go on and report the failure
        ledger.record(False, f"{what}: {type(exc).__name__}: {exc}")
        return None


def warm_up(units, pipes, ledger: Ledger, seed: int) -> None:
    for unit in units:
        run = guarded(ledger, f"warm-up {unit.label}", pipes.run, unit.machine, unit.problem.text)
        if run is None:
            continue
        check_run(unit, run, ledger, "warm-up")
        unit.reference = run
        unit.twin = inputs.defect_twin(run.text, random.Random(f"{seed}/{unit.index}"))
        interval = guarded(ledger, f"warm-up twin {unit.label}", check_twin, unit, pipes, ledger)
        if interval is not None:
            share = TWIN_SHARE_S / len(units)
            unit.twin_batch = max(1, round(share / (interval[1] - interval[0])))


def timed_passes(units, seconds: float, started: float, one_pass) -> int:
    """Repeat passes over the units until the next one would overrun."""
    passes, last = 0, 0.0
    while passes < MAX_PASSES:
        if passes >= MIN_PASSES and perf_counter() - started + last > seconds:
            break
        t0 = perf_counter()
        for unit in units:
            one_pass(unit, passes)
        last = perf_counter() - t0
        passes += 1
    return passes


def timed_pass(unit: Unit, pipes, ledger: Ledger) -> None:
    if unit.reference is None:
        return
    gc.collect()
    run = guarded(ledger, f"run {unit.label}", pipes.run, unit.machine, unit.problem.text)
    if run is not None:
        check_run(unit, run, ledger, "timed")
        unit.reps.extend((name, *interval, 1) for name, interval in run.stages.items())
    interval = guarded(ledger, f"twin {unit.label}", check_twin, unit, pipes, ledger)
    if interval is not None:
        unit.reps.append(("reject", *interval, unit.twin_batch))


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(units, setup_s: float, field: str = "best") -> dict:
    best = [getattr(u, field) for u in units]
    best = [(u, b) for u, b in zip(units, best) if {"pipeline", "solve", "check", "reject"} <= b.keys()]
    events = sum(u.reference.counts.events for u, _ in best) or 1
    verdict_ms = [b["check"] * 1e3 for _, b in best]
    reject_ms = [b["reject"] * 1e3 for _, b in best] or [0.0]
    values = {
        "setup_s": (setup_s, "s"),
        "us_per_event": (sum(b["pipeline"] for _, b in best) * 1e6 / events, "us/event"),
        "solve_us_per_event": (sum(b["solve"] for _, b in best) * 1e6 / events, "us/event"),
        "check_us_per_event": (sum(b["check"] for _, b in best) * 1e6 / events, "us/event"),
        "verdict_p50_ms": (percentile(verdict_ms or [0.0], 50), "ms"),
        "verdict_p90_ms": (percentile(verdict_ms or [0.0], 90), "ms"),
        "reject_p50_ms": (percentile(reject_ms, 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def self_times(spans, speed: Speed):
    """Median rescaled self time per (unit, span name) over the traced
    passes, and the median rescaled pipeline total per unit.

    A span's self time is its time minus its children's, both without the
    speed probes that ran inside them, rescaled by the speed over the
    outermost span that holds it.
    """
    measured = [speed.measured(start, end) for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            child[parent] += measured[i]
    for i, (_, _, _, parent, _) in enumerate(spans):  # parents come first
        if parent is not None:
            root[i] = root[parent]
    factor = {i: speed.factor(spans[i][1], spans[i][2]) for i in set(root)}
    per_pass = defaultdict(float)
    totals = defaultdict(list)
    for i, (name, _, _, parent, (unit, pass_no)) in enumerate(spans):
        per_pass[(unit, name, pass_no)] += (measured[i] - child[i]) * factor[root[i]]
        if name == "pipeline":
            totals[unit].append(measured[i] * factor[i])
    per_unit = defaultdict(list)
    for (unit, name, _), seconds in per_pass.items():
        per_unit[(unit, name)].append(seconds)
    return ({key: statistics.median(v) for key, v in per_unit.items()},
            {unit: statistics.median(v) for unit, v in totals.items()})


def layer_values(group, best) -> dict:
    """Per-layer values over a group of units: layer self time per event
    (per state for the state map) and the counts the units produced."""
    values = {}
    for metric, span, machines in LAYER_TIMES:
        covered = [u for u in group if u.machine in machines]
        per = sum(u.reference.counts.events + (span == "abstraction.state_map") for u in covered)
        seconds = sum(best.get((u.index, span), 0.0) for u in covered)
        values[metric] = (seconds * 1e6 / per if per else 0.0,
                          "us/state" if metric.endswith("per_state") else "us/event")
    for metric, machines, field, per_event in LAYER_COUNTS:
        covered = [u for u in group if u.machine in machines]
        total = sum(getattr(u.reference.counts, field) for u in covered)
        if per_event:
            events = sum(u.reference.counts.events for u in covered)
            values[metric] = (total / events if events else 0.0, "bytes/event")
        else:
            values[metric] = (total, "count")
    return values


def layer_metrics(units, spans, speed: Speed, sizes) -> dict:
    """Per-layer values for the whole workload, for each ladder size, and the
    growth from the smallest to the largest size.  A layer the workload does
    not reach reads 0."""
    best, best_total = self_times(spans, speed)
    metrics = {}
    groups = {"": units}
    groups.update({f".k{k}": [u for u in units if u.problem.size == k] for k in sizes})
    for suffix, group in groups.items():
        for name, (value, unit) in layer_values(group, best).items():
            metrics[name + suffix] = {"value": value, "unit": unit}
    for name in [m[0] for m in LAYER_TIMES] + [m[0] for m in LAYER_COUNTS]:
        lo, hi = metrics[f"{name}.k{sizes[0]}"]["value"], metrics[f"{name}.k{sizes[-1]}"]["value"]
        metrics[name + ".growth"] = {"value": hi / lo if lo else 0.0, "unit": "ratio"}
    untraced = sum(u.best.get("pipeline", 0.0) for u in units)
    traced = sum(best_total.get(u.index, 0.0) for u in units)
    metrics["trace.overhead_pct"] = {"value": (traced / untraced - 1) * 100 if untraced else 0.0,
                                     "unit": "%"}
    return metrics


def cli_commands(units, ledger: Ledger) -> dict:
    """The solve, validate and check-compliance commands, in-process through
    click's test runner, on files for the top ladder size: metric -> (start,
    end) of each command that applies to the workload's machine."""
    from click.testing import CliRunner

    from gentra.cli import main as cli

    intervals = {}
    top = units[-1]
    palm = top.machine == "palm"
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        problem, trace = Path(tmp) / "ladder.prob", Path(tmp) / "ladder.trace"
        problem.write_text(top.problem.text, encoding="utf-8")
        commands = [("cli.solve_ms", ["solve", str(problem), "--trace", str(trace)] + ["--palm"] * palm),
                    ("cli.validate_ms", ["validate", str(trace)] + ["--profile", "palm"] * palm)]
        if palm:
            commands.append(("cli.check_compliance_ms", ["check-compliance", str(trace)]))
        runner = CliRunner()
        for metric, argv in commands:
            gc.collect()
            t0 = perf_counter()
            result = runner.invoke(cli, argv)
            intervals[metric] = (t0, perf_counter())
            ok = result.exit_code == 0
            if argv[0] == "solve":
                ok = ok and trace.read_text(encoding="utf-8") == top.reference.text
            ledger.record(ok, f"cli {argv[0]} {top.label}: exit code {result.exit_code}")
    return intervals


def write_spans(tracer, units, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "unit_and_pass"],
                   "units": [u.label for u in units], "spans": tracer.spans}, f)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gentra" / "__init__.py").is_file():
        print(f"no gentra sources under {SRC}: run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pipeline

    env = environment(args.seed, args.workload)
    speed = Speed()
    setup_s, setup_raw = (None, None) if args.trace else measure_setup(speed)
    pipes = pipeline.Pipelines()
    units = build_units(args.workload, args.seed)
    ledger = Ledger()
    started = perf_counter()
    warm_up(units, pipes, ledger, args.seed)
    # what exists now lives to the end: keep it out of the collections
    # that precede each repetition
    gc.collect()
    gc.freeze()

    if args.trace:
        tracer = pipeline.Tracer()

        def one_pass(unit, pass_no):
            timed_pass(unit, pipes, ledger)
            if unit.reference is None:
                return
            gc.collect()
            tracer.unit = (unit.index, pass_no)
            run = guarded(ledger, f"traced {unit.label}", pipes.run_traced,
                          unit.machine, unit.problem.text, tracer)
            if run is not None:
                check_run(unit, run, ledger, "traced")
                if run.states:
                    pipeline.map_states(run.states, tracer)

        with speed:
            passes = timed_passes(units, args.seconds, started, one_pass)
            cli = {} if args.workload == "corpus-short" else cli_commands(units, ledger)
        for unit in units:
            unit.summarize(speed)
        metrics = layer_metrics(units, tracer.spans, speed, inputs.LADDER_SIZES)
        for name in CLI_METRICS:
            value = speed.rescale(*cli[name]) * 1e3 if name in cli else 0.0
            metrics[name] = {"value": value, "unit": "ms"}
        env["spans"] = str(write_spans(tracer, units, args.workload, args.seed).relative_to(ROOT))
    else:
        with speed:
            passes = timed_passes(units, args.seconds, started,
                                  lambda unit, _: timed_pass(unit, pipes, ledger))
        for unit in units:
            unit.summarize(speed)
        metrics = end_to_end(units, setup_s)
        for name, metric in end_to_end(units, setup_raw, "raw").items():
            print(f"# as measured, before rescaling: {name} = {metric['value']:.6g} {metric['unit']}")

    counted = [u.reference.counts for u in units if u.reference is not None]
    factors = sorted(speed.factors())
    env.update(units=len(units), passes=passes, elapsed_s=round(perf_counter() - started, 3),
               speed_probes=len(factors), speed_factor_median=round(statistics.median(factors), 4),
               speed_factor_range=[round(factors[0], 4), round(factors[-1], 4)])
    print("# env " + json.dumps(env))
    print("# counts " + json.dumps({field: sum(getattr(c, field) for c in counted)
                                    for field in ("events", "nodes", "solutions", "bytes")}))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
