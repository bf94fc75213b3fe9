"""Relating trace levels: projections, derivations, simulation, compliance.

A *projection* restricts a semantics to a dependency-closed subset of its
state parameters and to the action types that only touch them.  A
*derivation* maps concrete trace prefixes to derived prefixes, growing one
derived event at a time along a chain of concrete prefixes.  A *state
mapping* (a state function ``d`` plus an action-kind bijection ``h``)
carrying every concrete transition to a derived transition is machine
evidence of simulation, and hence (on the behaviours checked) that the
derived semantics is a derivation field of the concrete one.

Format compliance of a process trace (:func:`check_generic`) combines them:
replay the trace under the process's own rules, map it into the reference
format, replay it under the projected format, and check the transition-level
simulation.  All checks are sample-based: reports say "verified on N
traces", never "proved".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping

from .errors import GentraError, MappingError, ProjectionError, ReconstructionError, TransitionError
from .gentra4cp import (DEFAULT_GUARDS, GUARD_NAMES, GenericEvent, get_parameter, make_semantics,
                        reset_parameters, validate)
from .palm import PALM_EVENT_TYPES, make_palm_semantics
from .semantics import Action, ObservationalSemantics, extract, reconstruct, replay_divergence, transition_holds
from .state import NO_EXPLANATIONS, FullState, initial_state
from .trace import Trace, VirtualPayload, _actual_payloads, _payload


# parametric projections


@dataclass(frozen=True)
class ParamProjection:
    """A named subset of state parameters and action kinds."""

    name: str
    kept_params: frozenset
    kept_kinds: frozenset


def identity_projection(os: ObservationalSemantics) -> ParamProjection:
    return ParamProjection("identity", frozenset(os.parameters), frozenset(os.action_kinds))


def check_projection(os: ObservationalSemantics, proj: ParamProjection) -> None:
    """Raise ProjectionError when the projection is invalid for the semantics.

    Static rules, against the semantics' declared tables:
    no kept parameter may depend on a dropped one; a kept action's
    non-neutral writes must stay within the kept parameters; a dropped
    action must not (non-neutrally) write a kept parameter.
    """
    unknown = proj.kept_params - set(os.parameters)
    if unknown:
        raise ProjectionError(f"unknown parameters {sorted(unknown)}")
    unknown = proj.kept_kinds - os.action_kinds
    if unknown:
        raise ProjectionError(f"unknown action kinds {sorted(unknown)}")
    dropped_params = set(os.parameters) - proj.kept_params
    for p in sorted(proj.kept_params):
        bad = os.param_deps.get(p, frozenset()) & dropped_params
        if bad:
            raise ProjectionError(f"kept parameter {p!r} depends on dropped {sorted(bad)}")
    for k in sorted(proj.kept_kinds):
        writes = os.action_writes.get(k, frozenset()) - os.neutral_writes.get(k, frozenset())
        bad = writes - proj.kept_params
        if bad:
            raise ProjectionError(f"kept action {k!r} writes dropped parameters {sorted(bad)}")
    for k in sorted(os.action_kinds - proj.kept_kinds):
        writes = os.action_writes.get(k, frozenset()) - os.neutral_writes.get(k, frozenset())
        bad = writes & proj.kept_params
        if bad:
            raise ProjectionError(f"dropped action {k!r} writes kept parameters {sorted(bad)}")


def project(os: ObservationalSemantics, proj: ParamProjection) -> ObservationalSemantics:
    """The semantics restricted to a valid projection.

    Only the transition function changes: it refuses dropped action kinds,
    so replaying a record of a dropped kind fails where its rule would apply.
    On the states it is used for, dropped parameters hold their initial
    values, so no further state surgery is required.
    """
    check_projection(os, proj)

    def apply(state, action):
        if action.kind not in proj.kept_kinds:
            raise TransitionError(action.kind, f"action outside projection {proj.name}")
        return os.apply(state, action)

    return replace(
        os,
        name=f"{os.name}/{proj.name}",
        action_kinds=frozenset(proj.kept_kinds),
        apply=apply,
        parameters=tuple(p for p in os.parameters if p in proj.kept_params),
        param_deps={k: v for k, v in os.param_deps.items() if k in proj.kept_params},
        action_writes={k: v for k, v in os.action_writes.items() if k in proj.kept_kinds},
    )


@dataclass(frozen=True)
class SimulationViolation:
    """A failed check of the audit, simulation or commutation on one sample
    trace (``None`` for a check on the mapping itself), at one event (``None``
    for the trace's initial state)."""

    trace: int | None
    event: int | None
    detail: str


@dataclass(frozen=True)
class ProjectionAuditReport:
    projection: str
    traces: int
    violations: tuple[SimulationViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = [f"FAIL audit trace={v.trace} event={v.event} {v.detail}" for v in self.violations]
        out.append(f"{'PASS' if self.ok else 'FAIL'} projection-audit {self.projection} traces={self.traces}")
        return out


def audit_projection(os: ObservationalSemantics, proj: ParamProjection,
                     samples: Iterable[Trace]) -> ProjectionAuditReport:
    """Replay-based audit of a projection's restriction claims.

    On each sample: only kept action kinds occur, dropped parameters never
    leave their initial values, and re-running every transition with the
    dropped parameters reset produces the same kept-parameter results (the
    kept behaviour does not read the dropped state).
    """
    check_projection(os, proj)
    dropped = frozenset(os.parameters) - proj.kept_params
    violations = []
    samples = list(samples)
    for ti, t in enumerate(samples):
        if t.kind == "actual":  # one kind per trace: the first event is the culprit
            violations.append(SimulationViolation(ti, 0, "audit expects virtual traces"))
            continue
        initial_values = {p: get_parameter(t.initial_state, p) for p in dropped}
        state = t.initial_state
        for ei, ev in enumerate(t.events):
            if ev.action.kind not in proj.kept_kinds:
                violations.append(SimulationViolation(ti, ei, f"dropped action {ev.action.kind} occurs"))
                state = ev.state
                continue
            for p in sorted(dropped):
                if get_parameter(ev.state, p) != initial_values[p]:
                    violations.append(SimulationViolation(ti, ei, f"dropped parameter {p!r} changed"))
            try:
                rerun = os.apply(reset_parameters(state, dropped), ev.action)
            except TransitionError as exc:
                violations.append(SimulationViolation(ti, ei, f"transition reads dropped parameters: {exc}"))
            else:
                for p in sorted(proj.kept_params):
                    if get_parameter(rerun, p) != get_parameter(ev.state, p):
                        violations.append(SimulationViolation(ti, ei, f"kept parameter {p!r} depends on dropped state"))
            state = ev.state
    return ProjectionAuditReport(proj.name, len(samples), tuple(violations))


# simulation evidence


@dataclass(frozen=True)
class StateMapping:
    """Machine-checkable simulation evidence: a state map and a kind bijection."""

    name: str
    map_state: Callable[[Any], Any]
    action_map: Mapping[str, str]
    map_action: Callable[[Action], Action] | None = None

    def carry_action(self, action: Action) -> Action:
        if self.map_action is not None:
            return self.map_action(action)
        return Action(self.action_map[action.kind], action.args)


@dataclass(frozen=True)
class SimulationReport:
    mapping: str
    traces: int
    transitions: int
    violations: tuple[SimulationViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = [f"FAIL simulate trace={v.trace} event={v.event} {v.detail}" for v in self.violations]
        out.append(f"{'PASS' if self.ok else 'FAIL'} simulate {self.mapping} "
                   f"traces={self.traces} transitions={self.transitions}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def check_simulable(os_c: ObservationalSemantics, os_d: ObservationalSemantics,
                    mapping: StateMapping, samples: Iterable[Trace]) -> SimulationReport:
    """Check the simulation conditions on every transition of the samples.

    Structural preconditions first: the kind map must be a bijection between
    the two action sets, and the state map a function (it is applied to every
    sample state, and a trace stops at the state it fails on).  Then, per
    transition (s, r, s'), the derived semantics must accept (d(s), h(r),
    d(s')), and each initial state must map to a derived initial state.  A
    sample of actual records has no transitions to check and is reported as
    a violation.  A clean report over the samples is the evidence that, on
    those behaviours, the derived semantics is a derivation field.
    Each sample state is mapped once: the mapped post-state of a transition
    is the mapped pre-state of the next.
    """
    violations = []
    h = dict(mapping.action_map)
    missing = os_c.action_kinds - set(h)
    if missing:
        violations.append(SimulationViolation(None, None, f"kind map undefined on {sorted(missing)}"))
    image = {h[k] for k in h if k in os_c.action_kinds}
    if len(image) != len(os_c.action_kinds & set(h)):
        violations.append(SimulationViolation(None, None, "kind map is not injective"))
    unreachable = os_d.action_kinds - image
    if unreachable:
        violations.append(SimulationViolation(
            None, None, f"derived kinds {sorted(unreachable)} unreachable through the kind map"))
    samples = list(samples)
    transitions = 0
    if not violations:
        for ti, t in enumerate(samples):
            try:
                mapped = mapping.map_state(t.initial_state)
            except Exception as exc:  # d must be total on sample states
                violations.append(SimulationViolation(ti, None, f"state map failed on the initial state: {exc}"))
                continue
            if not os_d.is_initial(mapped):
                violations.append(SimulationViolation(ti, None, "initial state does not map to a derived initial state"))
                continue
            if t.kind == "actual":  # one kind per trace: the first event is the culprit
                violations.append(SimulationViolation(ti, 0, "simulation expects virtual traces"))
                continue
            for ei, ev in enumerate(t.events):
                transitions += 1
                carried = mapping.carry_action(ev.action)
                try:
                    post = mapping.map_state(ev.state)
                except Exception as exc:
                    violations.append(SimulationViolation(ti, ei, f"state map failed: {exc}"))
                    break
                if not transition_holds(os_d, mapped, carried, post):
                    violations.append(SimulationViolation(
                        ti, ei, f"{ev.action.kind} transition is not simulated by {carried.kind}"))
                    break
                mapped = post
    return SimulationReport(mapping.name, len(samples), transitions, tuple(violations))


# derivations


@dataclass(frozen=True)
class Derivation:
    """A prefix-to-prefix map between trace levels."""

    name: str
    fn: Callable[[Trace], Trace]
    surjective_hint: bool = False

    def __call__(self, prefix: Trace) -> Trace:
        return self.fn(prefix)


def identity_derivation() -> Derivation:
    return Derivation("identity", lambda t: t, surjective_hint=True)


def compose(d1: Derivation, d2: Derivation) -> Derivation:
    """Apply ``d1`` first, then ``d2``."""
    return Derivation(f"{d2.name}.{d1.name}", lambda t: d2.fn(d1.fn(t)),
                      surjective_hint=d1.surjective_hint and d2.surjective_hint)


@dataclass(frozen=True)
class ComposeReport:
    ok: bool
    warnings: tuple[str, ...]

    def lines(self) -> list[str]:
        return [f"WARN compose {w}" for w in self.warnings] + [
            f"{'PASS' if self.ok else 'WARN'} compose"]


def check_composable(d1: Derivation, d2: Derivation, samples: Iterable[Trace]) -> ComposeReport:
    """Sample-check the composition precondition: d1 surjective or d2 total.

    Surjectivity cannot be established from samples, so a surjectivity hint
    is only reported, while totality of ``d2`` is tried on every image of a
    sample prefix.  Unverifiable preconditions produce warnings, not errors.
    """
    warnings = []
    total = True
    for t in samples:
        for p in t.prefixes():
            try:
                d2.fn(d1.fn(p))
            except Exception as exc:
                total = False
                warnings.append(f"second map undefined on an image ({exc})")
                break
        if not total:
            break
    if not total and not d1.surjective_hint:
        warnings.append("first map is not claimed surjective and second map is not total on samples")
    if d1.surjective_hint:
        warnings.append("surjectivity of the first map is a hint, spot-checked only")
    return ComposeReport(ok=total or d1.surjective_hint, warnings=tuple(warnings))


@dataclass(frozen=True)
class ChainViolation:
    trace: int
    detail: str


@dataclass(frozen=True)
class ChainReport:
    derivation: str
    traces: int
    violations: tuple[ChainViolation, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = [f"FAIL chain trace={v.trace} {v.detail}" for v in self.violations]
        out += [f"NOTE chain {n}" for n in self.notes]
        out.append(f"{'PASS' if self.ok else 'FAIL'} derivation {self.derivation} traces={self.traces}")
        return out


def check_derivation(D: Derivation, concrete: Iterable[Trace],
                     is_initial_derived: Callable[[Any], bool]) -> ChainReport:
    """Verify the prefix-chain condition of a derivation on sample traces.

    For each concrete trace, the images of its prefixes must start at a
    derived initial state and reach every derived prefix length through a
    growing chain of concrete prefixes.  Contiguous one-step growth is
    checked first; on gaps, all prefixes are scanned for witnesses (the
    scan bound, the trace length, is recorded in the report).
    """
    violations = []
    notes = []
    concrete = list(concrete)
    for ti, t in enumerate(concrete):
        try:
            images = [D(t.prefix(k)) for k in range(t.size + 1)]
        except Exception as exc:
            violations.append(ChainViolation(ti, f"derivation not total on prefixes: {exc}"))
            continue
        if images[0].size != 0 or not is_initial_derived(images[0].initial_state):
            violations.append(ChainViolation(ti, "the empty prefix does not map to a derived initial state"))
            continue
        derived = images[-1]
        contiguous = True
        for k in range(t.size):
            a, b = images[k], images[k + 1]
            if not a.is_prefix_of(b) or b.size - a.size > 1:
                contiguous = False
                break
        if contiguous:
            continue
        # fall back: scan all prefixes for a witness of every derived length
        notes.append(f"trace {ti}: contiguous chain failed; scanned all {t.size + 1} prefixes")
        witness = []
        ok = True
        for length in range(derived.size + 1):
            ks = [k for k, img in enumerate(images) if img.size == length and img.is_prefix_of(derived)]
            if not ks:
                violations.append(ChainViolation(ti, f"no concrete prefix maps to derived length {length}"))
                ok = False
                break
            witness.append(min(ks))
        if ok and witness != sorted(witness):
            violations.append(ChainViolation(ti, "witness prefixes are not an increasing chain"))
    return ChainReport(D.name, len(concrete), tuple(violations), tuple(notes))


# the explanation-based machine against the generic format


def palm_profile() -> ParamProjection:
    """The generic format restricted for the explanation-based machine:
    no jump rule, no solved rule, and no solved-constraint parameter."""
    os = make_semantics()
    return ParamProjection(
        name="palm",
        kept_params=frozenset(os.parameters) - {"solved"},
        kept_kinds=frozenset(os.action_kinds) - {"jumpTo", "solved"},
    )


def map_palm_state(full: FullState) -> FullState:
    """The state map: shares the solver state and tree, empties the
    explanation table (one positional construction)."""
    return tuple.__new__(FullState, (full.solver, full.tree, NO_EXPLANATIONS))


def _strip_explanation(action: Action) -> Action:
    """The action without its explanation argument; the action itself when
    it carries none (no action is its own argument, so it is the default)."""
    if action.get("explanation", action) is action:
        return action
    return Action(action.kind, tuple((k, v) for k, v in action.args if k != "explanation"))


def palm_mapping() -> StateMapping:
    """The simulation evidence for the explanation-based machine: identity
    on the shared parameters and on action names, explanations ignored."""
    return StateMapping(
        name="palm-to-generic",
        map_state=map_palm_state,
        action_map={k: k for k in PALM_EVENT_TYPES},
        map_action=_strip_explanation,
    )


def palm_event_to_generic(ev: GenericEvent) -> GenericEvent:
    """Drop the dialect extras (explanations, wake kinds, name aliases).

    A record that carries none is returned as it is.
    """
    if ev.type in ("jumpTo", "solved"):
        raise MappingError(f"{ev.type} has no counterpart in the mapped profile")
    if ev.type not in PALM_EVENT_TYPES:
        raise MappingError(f"unknown event type {ev.type!r}")
    if ev.explanation is None and ev.wake_kind is None and ev.var_alias is None:
        return ev
    return ev._replace(explanation=None, wake_kind=None, var_alias=None)


def palm_to_generic(events: Iterable[GenericEvent]) -> tuple[GenericEvent, ...]:
    return tuple(palm_event_to_generic(ev) for ev in events)


# compliance of a process against the reference format


@dataclass(frozen=True)
class ProcessSpec:
    """Everything needed to check one process: its semantics, the targeted
    projection, the simulation evidence, the mapping of its records into the
    format, and the guards its mapped traces must keep."""

    name: str
    os: ObservationalSemantics
    projection: ParamProjection
    mapping: StateMapping
    map_events: Callable[[tuple[GenericEvent, ...]], tuple[GenericEvent, ...]]
    guards: tuple[str, ...] = DEFAULT_GUARDS


def palm_process() -> ProcessSpec:
    """The explanation-based machine against the palm profile, with every guard."""
    return ProcessSpec("palm", make_palm_semantics(), palm_profile(), palm_mapping(),
                       palm_to_generic, GUARD_NAMES)


@dataclass(frozen=True)
class ComplianceReport:
    ok: bool
    lines: tuple[str, ...]


def check_generic(gt_os: ObservationalSemantics, spec: ProcessSpec,
                  events: Iterable[GenericEvent]) -> ComplianceReport:
    """Check one emitted trace of a process against the reference format.

    The projection must be valid for the format; the records must replay
    under the process's own rules and map into the format; the mapped
    records must replay under the projected format with the process's
    guards clean; and the transition-level simulation must hold on the
    replayed run.  A failure to project, replay or map stops the check.
    """
    try:
        projected = project(gt_os, spec.projection)
    except ProjectionError as exc:
        return ComplianceReport(False, (f"FAIL compliance {spec.name}: invalid projection: {exc}",))
    events = tuple(events)
    try:
        virtual = reconstruct(spec.os, Trace(initial_state(), _actual_payloads(events)))
    except GentraError as exc:
        return ComplianceReport(False, (f"FAIL replay under the {spec.name} rules: {exc}",))
    lines = [f"PASS {spec.name} replay events={virtual.size}"]
    try:
        mapped = spec.map_events(events)
    except MappingError as exc:
        return ComplianceReport(False, (*lines, f"FAIL map-{spec.name}: {exc}"))
    report = validate(mapped, os=projected, guards=spec.guards)
    sim = check_simulable(spec.os, projected, spec.mapping, [virtual])
    ok = report.ok and sim.ok
    return ComplianceReport(ok, (*lines, *report.lines(), *sim.lines(),
                                 f"{'PASS' if ok else 'FAIL'} compliance"))


# the translation-square check between two faithful levels


@dataclass(frozen=True)
class CommutationReport:
    traces: int
    violations: tuple[SimulationViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = [f"FAIL commute trace={v.trace} event={v.event} {v.detail}" for v in self.violations]
        out.append(f"{'PASS' if self.ok else 'FAIL'} commutation traces={self.traces}")
        return out


def commutation_check(os_c: ObservationalSemantics, os_d: ObservationalSemantics,
                      mapping: StateMapping,
                      map_events: Callable[[tuple], tuple],
                      samples: Iterable[Trace]) -> CommutationReport:
    """Check that the two routes from concrete virtual traces to derived
    virtual traces agree: extracting, mapping the actual records, and
    reconstructing at the derived level must equal mapping the virtual trace
    directly.  (The actual-trace route has to start with extraction at the
    concrete level and end with reconstruction at the derived level; the
    reverse order does not type-check.)  The derived-level replay is compared
    with the direct route step by step as it goes (:func:`replay_divergence`).
    """
    violations = []
    samples = list(samples)
    for ti, t in enumerate(samples):
        try:
            actual = extract(os_c, t)
            direct = Trace(
                mapping.map_state(t.initial_state),
                tuple(_payload(VirtualPayload, (mapping.carry_action(ev.action), mapping.map_state(ev.state)))
                      for ev in t.events),
            )
            mapped_records = map_events(tuple(p.record for p in actual.events))
            mapped_actual = Trace(direct.initial_state, _actual_payloads(mapped_records))
            pos = replay_divergence(os_d, mapped_actual, direct)
        except (TransitionError, ReconstructionError, MappingError) as exc:
            violations.append(SimulationViolation(ti, getattr(exc, "index", None), str(exc)))
            continue
        if pos is not None:
            violations.append(SimulationViolation(ti, pos, "the two routes disagree"))
    return CommutationReport(len(samples), tuple(violations))
