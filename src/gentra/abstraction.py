"""Relating trace levels: projections, simulation, compliance.

A *projection* restricts a semantics to a dependency-closed subset of its
state parameters and to the action types that only touch them.  A *state
mapping* (a state function ``d`` plus an action-kind bijection ``h``)
carrying every concrete transition to a derived transition is machine
evidence of simulation, and hence (on the behaviours checked) that the
derived semantics is a derivation field of the concrete one.

Format compliance of a process trace (:func:`check_generic`) rests on them:
a process whose rules refine the format's replays the trace once under its
own rules, and its steps are format steps under the refinement's maps.  All
checks are sample-based: reports say "verified on N traces", never "proved".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .errors import GentraError, MappingError, ProjectionError, ReconstructionError, TransitionError
from .gentra4cp import (ARGS, GUARD_NAMES, RULES, GenericEvent, GuardReport, get_parameter, make_semantics,
                        reset_parameters)
from .palm import PALM_RULES, make_palm_semantics, map_palm_state  # noqa: F401 (map_palm_state: re-exported)
from .semantics import Action, ObservationalSemantics, extract, first_divergence, reconstruct, replay_records
from .state import initial_state
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

    Only the rule table changes: it keeps the rules of the kept kinds
    themselves, and a dropped kind has no rule, so replaying a record of a
    dropped kind fails where its rule would apply, as ``event type outside
    the profile``.  On the states it is used for, dropped parameters hold
    their initial values, so no further state surgery is required.
    """
    check_projection(os, proj)
    return replace(
        os,
        name=f"{os.name}/{proj.name}",
        rules={k: rule for k, rule in os.rules.items() if k in proj.kept_kinds},
        parameters=tuple(p for p in os.parameters if p in proj.kept_params),
        param_deps={k: v for k, v in os.param_deps.items() if k in proj.kept_params},
        action_writes={k: v for k, v in os.action_writes.items() if k in proj.kept_kinds},
    )


class SimulationViolation(NamedTuple):
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
        kind = self.action_map[action.kind]
        if kind == action.kind:
            return action
        named = dict(zip(ARGS[action.kind], action.args))  # a relabelled action keeps the arguments its kind takes
        return Action.of(kind, **{k: named[k] for k in ARGS[kind] if k in named})


class SimulationReport(NamedTuple):
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


def _refinement_of(os_c: ObservationalSemantics, os_d: ObservationalSemantics) -> bool:
    """Is ``os_c``'s rule table a refinement of the very rules ``os_d`` applies?"""
    ref = os_c.refines
    return (ref is not None and ref.rules is os_c.rules
            and all(k in ref.base and os_d.rules.get(ref.action_map.get(k)) is ref.base[k] for k in ref.rules))


def _refines(os_c: ObservationalSemantics, os_d: ObservationalSemantics, mapping: StateMapping) -> bool:
    """Is ``os_c``'s rule table a refinement, under ``mapping``, of the rules ``os_d`` applies?"""
    ref = os_c.refines
    return (_refinement_of(os_c, os_d) and mapping.map_state is ref.map_state
            and mapping.map_action is ref.map_action and dict(mapping.action_map) == ref.action_map)


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

    The steps of a trace ``os_c`` built (``t.applied_by is os_c``) are
    counted, not checked, when ``os_c.refines`` is a refinement under
    ``mapping`` of the very rules of ``os_d``: ``os_d.rules[h(k)] is
    base[k]`` for each kind k.  Such a step (s, a, s') has s' = u(g(s, a)),
    where g is ``base[k]`` behind conditions that only refuse and u sets
    only the explanation table, which d empties.  The generic rules read no
    explanation table and return their input's, and the generic reduce
    ignores its explanation (both pinned by tests), so g(d(s), h(a)) has
    g(s, a)'s solver and tree parts and d(s)'s empty table: it is d(s').
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
    # the carry and the transition test of each step are made inline: ``mapping.carry_action`` and
    # ``transition_holds`` without their frames
    map_state, map_action, carry, apply_d = mapping.map_state, mapping.map_action, mapping.carry_action, os_d.apply
    refined = not violations and _refines(os_c, os_d, mapping)
    if not violations:
        for ti, t in enumerate(samples):
            try:
                mapped = map_state(t.initial_state)
            except Exception as exc:  # d must be total on sample states
                violations.append(SimulationViolation(ti, None, f"state map failed on the initial state: {exc}"))
                continue
            if not os_d.is_initial(mapped):
                violations.append(SimulationViolation(ti, None, "initial state does not map to a derived initial state"))
                continue
            if t.kind == "actual":  # one kind per trace: the first event is the culprit
                violations.append(SimulationViolation(ti, 0, "simulation expects virtual traces"))
                continue
            if refined and t.applied_by is os_c:
                transitions += t.size
                continue
            for ei, (action, state) in enumerate(t.events):
                transitions += 1
                kind = action[0]
                carried = (map_action(action) if map_action is not None
                           else action if h[kind] == kind else carry(action))
                try:
                    post = map_state(state)
                except Exception as exc:
                    violations.append(SimulationViolation(ti, ei, f"state map failed: {exc}"))
                    break
                try:
                    holds = apply_d(mapped, carried) == post
                except TransitionError:
                    holds = False
                if not holds:
                    violations.append(SimulationViolation(
                        ti, ei, f"{kind} transition is not simulated by {carried.kind}"))
                    break
                mapped = post
    return SimulationReport(mapping.name, len(samples), transitions, tuple(violations))


# the explanation-based machine against the generic format


def palm_profile() -> ParamProjection:
    """The generic format restricted for the explanation-based machine: the
    kinds of the palm rule table (no jump rule, no solved rule), and no
    solved-constraint parameter."""
    return ParamProjection(
        name="palm",
        kept_params=frozenset(make_semantics().parameters) - {"solved"},
        kept_kinds=make_palm_semantics().action_kinds,
    )


def palm_mapping() -> StateMapping:
    """The simulation evidence for the explanation-based machine, the mapping
    its rules refine the generic ones under: identity on the shared
    parameters and on action names, explanations ignored."""
    ref = make_palm_semantics().refines
    return StateMapping("palm-to-generic", ref.map_state, ref.action_map, ref.map_action)


def palm_event_to_generic(ev: GenericEvent) -> GenericEvent:
    """Drop the dialect extras (explanations, wake kinds, name aliases).

    A record that carries none is returned as it is.
    """
    if ev.type not in PALM_RULES:
        if ev.type in RULES:
            raise MappingError(f"{ev.type} has no counterpart in the mapped profile")
        raise MappingError(f"unknown event type {ev.type!r}")
    if ev.explanation is None and ev.wake_kind is None and ev.var_alias is None:
        return ev
    return ev._replace(explanation=None, wake_kind=None, var_alias=None)


def palm_to_generic(events: Iterable[GenericEvent]) -> tuple[GenericEvent, ...]:
    return tuple(map(palm_event_to_generic, events))


# compliance of a process against the reference format


class ComplianceReport(NamedTuple):
    ok: bool
    lines: tuple[str, ...]


def check_generic(gt_os: ObservationalSemantics, os: ObservationalSemantics,
                  events: Iterable[GenericEvent]) -> ComplianceReport:
    """Check one emitted trace of a process, whose bundle ``os`` must refine the very rules ``gt_os`` applies
    and carry every guard.

    The records replay once under ``os``'s rules.  Each replayed step is a
    format step under the refinement's maps, and each record reads in the
    mapped state as the mapped action with the same depth check, so the
    mapped records would replay under the format and the simulation would
    hold; a carried guard's tests (``os.refines.guards``) are conditions of
    its kind's rule, so every step the replay accepts keeps it
    (``tests/test_refinement.py`` pins all three).  A bundle that does not
    refine or carry every guard, or a record that does not replay, stops
    the check.
    """
    if not _refinement_of(os, gt_os):
        return ComplianceReport(False, (f"FAIL compliance {os.name}: its rules are not a refinement "
                                        f"of the {gt_os.name} rules",))
    uncarried = [g for g in GUARD_NAMES if g not in os.refines.guards]
    if uncarried:
        return ComplianceReport(False, (f"FAIL compliance {os.name}: its rules do not carry the guards "
                                        f"{','.join(uncarried)}",))
    try:
        replayed = len(replay_records(os, initial_state(), events))
    except GentraError as exc:
        return ComplianceReport(False, (f"FAIL replay under the {os.name} rules: {exc}",))
    return ComplianceReport(True, (
        f"PASS {os.name} replay events={replayed}",
        f"PASS {os.name} rules refine the {gt_os.name} rules (properties pinned in tests/test_refinement.py)",
        *GuardReport(GUARD_NAMES, replayed, ()).lines(), "PASS compliance"))


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
    reverse order does not type-check.)
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
            pos = first_divergence(direct, reconstruct(os_d, mapped_actual))
        except (TransitionError, ReconstructionError, MappingError) as exc:
            violations.append(SimulationViolation(ti, getattr(exc, "index", None), str(exc)))
            continue
        if pos is not None:
            violations.append(SimulationViolation(ti, pos, "the two routes disagree"))
    return CommutationReport(len(samples), tuple(violations))
