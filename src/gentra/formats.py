"""Textual trace and problem formats.

Trace grammar (canonical form, one event per line):

    line    := NAT "[" NAT "]" TYPE attr*
    attr    := IDENT | INT | domain | "node(" NAT ")" | event | block
    domain  := "[" part ("," part)* "]"        part := INT | INT "-" (INT|"mx")
    event   := "bot" | KIND "(" IDENT ")"      KIND := dom|min|max|val
    block   := ("gen"|"expl") "{" item ("," item)* "}" | ("gen"|"expl") "{}"

The chrono numbers must increase by one from the first line (any start).
Header lines ``# key: value`` may precede the events.

Strict mode accepts exactly the canonical shapes, and reads a canonical line
by its event type's pattern, without tokens.  Every other line (lenient mode,
foreign idioms, errors) is read by the tokenizer.  Lenient mode additionally
accepts the idioms of existing solver tracers, recording every deviation:
declaration spill-over onto continuation lines, ``choice point`` as an alias
for newChild, reduce records without generated events or causes, awake
causes written ``(v,max)``, trailing wake-kind tokens, a missing node id on
failure, extra source-name tokens on newVariable, and dash-bearing
identifiers.

The palm dialect keeps explanation blocks and wake-kind annotations and
reads the element constraint 0-based.

Problem files use one declaration per line:

    var I 0..mx
    con c1 element(I,[2,5,7],A)
    branch (eq(A,I) | eqc(A,2))
    label I,A
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from operator import getitem, itemgetter
from typing import NamedTuple

from .constraints import ConstraintDecl
from .errors import GentraError, ProblemError, TraceShapeError, TraceSyntaxError
from .fdomain import DEFAULT_MX, FiniteDomain, format_domain, parse_domain, parse_range
from .gentra4cp import EVENT_TYPES, GenericEvent, shape_error
from .solver import Problem
from .state import BOTTOM, EVENT_KINDS, SolverEvent

_LINE_RE = re.compile(r"^\s*(\d+)\[(\d+)\]\s*([A-Za-z][\w-]*)\s*(.*)$")
_STRICT_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_HEADER_RE = re.compile(r"^#\s*([\w-]+)\s*:\s*(.*)$")
_WORD_RE = re.compile(r"[\w.-]+")
_INT_RE = re.compile(r"-?\d+")


# tokenizer


class _Tok(NamedTuple):
    """One token of a trace line, an immutable named tuple."""

    kind: str  # word | int | domain | call | block | paren
    text: str
    name: str = ""
    body: str = ""


def _scan_balanced(text: str, i: int, open_ch: str, close_ch: str) -> int:
    depth = 0
    for j in range(i, len(text)):
        if text[j] == open_ch:
            depth += 1
        elif text[j] == close_ch:
            depth -= 1
            if depth == 0:
                return j
    raise TraceSyntaxError(f"unbalanced {open_ch!r}", column=i + 1)


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "[":
            j = _scan_balanced(text, i, "[", "]")
            toks.append(_Tok("domain", text[i:j + 1]))
            i = j + 1
            continue
        if c == "(":
            j = _scan_balanced(text, i, "(", ")")
            toks.append(_Tok("paren", text[i:j + 1], body=text[i + 1:j]))
            i = j + 1
            continue
        m = _WORD_RE.match(text, i)
        if not m:
            raise TraceSyntaxError(f"unexpected character {c!r}", column=i + 1)
        word = m.group(0)
        i += len(word)
        if i < n and text[i] == "{":
            j = _scan_balanced(text, i, "{", "}")
            toks.append(_Tok("block", word + text[i:j + 1], name=word, body=text[i + 1:j]))
            i = j + 1
        elif i < n and text[i] == "(":
            j = _scan_balanced(text, i, "(", ")")
            toks.append(_Tok("call", word + text[i:j + 1], name=word, body=text[i + 1:j]))
            i = j + 1
        elif _INT_RE.fullmatch(word):
            toks.append(_Tok("int", word))
        else:
            toks.append(_Tok("word", word))
    return toks


def _split_top(text: str, sep: str = ",") -> list[str]:
    """Split on a separator, respecting bracket nesting."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail or parts:
        parts.append(tail)
    return parts


# declarations and solver events


_DECL_ALIASES = {"fd_element": "element", "x_eq_y": "eq", "x_eq_c": "eqc", "x_neq_y": "neq"}


def parse_declaration(text: str, index_base: int = 1):
    """Parse a constraint declaration; returns (decl, None) on success or
    (None, raw_text) for a recognizable but foreign form."""
    toks = _tokenize(text.strip())
    if len(toks) != 1 or toks[0].kind != "call":
        return None, text.strip()
    name, body = toks[0].name, toks[0].body
    canonical = _DECL_ALIASES.get(name, name)
    if canonical == "element0":
        canonical, index_base = "element", 0
    args = _split_top(body)
    # alias forms pack their arguments into one list literal
    if name in _DECL_ALIASES and len(args) == 1 and args[0].startswith("["):
        args = _split_top(args[0][1:-1])
    try:
        if canonical == "element":
            ivar, values_txt, vvar = args
            values = tuple(int(v) for v in _split_top(values_txt.strip()[1:-1]))
            return ConstraintDecl.element(ivar, values, vvar, index_base=index_base), None
        if canonical == "eq":
            return ConstraintDecl.eq(args[0], args[1]), None
        if canonical == "neq":
            return ConstraintDecl.neq(args[0], args[1]), None
        if canonical == "eqc":
            return ConstraintDecl.eqc(args[0], int(args[1])), None
    except (ValueError, IndexError):
        return None, text.strip()
    return None, text.strip()


def _parse_event_token(tok: _Tok) -> SolverEvent:
    if tok.kind == "word" and tok.text == "bot":
        return BOTTOM
    if tok.kind == "call" and tok.name in EVENT_KINDS:
        return SolverEvent(tok.name, tok.body.strip())
    if tok.kind == "paren":
        parts = _split_top(tok.body)
        if len(parts) == 2 and parts[1] in EVENT_KINDS:
            return SolverEvent(parts[1], parts[0])
    raise TraceSyntaxError(f"not a solver event: {tok.text!r}")


def _render_event_token(ev: SolverEvent) -> str:
    if ev.kind == "bot":
        return "bot"
    return f"{ev.kind}({ev.variable})"


# canonical lines: per event type, a pattern of the text after the type name
# and the record fields its groups fill, in order
_NAME, _KIND, _PART = r"[A-Za-z_][A-Za-z0-9_]*", "|".join(EVENT_KINDS), r"\d+(?:-(?:\d+|mx))?"
_EVENT, _DOMAIN = rf"(?:{_KIND})\({_NAME}\)", rf"(\[(?:{_PART}(?:,{_PART})*)?\])"
_GEN = rf"gen\{{((?:{_EVENT}(?:,{_EVENT})*)?)\}}"
_DECL = rf"element0?\({_NAME},\[-?\d+(?:,-?\d+)*\],{_NAME}\)|n?eq\({_NAME},{_NAME}\)|eqc\({_NAME},-?\d+\)"
_REDUCE = rf" ({_NAME}) ({_NAME}) {_GEN} {_DOMAIN} ({_EVENT}|bot)", "constraint variable generated domain cause"
_CANONICAL = {
    "newVariable": (rf" ({_NAME}) {_DOMAIN}", "variable domain"),
    "newConstraint": (rf" ({_NAME})(?: ({_DECL}))?", "constraint decl"),
    **dict.fromkeys(("post", "deactivate", "suspend", "solved"), (rf" ({_NAME})", "constraint")),
    **dict.fromkeys(("newChild", "solution", "failure"), (r" node\((\d+)\)", "node")),
    "jumpTo": (r" node\((\d+)\) node\((\d+)\)", "node node2"),
    "restore": (rf" ({_NAME}) {_DOMAIN}(?: {_GEN})?", "variable domain generated"),
    "reduce": _REDUCE,
    **dict.fromkeys(("reject", "awake"), (rf" ({_NAME}) ({_EVENT}|bot)", "constraint cause")),
    "schedule": (rf" (?:({_NAME}) )?({_NAME} (?:{_KIND}))", "constraint event"),
}
_PALM_REDUCE = _REDUCE[0] + rf"(?: expl\{{((?:{_NAME}(?:,{_NAME})*)?)\}})?(?: ({_KIND}|empty))?"


def _compiled(pattern: str, fields: str):
    """The matcher, the fields, and a getter laying ``(type, depth, *values, None)`` out as a record."""
    fields = ("type", "depth", *fields.split())
    return re.compile(pattern).fullmatch, fields[2:], itemgetter(*(fields.index(f) if f in fields else -1
                                                                   for f in GenericEvent._fields))


_READERS = {kind: _compiled(*spec) for kind, spec in _CANONICAL.items()}
_PALM_READERS = {**_READERS, "reduce": _compiled(_PALM_REDUCE, _REDUCE[1] + " explanation wake_kind")}
_record = partial(tuple.__new__, GenericEvent)


class _Memo(dict):
    """Values one parse reads, each built once from its text; None reads as None."""

    def __init__(self, build):
        super().__init__({None: None})
        self.build = build

    def __missing__(self, text):
        value = self[text] = self.build(text)
        return value


# trace documents


@dataclass(frozen=True)
class TraceDocument:
    """A parsed trace: ordered events, the chrono base, and parse metadata."""

    events: tuple[GenericEvent, ...]
    chrono_start: int = 1
    dialect: str = "generic"
    header: tuple[tuple[str, str], ...] = ()
    deviations: tuple[str, ...] = ()
    mx: int = DEFAULT_MX

    def chronos(self):
        return range(self.chrono_start, self.chrono_start + len(self.events))


class _EventParser:
    def __init__(self, mode: str, dialect: str, mx: int):
        self.lenient = mode == "lenient"
        self.dialect = dialect
        self.mx = mx
        self.deviations: list[str] = []
        self.base = 0 if dialect == "palm" else 1
        # per event type, the canonical matcher, field readers and record getter
        events = _Memo(lambda t: BOTTOM if t == "bot" else SolverEvent(*t[:-1].split("(")))
        names, numbers, blocks = _Memo(str), _Memo(int), _Memo(lambda t: tuple(t.split(",")) if t else ())
        read = dict(constraint=names, variable=names, node=numbers, node2=numbers, cause=events, wake_kind=names,
                    explanation=blocks, domain=_Memo(partial(parse_domain, mx=mx)),
                    generated=_Memo(lambda t: tuple(map(events.__getitem__, blocks[t]))),
                    event=_Memo(lambda t: SolverEvent(*reversed(t.split(" ")))),
                    decl=_Memo(lambda t: parse_declaration(t, self.base)[0]))
        self.canonical = {} if self.lenient else {
            kind: (match, tuple(map(read.get, fields)), at)
            for kind, (match, fields, at) in (_PALM_READERS if dialect == "palm" else _READERS).items()}

    def note(self, line_no: int, text: str):
        if not self.lenient:
            raise TraceSyntaxError(text, line=line_no)
        self.deviations.append(f"line {line_no}: {text}")

    def missing(self, line_no: int, text: str):
        # a missing attribute is recorded when lenient; the strict shape
        # check rejects it afterwards with the event type attached
        if self.lenient:
            self.deviations.append(f"line {line_no}: {text}")

    def _node(self, tok: _Tok, line_no: int) -> int:
        if tok.kind == "call" and tok.name == "node":
            try:
                return int(tok.body)
            except ValueError:
                raise TraceSyntaxError(f"expected node(k), got {tok.text!r}", line=line_no) from None
        if tok.kind == "int":
            self.note(line_no, f"bare node id {tok.text}")
            return int(tok.text)
        raise TraceSyntaxError(f"expected node(k), got {tok.text!r}", line=line_no)

    def parse(self, type_name: str, rest: str, depth: int, line_no: int) -> GenericEvent:
        toks = _tokenize(rest)

        if type_name == "choice" and toks and toks[0].kind == "word" and toks[0].text == "point":
            self.note(line_no, "'choice point' read as newChild")
            type_name = "newChild"
            toks = toks[1:]
        if type_name not in EVENT_TYPES:
            raise TraceSyntaxError(f"unknown event type {type_name!r}", line=line_no)

        ev = self._parse_attrs(type_name, toks, depth, line_no)
        problem = shape_error(ev, strict=not self.lenient)
        if problem:
            raise TraceShapeError(type_name, problem, line=line_no)
        if not self.lenient and self.dialect == "generic":
            for extra in ("explanation", "wake_kind", "var_alias"):
                if getattr(ev, extra) is not None:
                    raise TraceShapeError(type_name, f"dialect attribute {extra!r} not allowed here", line=line_no)
        return ev

    def _parse_attrs(self, type_name, toks, depth, line_no) -> GenericEvent:
        words = [t for t in toks if t.kind == "word"]

        if type_name == "newVariable":
            names = [t.text for t in words]
            doms = [t for t in toks if t.kind == "domain"]
            if not names or not doms:
                raise TraceShapeError(type_name, "expected a variable and a domain", line=line_no)
            var, alias = names[0], None
            if len(names) > 1:
                alias = names[1]
                self.note(line_no, f"source-name token {alias!r} on newVariable")
            if not _STRICT_IDENT.match(var):
                self.note(line_no, f"irregular identifier {var!r}")
            return GenericEvent(type_name, depth, variable=var,
                                domain=parse_domain(doms[0].text, self.mx), var_alias=alias)

        if type_name == "newConstraint":
            if not toks:
                raise TraceShapeError(type_name, "missing constraint identifier", line=line_no)
            cid = toks[0].text
            decl = decl_text = None
            if len(toks) > 1:
                decl_txt = " ".join(t.text for t in toks[1:])
                decl, decl_text = parse_declaration(decl_txt, index_base=self.base)
                if decl is None:
                    self.note(line_no, f"foreign declaration form {decl_text!r}")
            return GenericEvent(type_name, depth, constraint=cid, decl=decl, decl_text=decl_text)

        if type_name in ("post", "deactivate", "suspend", "solved"):
            if not words:
                raise TraceShapeError(type_name, "missing constraint identifier", line=line_no)
            return GenericEvent(type_name, depth, constraint=words[0].text)

        if type_name in ("newChild", "solution", "failure"):
            nodes = [t for t in toks if t.kind in ("call", "int")]
            if not nodes:
                self.missing(line_no, f"{type_name} without a node id")
                return GenericEvent(type_name, depth)
            return GenericEvent(type_name, depth, node=self._node(nodes[0], line_no))

        if type_name == "jumpTo":
            nodes = [t for t in toks if t.kind in ("call", "int")]
            if not nodes:
                raise TraceShapeError(type_name, "missing target node", line=line_no)
            node = self._node(nodes[0], line_no)
            node2 = self._node(nodes[1], line_no) if len(nodes) > 1 else None
            return GenericEvent(type_name, depth, node=node, node2=node2)

        if type_name == "restore":
            if not words:
                raise TraceShapeError(type_name, "missing variable", line=line_no)
            doms = [t for t in toks if t.kind == "domain"]
            if not doms:
                raise TraceShapeError(type_name, "missing restored values", line=line_no)
            generated = None
            for t in toks:
                if t.kind == "block" and t.name == "gen":
                    generated = self._gen_events(t, line_no)
            return GenericEvent(type_name, depth, variable=words[0].text,
                                domain=parse_domain(doms[0].text, self.mx), generated=generated)

        if type_name == "reduce":
            return self._parse_reduce(toks, depth, line_no)

        if type_name in ("reject", "awake"):
            if not words:
                raise TraceShapeError(type_name, "missing constraint identifier", line=line_no)
            cid = words[0].text
            cause = None
            wake = None
            for t in toks[1:]:
                if t.kind in ("call", "paren") or (t.kind == "word" and t.text == "bot"):
                    if t.kind == "paren":
                        self.note(line_no, f"paired cause form {t.text}")
                    cause = _parse_event_token(t)
                elif t.kind == "word" and t.text in EVENT_KINDS + ("empty",):
                    wake = t.text
                    self.note(line_no, f"wake-kind token {t.text!r} on {type_name}")
            if cause is None:
                self.missing(line_no, f"{type_name} without a waking event")
            return GenericEvent(type_name, depth, constraint=cid, cause=cause, wake_kind=wake)

        if type_name == "schedule":
            names = [t.text for t in words]
            if len(names) >= 3:
                cid, var, kind = names[0], names[1], names[2]
            elif len(names) == 2:
                cid, (var, kind) = None, names
            else:
                raise TraceShapeError(type_name, "expected [constraint] variable kind", line=line_no)
            if kind not in EVENT_KINDS:
                raise TraceShapeError(type_name, f"unknown event kind {kind!r}", line=line_no)
            return GenericEvent(type_name, depth, constraint=cid, event=SolverEvent(kind, var))

        raise TraceSyntaxError(f"unknown event type {type_name!r}", line=line_no)

    def _gen_events(self, tok: _Tok, line_no: int) -> tuple[SolverEvent, ...]:
        body = tok.body.strip()
        if not body:
            return ()
        out = []
        for item in _split_top(body):
            try:
                its = _tokenize(item)
            except TraceSyntaxError:  # its column would count from the item
                its = ()
            if len(its) != 1:
                raise TraceSyntaxError(f"bad generated-event item {item!r}", line=line_no)
            out.append(_parse_event_token(its[0]))
        return tuple(out)

    def _parse_reduce(self, toks, depth, line_no) -> GenericEvent:
        words = [t for t in toks if t.kind == "word"]
        if len(words) < 2:
            raise TraceShapeError("reduce", "expected constraint and variable", line=line_no)
        cid, var = words[0].text, words[1].text
        if not _STRICT_IDENT.match(var):
            self.note(line_no, f"irregular identifier {var!r}")
        domain = generated = cause = explanation = wake = None
        for t in toks[2:]:
            if t.kind == "domain":
                domain = parse_domain(t.text, self.mx)
            elif t.kind == "block" and t.name == "gen":
                generated = self._gen_events(t, line_no)
            elif t.kind == "block" and t.name == "expl":
                body = t.body.strip()
                explanation = tuple(_split_top(body)) if body else ()
            elif t.kind in ("call", "paren"):
                cause = _parse_event_token(t)
            elif t.kind == "word" and t.text == "bot":
                cause = BOTTOM
            elif t.kind == "word" and t.text in EVENT_KINDS + ("empty",):
                wake = t.text
                if self.dialect != "palm":
                    self.note(line_no, f"wake-kind token {t.text!r} on reduce")
        if domain is None:
            raise TraceShapeError("reduce", "missing removed-values domain", line=line_no)
        if generated is None:
            self.missing(line_no, "reduce without generated events")
        if cause is None:
            self.missing(line_no, "reduce without a waking event")
        return GenericEvent("reduce", depth, constraint=cid, variable=var, domain=domain,
                            generated=generated, cause=cause, explanation=explanation, wake_kind=wake)


def parse_trace(text: str, mode: str = "strict", dialect: str = "generic",
                mx: int = DEFAULT_MX) -> TraceDocument:
    """Parse trace text into a document.

    ``mode`` is ``strict`` (canonical shapes only) or ``lenient`` (foreign
    idioms accepted and recorded as deviations).  Header lines may override
    ``dialect`` and ``mx``.
    """
    if mode not in ("strict", "lenient"):
        raise TraceSyntaxError(f"unknown mode {mode!r}")
    header: list[tuple[str, str]] = []
    logical: list[tuple[int, str]] = []
    continuation_notes: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if m:
            logical.append((line_no, line, m))
        elif line.lstrip().startswith("#"):
            m = _HEADER_RE.match(line.strip())
            if m:
                key, value = m.group(1), m.group(2).strip()
                header.append((key, value))
                if key == "dialect":
                    dialect = value
                elif key == "mx":
                    try:
                        mx = int(value)
                    except ValueError:
                        raise TraceSyntaxError(f"mx header is not an integer: {value!r}", line=line_no) from None
        else:
            if not logical:
                raise TraceSyntaxError("line does not start with a chrono token", line=line_no)
            if mode != "lenient":
                raise TraceSyntaxError("continuation lines are only accepted in lenient mode", line=line_no)
            prev_no, prev, _ = logical[-1]
            # a joined line is matched again once it is complete
            logical[-1] = (prev_no, prev + " " + line.strip(), None)
            continuation_notes.append(f"line {line_no}: continuation joined to line {prev_no}")

    parser = _EventParser(mode, dialect, mx)
    events = []
    chrono_start = int(_LINE_RE.match(logical[0][1]).group(1)) if logical else 1
    for expected, (line_no, line, m) in enumerate(logical, chrono_start):
        m = m or _LINE_RE.match(line)
        chrono, depth, type_name = int(m.group(1)), int(m.group(2)), m.group(3)
        if chrono != expected:
            raise TraceSyntaxError(f"chrono {chrono} breaks the consecutive numbering", line=line_no)
        read = parser.canonical.get(type_name)
        try:
            canonical = read and read[0](line, m.end(3))
            events.append(_record(read[2]((type_name, depth, *map(getitem, read[1], canonical.groups()), None)))
                          if canonical else parser.parse(type_name, m.group(4), depth, line_no))
        except GentraError as exc:  # raised without a line: a domain, declaration or token error
            if getattr(exc, "line", None) is not None:
                raise
            column = getattr(exc, "column", None)  # counted from the attribute text
            raise TraceSyntaxError(str(exc), line_no, None if column is None else m.start(4) + column) from exc
    return TraceDocument(events=tuple(events), chrono_start=chrono_start, dialect=dialect, header=tuple(header),
                         deviations=tuple(continuation_notes + parser.deviations), mx=mx)


def serialize_event(ev: GenericEvent, mx: int = DEFAULT_MX) -> str:
    """Render one event's type and attributes in canonical order."""
    parts = [ev.type]
    if ev.type == "newVariable":
        parts.append(ev.variable)
        if ev.var_alias:
            parts.append(ev.var_alias)
        parts.append(format_domain(ev.domain, mx))
    elif ev.type == "newConstraint":
        parts.append(ev.constraint)
        if ev.decl is not None:
            parts.append(ev.decl.render())
        elif ev.decl_text is not None:
            parts.append(ev.decl_text)
    elif ev.type in ("post", "deactivate", "suspend", "solved"):
        parts.append(ev.constraint)
    elif ev.type in ("newChild", "solution", "failure"):
        if ev.node is not None:
            parts.append(f"node({ev.node})")
    elif ev.type == "jumpTo":
        parts.append(f"node({ev.node})")
        if ev.node2 is not None:
            parts.append(f"node({ev.node2})")
    elif ev.type == "restore":
        parts.extend([ev.variable, format_domain(ev.domain, mx)])
        if ev.generated is not None:
            parts.append("gen{" + ",".join(_render_event_token(e) for e in ev.generated) + "}")
    elif ev.type == "reduce":
        parts.extend([ev.constraint, ev.variable])
        if ev.generated is not None:
            parts.append("gen{" + ",".join(_render_event_token(e) for e in ev.generated) + "}")
        parts.append(format_domain(ev.domain, mx))
        if ev.cause is not None:
            parts.append(_render_event_token(ev.cause))
        if ev.explanation is not None:
            parts.append("expl{" + ",".join(ev.explanation) + "}")
        if ev.wake_kind is not None:
            parts.append(ev.wake_kind)
    elif ev.type in ("reject", "awake"):
        parts.append(ev.constraint)
        if ev.cause is not None:
            parts.append(_render_event_token(ev.cause))
        if ev.wake_kind is not None:
            parts.append(ev.wake_kind)
    elif ev.type == "schedule":
        if ev.constraint is not None:
            parts.append(ev.constraint)
        parts.extend([ev.event.variable, ev.event.kind])
    else:
        raise TraceShapeError(ev.type, "unknown event type")
    return " ".join(parts)


def serialize_trace(doc: TraceDocument) -> str:
    """Canonical text for a document; inverse of strict-mode parsing."""
    lines = [f"# {k}: {v}" for k, v in doc.header]
    for chrono, ev in zip(doc.chronos(), doc.events):
        lines.append(f"{chrono}[{ev.depth}]{serialize_event(ev, doc.mx)}")
    return "\n".join(lines) + ("\n" if lines else "")


def strip_origins(ev: GenericEvent) -> GenericEvent:
    """Drop originating-constraint tags from solver events.

    The text format never records them; replay recovers each origin from the
    state it matches the event against.  A record that carries none, and
    each event without one, is kept as it is.
    """
    def bare(e: SolverEvent | None):
        return e if e is None or e.origin is None else SolverEvent(e.kind, e.variable)

    if all(e is None or e.origin is None for e in (ev.cause, ev.event, *(ev.generated or ()))):
        return ev
    return ev._replace(
        generated=None if ev.generated is None else tuple(bare(e) for e in ev.generated),
        cause=bare(ev.cause),
        event=bare(ev.event),
    )


def document_for_events(events, dialect: str = "generic", solver: str | None = None,
                        mx: int = DEFAULT_MX, chrono_start: int = 1) -> TraceDocument:
    """Wrap freshly emitted records as a serializable document."""
    header = []
    if solver:
        header.append(("solver", solver))
    header.append(("dialect", dialect))
    header.append(("mx", str(mx)))
    return TraceDocument(events=tuple(strip_origins(e) for e in events), chrono_start=chrono_start,
                         dialect=dialect, header=tuple(header), mx=mx)


# structural event-level diffs


def diff_events(a, b, limit: int = 25) -> list[str]:
    """Position-wise structural differences between two event sequences."""
    out = []
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        if x.type != y.type:
            out.append(f"event {i}: type {x.type} != {y.type}")
        else:
            fields = [f for f in GenericEvent._fields[1:] if getattr(x, f) != getattr(y, f)]
            out.append(f"event {i}: {x.type} differs in {', '.join(fields)}")
        if len(out) >= limit:
            return out
    if len(a) != len(b):
        out.append(f"length {len(a)} != {len(b)}")
    return out


# problem files


def parse_problem(text: str, mx: int = DEFAULT_MX) -> Problem:
    """Parse a problem file; raises ProblemError with the offending line."""
    variables: list[tuple[str, FiniteDomain]] = []
    constraints: list[tuple[str, ConstraintDecl]] = []
    branches: list[tuple[ConstraintDecl, ...]] = []
    labels: list[str] = []

    def decl_or_fail(text_, line_no):
        try:
            decl, raw = parse_declaration(text_, index_base=1)
        except GentraError as exc:  # a malformed declaration or an unbalanced bracket
            raise ProblemError(str(exc), line=line_no) from exc
        if decl is None:
            raise ProblemError(f"unparseable constraint {raw!r}", line=line_no)
        return decl

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        keyword, rest = fields[0], (fields[1] if len(fields) > 1 else "")
        if keyword == "var":
            sub = rest.split(None, 1)
            if len(sub) != 2:
                raise ProblemError("expected: var NAME RANGE", line=line_no)
            try:
                variables.append((sub[0], parse_range(sub[1], mx)))
            except Exception as exc:
                raise ProblemError(f"bad range {sub[1]!r}: {exc}", line=line_no)
        elif keyword == "con":
            sub = rest.split(None, 1)
            if len(sub) != 2:
                raise ProblemError("expected: con ID CONSTRAINT", line=line_no)
            constraints.append((sub[0], decl_or_fail(sub[1], line_no)))
        elif keyword == "branch":
            body = rest.strip()
            if not (body.startswith("(") and body.endswith(")")):
                raise ProblemError("expected: branch (ALT | ALT | ...)", line=line_no)
            alts = tuple(decl_or_fail(alt, line_no) for alt in _split_top(body[1:-1], "|"))
            if not alts:
                raise ProblemError("empty disjunction", line=line_no)
            branches.append(alts)
        elif keyword == "label":
            labels.extend(v.strip() for v in rest.split(",") if v.strip())
        else:
            raise ProblemError(f"unknown directive {keyword!r}", line=line_no)

    return Problem(variables=tuple(variables), constraints=tuple(constraints),
                   branches=tuple(branches), labels=tuple(labels))
