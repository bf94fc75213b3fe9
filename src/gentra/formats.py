"""Textual trace and problem formats.

Trace grammar (canonical form, one event per line):

    line    := NAT "[" NAT "]" TYPE attr*
    attr    := IDENT | INT | domain | "node(" NAT ")" | event | block
    domain  := "[" part ("," part)* "]"        part := INT | INT "-" (INT|"mx")
    event   := "bot" | KIND "(" IDENT ")"      KIND := dom|min|max|val
    block   := ("gen"|"expl") "{" item ("," item)* "}" | ("gen"|"expl") "{}"
    NAT     := "0" | [1-9] DIGIT*              INT  := "0" | "-"? [1-9] DIGIT*

Both bounds of a domain part are signed: -2..1 is written ``-2-1`` and
-3..-1 is ``-3--1``.  Lenient mode also reads a number with leading zeros,
or 0 written ``-0``.
The chrono numbers must increase by one from the first line (any start).
Header lines ``# key: value`` may precede the events; a ``dialect`` or ``mx``
header after the first event line, or a second one, is refused in strict mode
and ignored in lenient mode.  A dialect other than ``generic`` and ``palm``,
named by a ``dialect`` header or by the caller, is refused.

Each event type's attributes and their order are ``gentra4cp.LAYOUT``'s; the
patterns of canonical lines and the writer are built from it, once per
dialect, at import.  Strict mode accepts the canonical shapes up to the spacing
between attributes.  It reads a canonical line by its event type's pattern; every
other line (lenient mode, foreign idioms, errors) is read by the tokenizer, whose
tokens strict mode pairs with the attributes in layout order, each matching its
attribute's pattern fragment (a scheduled event's two as one).  Lenient mode additionally
accepts the idioms of existing solver tracers, recording every deviation:
declaration spill-over onto continuation lines, ``choice point`` as an alias
for newChild, reduce records without generated events or causes, awake
causes written ``(v,max)``, trailing wake-kind tokens, a missing node id on
failure, a bare node id (``newChild 3``), extra source-name tokens on
newVariable, and dash-bearing identifiers.

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
from functools import partial
from operator import getitem, itemgetter
from typing import NamedTuple

from .constraints import ConstraintDecl
from .errors import GentraError, ProblemError, TraceShapeError, TraceSyntaxError
from .fdomain import DEFAULT_MX, FiniteDomain, format_domain, parse_domain, parse_range
from .gentra4cp import EVENT_TYPES, LAYOUT, GenericEvent, shape_error
from .solver import Problem, problem_faults
from .state import BOTTOM, EVENT_KINDS, SolverEvent

# integers as the writer writes them: no leading zero, and no minus sign on 0
_NAT, _INT = r"(?:0|[1-9]\d*)", r"(?:0|-?[1-9]\d*)"
_LINE = r"^\s*({0})\[({0})\]\s*([A-Za-z][\w-]*)\s*(.*)$"  # an event line, with {0} its chrono and depth numbers
_LINE_RE = re.compile(_LINE.format(r"\d+"))
# per mode, the event-line matcher: strict mode reads a chrono and a depth only as the writer writes them
_LINE_MATCH = {"lenient": _LINE_RE.match, "strict": re.compile(_LINE.format(_NAT)).match}
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
    at: int = 0  # a domain or block token's offset in the text, where strict reading refuses it


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
            toks.append(_Tok("domain", text[i:j + 1], at=i))
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
            toks.append(_Tok("block", word + text[i:j + 1], name=word, body=text[i + 1:j], at=m.start()))
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


# canonical lines: per attribute, a pattern fragment whose one group captures
# the text its reader reads; a source-name alias and a declaration that is not
# canonical have none, and are read by the tokenizer only
_NAME, _KIND, _PART = r"[A-Za-z_][A-Za-z0-9_]*", "|".join(EVENT_KINDS), rf"{_INT}(?:-(?:{_INT}|mx))?"
_EVENT, _NODE = rf"(?:{_KIND})\({_NAME}\)", rf"node\(({_NAT})\)"
_DECL = rf"element0?\({_NAME},\[{_INT}(?:,{_INT})*\],{_NAME}\)|n?eq\({_NAME},{_NAME}\)|eqc\({_NAME},{_INT}\)"
_FRAGMENTS = dict(constraint=f"({_NAME})", variable=f"({_NAME})", node=_NODE, node2=_NODE,
                  domain=rf"(\[(?:{_PART}(?:,{_PART})*)?\])", generated=rf"gen\{{((?:{_EVENT}(?:,{_EVENT})*)?)\}}",
                  cause=f"({_EVENT}|bot)", event=f"({_NAME} (?:{_KIND}))", decl=f"({_DECL})")
# the palm dialect writes its extras, an explanation and a wake kind, on reduce records only
_PALM_FRAGMENTS = dict(_FRAGMENTS, explanation=rf"expl\{{((?:{_NAME}(?:,{_NAME})*)?)\}}",
                       wake_kind=f"({_KIND}|empty)")
# per dialect and attribute, the matcher a strict line's token (a scheduled event's two) must fill
_TOKEN_MATCH = {dialect: {name: re.compile(fragment).fullmatch for name, fragment in fragments.items()}
                for dialect, fragments in (("generic", _FRAGMENTS), ("palm", _PALM_FRAGMENTS))}
_is_name = re.compile(_NAME).fullmatch


def _compiled(kind: str, fragments: dict):
    """The matcher of a canonical ``kind`` line, after its type name, built from
    the layout's attributes that have a fragment; the fields its groups fill;
    and a getter laying ``(type, depth, *values, None)`` out as a record."""
    layout = [(name, optional) for name, optional in LAYOUT[kind] if name in fragments]
    pattern = "".join(f"(?: {fragments[name]})?" if optional else f" {fragments[name]}" for name, optional in layout)
    fields = ("type", "depth", *(name for name, _ in layout))
    return re.compile(pattern).fullmatch, fields[2:], itemgetter(*(fields.index(f) if f in fields else -1
                                                                   for f in GenericEvent._fields))


_READERS = {kind: _compiled(kind, _FRAGMENTS) for kind in LAYOUT}
_PALM_READERS = {**_READERS, "reduce": _compiled("reduce", _PALM_FRAGMENTS)}
_DIALECTS = ("generic", "palm")
_record = partial(tuple.__new__, GenericEvent)


class _Memo(dict):
    """Values one parse reads, each built once from its text; None reads as None."""

    def __init__(self, build):
        self[None] = None
        self.build = build

    def __missing__(self, text):
        value = self[text] = self.build(text)
        return value


# the values of canonical attribute texts, each read without tokens


def _solver_event(text: str) -> SolverEvent:
    return BOTTOM if text == "bot" else SolverEvent(*text[:-1].split("("))


def _items(text: str) -> tuple[str, ...]:
    return tuple(text.split(",")) if text else ()


def _events_of(events: _Memo, items: _Memo, text: str) -> tuple[SolverEvent, ...]:
    return tuple(map(events.__getitem__, items[text]))


def _scheduled(text: str) -> SolverEvent:
    variable, kind = text.split(" ")
    return SolverEvent(kind, variable)


def _declaration(base: int, text: str) -> ConstraintDecl:
    """The declaration of a text ``_DECL`` matched: what ``parse_declaration`` reads from it."""
    name, body = text[:-1].split("(", 1)
    if name.startswith("element"):
        ivar, rest = body.split(",", 1)
        values, vvar = rest.rsplit(",", 1)
        return ConstraintDecl.element(ivar, map(int, values[1:-1].split(",")), vvar, 0 if name == "element0" else base)
    x, y = body.split(",")
    return ConstraintDecl.eqc(x, int(y)) if name == "eqc" else ConstraintDecl(name, (x, y))


def _strict_domain(mx: int, text: str, at: int = 0) -> FiniteDomain:
    """The domain of a literal at offset ``at``, which must be the text ``format_domain`` writes."""
    dom = parse_domain(text, mx)
    if format_domain(dom, mx) != text:
        raise TraceSyntaxError(f"non-canonical domain literal {text!r}; canonical form is "
                               f"{format_domain(dom, mx)!r}", column=at + 1)
    return dom


def _strict_explanation(names: tuple[str, ...], at: int = 0) -> tuple[str, ...]:
    """The names of an explanation block at offset ``at``, which the writer lists sorted, each once."""
    canonical = ",".join(sorted(set(names)))
    if ",".join(names) != canonical:
        raise TraceSyntaxError(f"non-canonical explanation 'expl{{{','.join(names)}}}'; canonical form is "
                               f"'expl{{{canonical}}}'", column=at + 1)
    return names


class _Canonical(dict):
    """Per parse, each event type's canonical matcher, value memos and record getter, bound at the type's
    first line; the memos, one per attribute (names, numbers and events shared), are made at the first."""

    def __init__(self, table: dict, mx: int, base: int):
        self.table, self.mx, self.base, self.read = table, mx, base, None

    def __missing__(self, kind: str):
        entry = self.table.get(kind)
        if entry is not None:
            if self.read is None:
                names, numbers, events, items = _Memo(str), _Memo(int), _Memo(_solver_event), _Memo(_items)
                self.read = dict(constraint=names, variable=names, wake_kind=names, node=numbers, node2=numbers,
                                 cause=events, explanation=_Memo(lambda text: _strict_explanation(items[text])),
                                 domain=_Memo(partial(_strict_domain, self.mx)),
                                 generated=_Memo(partial(_events_of, events, items)), event=_Memo(_scheduled),
                                 decl=_Memo(partial(_declaration, self.base)))
            match, fields, at = entry
            entry = match, tuple(map(self.read.__getitem__, fields)), at
        self[kind] = entry
        return entry


# trace documents


class TraceDocument(NamedTuple):
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
        # nothing in it refers back to the parser, so a parse's memos go when it returns
        self.canonical = _Canonical({} if self.lenient else _PALM_READERS if dialect == "palm" else _READERS,
                                    mx, self.base)

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
        if self.lenient:
            return ev
        # the record's attributes in layout order, each filled by the next token (a scheduled event, the
        # last, by two); one its dialect has no fragment for is no attribute of that dialect's lines
        names = [name for name, _ in LAYOUT[type_name] if getattr(ev, name) is not None]
        match = _TOKEN_MATCH[self.dialect]
        for name in names:
            if name not in match:
                raise TraceShapeError(type_name, f"dialect attribute {name!r} not allowed here", line=line_no)
        texts = [tok.text for tok in toks]
        if len(texts) != len(names) + (ev.event is not None):
            raise TraceShapeError(type_name, "surplus attribute tokens", line=line_no)
        if ev.event is not None:
            texts[-2:] = [" ".join(texts[-2:])]
        for name, text in zip(names, texts):
            if not match[name](text):
                raise TraceShapeError(type_name, f"expected attribute {name!r}, got {text!r}", line=line_no)
        if ev.explanation is not None:
            _strict_explanation(ev.explanation, toks[names.index("explanation")].at)
        return ev

    def _domain(self, text: str, at: int) -> FiniteDomain:
        """The domain of a literal at offset ``at``; strict reading takes only the text ``format_domain`` writes."""
        return parse_domain(text, self.mx) if self.lenient else _strict_domain(self.mx, text, at)

    def _ident(self, text: str, line_no: int) -> str:
        """An identifier (or None), noted (refused when strict) unless it is the grammar's IDENT."""
        if text is not None and not _is_name(text):
            self.note(line_no, f"irregular identifier {text!r}")
        return text

    def _event(self, tok: _Tok, line_no: int) -> SolverEvent:
        """The solver event of a cause or generated-event token, its variable read by ``_ident``."""
        event = _parse_event_token(tok)
        self._ident(event.variable, line_no)
        return event

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
            self._ident(var, line_no)
            return GenericEvent(type_name, depth, variable=var,
                                domain=self._domain(doms[0].text, doms[0].at), var_alias=alias)

        if type_name == "newConstraint":
            if not toks:
                raise TraceShapeError(type_name, "missing constraint identifier", line=line_no)
            cid = self._ident(toks[0].text, line_no)
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
            return GenericEvent(type_name, depth, constraint=self._ident(words[0].text, line_no))

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
            return GenericEvent(type_name, depth, variable=self._ident(words[0].text, line_no),
                                domain=self._domain(doms[0].text, doms[0].at), generated=generated)

        if type_name == "reduce":
            return self._parse_reduce(toks, depth, line_no)

        if type_name in ("reject", "awake"):
            if not words:
                raise TraceShapeError(type_name, "missing constraint identifier", line=line_no)
            cid = self._ident(words[0].text, line_no)
            cause = None
            wake = None
            for t in toks[1:]:
                if t.kind in ("call", "paren") or (t.kind == "word" and t.text == "bot"):
                    if t.kind == "paren":
                        self.note(line_no, f"paired cause form {t.text}")
                    cause = self._event(t, line_no)
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
            return GenericEvent(type_name, depth, constraint=self._ident(cid, line_no),
                                event=SolverEvent(kind, self._ident(var, line_no)))

        raise TraceSyntaxError(f"unknown event type {type_name!r}", line=line_no)

    def _gen_events(self, tok: _Tok, line_no: int) -> tuple[SolverEvent, ...]:
        out = []
        for item in _split_top(tok.body):
            try:
                its = _tokenize(item)
            except TraceSyntaxError:  # its column would count from the item
                its = ()
            if len(its) != 1 or its[0].text == "bot":  # a generated event names its variable
                raise TraceSyntaxError(f"bad generated-event item {item!r}", line=line_no)
            out.append(self._event(its[0], line_no))
        return tuple(out)

    def _parse_reduce(self, toks, depth, line_no) -> GenericEvent:
        words = [t for t in toks if t.kind == "word"]
        if len(words) < 2:
            raise TraceShapeError("reduce", "expected constraint and variable", line=line_no)
        cid, var = self._ident(words[0].text, line_no), self._ident(words[1].text, line_no)
        domain = generated = cause = explanation = wake = None
        for t in toks[2:]:
            if t.kind == "domain":
                domain = self._domain(t.text, t.at)
            elif t.kind == "block" and t.name == "gen":
                generated = self._gen_events(t, line_no)
            elif t.kind == "block" and t.name == "expl":
                explanation = tuple(_split_top(t.body))
            elif t.kind in ("call", "paren") or (t.kind == "word" and t.text == "bot"):
                cause = self._event(t, line_no)
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
    idioms accepted and recorded as deviations).  Header lines before the
    first event line may override ``dialect`` and ``mx``, once each; a later
    or second one is an error, or in lenient mode a deviation it is ignored for.
    """
    match_line = _LINE_MATCH.get(mode)
    if match_line is None:
        raise TraceSyntaxError(f"unknown mode {mode!r}")
    if dialect not in _DIALECTS:
        raise TraceSyntaxError(f"unknown dialect {dialect!r}")
    header, logical, notes = [], [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        m = match_line(line)
        if m:
            logical.append((line_no, line, m))
        elif line.lstrip().startswith("#"):
            m = _HEADER_RE.match(line.strip())
            if m:
                key, value = m.group(1), m.group(2).strip()
                if key in ("dialect", "mx") and (logical or key in dict(header)):  # it would change read lines
                    problem = f"{key} header {'after the first event line' if logical else 'repeated'}"
                    if mode != "lenient":
                        raise TraceSyntaxError(problem, line=line_no)
                    notes.append(f"line {line_no}: {problem}, ignored")
                    continue
                header.append((key, value))
                if key == "dialect":
                    if value not in _DIALECTS:
                        raise TraceSyntaxError(f"unknown dialect {value!r}", line=line_no)
                    dialect = value
                elif key == "mx":
                    try:
                        mx = int(value)
                    except ValueError:
                        raise TraceSyntaxError(f"mx header is not an integer: {value!r}", line=line_no) from None
        else:
            m = _LINE_RE.match(line)  # strict mode only: an event line with a number the writer would not write
            if m:
                at = 1 if m.group(1) != str(int(m.group(1))) else 2
                raise TraceSyntaxError(f"non-canonical {('chrono', 'depth')[at - 1]} {m.group(at)!r}; canonical "
                                       f"form is {str(int(m.group(at)))!r}", line_no, m.start(at) + 1)
            if not logical:
                raise TraceSyntaxError("line does not start with a chrono token", line=line_no)
            if mode != "lenient":
                raise TraceSyntaxError("continuation lines are only accepted in lenient mode", line=line_no)
            prev_no, prev, _ = logical[-1]
            # a joined line is matched again once it is complete
            logical[-1] = (prev_no, prev + " " + line.strip(), None)
            notes.append(f"line {line_no}: continuation joined to line {prev_no}")

    parser = _EventParser(mode, dialect, mx)
    canonical, events = parser.canonical, []
    chrono_start = int(_LINE_RE.match(logical[0][1]).group(1)) if logical else 1
    for expected, (line_no, line, m) in enumerate(logical, chrono_start):
        m = m or _LINE_RE.match(line)
        chrono, depth, type_name = int(m.group(1)), int(m.group(2)), m.group(3)
        if chrono != expected:
            raise TraceSyntaxError(f"chrono {chrono} breaks the consecutive numbering", line=line_no)
        read = canonical[type_name]
        try:
            matched = read and read[0](line, m.end(3))
            try:
                event = matched and _record(read[2]((type_name, depth, *map(getitem, read[1], matched.groups()),
                                                       None)))
            except GentraError:  # a value its reader refuses: the tokenizer refuses it again, with its column
                event = None
            events.append(event or parser.parse(type_name, m.group(4), depth, line_no))
        except GentraError as exc:  # raised without a line: a domain, declaration or token error
            if getattr(exc, "line", None) is not None:
                raise
            column = getattr(exc, "column", None)  # counted from the attribute text
            raise TraceSyntaxError(str(exc), line_no, None if column is None else m.start(4) + column) from exc
    return TraceDocument(events=tuple(events), chrono_start=chrono_start, dialect=dialect, header=tuple(header),
                         deviations=tuple(notes + parser.deviations), mx=mx)


# per attribute, its writer; a name (a constraint, variable, wake kind, alias
# or foreign declaration text) has none and is written as it is
_WRITERS = dict(node=lambda v, mx: f"node({v})", node2=lambda v, mx: f"node({v})", domain=format_domain,
                generated=lambda v, mx: "gen{" + ",".join(map(str, v)) + "}", cause=lambda v, mx: str(v),
                event=lambda v, mx: f"{v.variable} {v.kind}", decl=lambda v, mx: v.render(),
                explanation=lambda v, mx: "expl{" + ",".join(v) + "}")
_WRITE = {kind: tuple((GenericEvent._fields.index(name), _WRITERS.get(name)) for name, _ in layout)
          for kind, layout in LAYOUT.items()}


def serialize_event(ev: GenericEvent, mx: int = DEFAULT_MX) -> str:
    """Render one event's type and attributes in ``LAYOUT`` order."""
    writers = _WRITE.get(ev.type)
    if writers is None:
        raise TraceShapeError(ev.type, "unknown event type")
    parts = [ev.type]
    for at, write in writers:
        value = ev[at]
        if value is not None:
            parts.append(value if write is None else write(value, mx))
    return " ".join(parts)


def serialize_trace(doc: TraceDocument) -> str:
    """Canonical text for a document; inverse of strict-mode parsing."""
    lines = [f"# {k}: {v}" for k, v in doc.header]
    for chrono, ev in zip(doc.chronos(), doc.events):
        lines.append(f"{chrono}[{ev.depth}]{serialize_event(ev, doc.mx)}")
    return "\n".join(lines) + ("\n" if lines else "")


def document_for_events(events, dialect: str = "generic", solver: str | None = None,
                        mx: int = DEFAULT_MX, chrono_start: int = 1) -> TraceDocument:
    """Wrap freshly emitted records as a serializable document."""
    header = []
    if solver:
        header.append(("solver", solver))
    header.append(("dialect", dialect))
    header.append(("mx", str(mx)))
    return TraceDocument(events=tuple(events), chrono_start=chrono_start,
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
    """Parse a problem file; raises ProblemError with the offending line (for
    the problem's own checks, the earliest line of an entry at fault)."""
    entries: dict[str, list] = {field: [] for field in ("variables", "constraints", "branches", "labels")}
    lines: dict[str, list[int]] = {field: [] for field in entries}  # per field of the problem, each entry's line

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
                entries["variables"].append((sub[0], parse_range(sub[1], mx)))
            except Exception as exc:
                raise ProblemError(f"bad range {sub[1]!r}: {exc}", line=line_no)
        elif keyword == "con":
            sub = rest.split(None, 1)
            if len(sub) != 2:
                raise ProblemError("expected: con ID CONSTRAINT", line=line_no)
            entries["constraints"].append((sub[0], decl_or_fail(sub[1], line_no)))
        elif keyword == "branch":
            body = rest.strip()
            if not (body.startswith("(") and body.endswith(")")):
                raise ProblemError("expected: branch (ALT | ALT | ...)", line=line_no)
            alts = tuple(decl_or_fail(alt, line_no) for alt in _split_top(body[1:-1], "|"))
            if not alts:
                raise ProblemError("empty disjunction", line=line_no)
            entries["branches"].append(alts)
        elif keyword == "label":
            entries["labels"].extend(v.strip() for v in rest.split(",") if v.strip())
        else:
            raise ProblemError(f"unknown directive {keyword!r}", line=line_no)
        for field, read in entries.items():
            lines[field] += [line_no] * (len(read) - len(lines[field]))

    fields = {field: tuple(read) for field, read in entries.items()}
    # the fault on the earliest line, the first in the order of the checks among those of one line
    fault = min(problem_faults(**fields), key=lambda exc: lines[exc.entry[0]][exc.entry[1]], default=None)
    if fault is not None:
        field, i = fault.entry
        raise ProblemError(str(fault), line=lines[field][i])
    return Problem(**fields)
