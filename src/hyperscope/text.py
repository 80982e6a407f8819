"""The ``.ht`` text format: parser and canonical serializer.

Line-oriented grammar; ``#`` starts a comment, blank lines are ignored:

    vertex NAME
    relation NAME(role1, role2, ...)
    NAME = < p1, p2, ... ; REL ; tag1, tag2, ... > : alpha|beta

The ``; tags`` segment may be omitted entirely for an empty tag set (an
empty segment such as ``< a ; R ; >`` is a syntax error), and ``: kind``
may be omitted and defaults to alpha. A participant written ``!x`` is the
anti-vertex of ``x``. Forward references within one file are fine;
resolution happens once the whole file has been read.

Lines end at ``"\\n"`` only. Whitespace is whatever ``str.isspace`` accepts,
so the ``"\\r"`` of a CRLF ending is trailing whitespace, and other Unicode
separators (U+2028, U+0085, form feed, a lone ``"\\r"``) are whitespace
inside a line: they never end a comment. One leading U+FEFF (a UTF-8 byte
order mark) is dropped before parsing, and columns count from after it.

Canonical output, produced by :func:`serialize`, is bit-exact: one
declaration per line in the hypernetwork's stored order (vertices, then
relations, then hypersimplices), exactly one space after commas and around
``;``, ``=``, and ``:``, the kind always written, tags in stored order, LF
line endings, and a trailing newline. ``parse(serialize(h))`` is full-equal
to ``h``, and ``serialize`` is a fixed point on its own output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from . import axioms
from .errors import (
    ArityError,
    CycleError,
    DuplicateIdentifierError,
    HtSyntaxError,
    UnresolvedIdentifierError,
)
from .model import (NAME, Hypernetwork, Hypersimplex, Identifier, Kind, Participant,
                    RelationSymbol, is_identifier)

_TOKEN_RE = re.compile(rf"{NAME}|[<>();,=:!]")

# Whole-line forms of the three declarations. A line one of them accepts
# parses to the same value and name column on the token path below
# (tests/test_text.py checks this differentially); any other line takes the
# token path, which owns every diagnostic. No two ``\s*`` are ever adjacent
# without a literal between them, so a rejected line costs linear time.
_NAMES = rf"{NAME}(?:\s*,\s*{NAME})*"
_REF = rf"(?:!\s*)?{NAME}"
_END = r"\s*(?:#.*)?\Z"
_VERTEX_RE = re.compile(rf"\s*vertex\s+({NAME}){_END}")
_RELATION_RE = re.compile(rf"\s*relation\s+({NAME})\s*\(\s*({_NAMES})\s*\){_END}")
_SIMPLEX_RE = re.compile(
    rf"\s*({NAME})\s*=\s*<\s*({_REF}(?:\s*,\s*{_REF})*)\s*;\s*({NAME})"
    rf"(?:\s*;\s*({_NAMES}))?\s*>(?:\s*:\s*(alpha|beta))?{_END}"
)


@dataclass(frozen=True)
class SourceSpan:
    """1-based line and column of a position in source text."""

    line: int
    column: int


_Decl = Identifier | RelationSymbol | Hypersimplex


class _Names(dict):
    """Per-parse intern table: one checked Identifier per distinct name."""

    def __missing__(self, text: str) -> Identifier:
        ident = self[text] = Identifier(text)
        return ident


class _Slots(dict):
    """Per-parse table of one Participant per distinct slot text (``x``, ``!x``)."""

    def __init__(self, names: _Names):
        super().__init__()
        self.names = names

    def __missing__(self, text: str) -> Participant:
        if text[0] == "!":
            slot = Participant(self.names[text[1:].lstrip()], excluded=True)
        else:
            slot = Participant(self.names[text])
        self[text] = slot
        return slot


def _match_line(line: str, names: _Names, slots: _Slots) -> tuple[_Decl, int] | None:
    """Declaration and name column of a line the whole-line forms accept."""
    m = _SIMPLEX_RE.match(line)
    if m is not None:
        sid, refs, rel, tags, kind = m.groups()
        simplex = Hypersimplex(
            names[sid],
            tuple([slots[r.strip()] for r in refs.split(",")]),
            names[rel],
            Kind.BETA if kind == "beta" else Kind.ALPHA,
            tuple([names[t.strip()] for t in tags.split(",")]) if tags else (),
        )
        return simplex, m.start(1) + 1
    m = _VERTEX_RE.match(line)
    if m is not None:
        return names[m[1]], m.start(1) + 1
    m = _RELATION_RE.match(line)
    if m is not None:
        roles = tuple(r.strip() for r in m[2].split(","))
        if len(set(roles)) == len(roles):
            return RelationSymbol(names[m[1]], roles), m.start(1) + 1
    return None


@dataclass(frozen=True)
class _Token:
    text: str
    span: SourceSpan

    @property
    def is_ident(self) -> bool:
        return is_identifier(self.text)


def _tokenize(line: str, lineno: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    for m in _TOKEN_RE.finditer(line):
        gap = line[pos : m.start()]
        if gap.strip():
            bad = len(gap) - len(gap.lstrip())
            raise HtSyntaxError(
                f"unexpected character {gap.strip()[0]!r}",
                SourceSpan(lineno, pos + bad + 1),
            )
        tokens.append(_Token(m.group(), SourceSpan(lineno, m.start() + 1)))
        pos = m.end()
    tail = line[pos:]
    if tail.strip():
        bad = len(tail) - len(tail.lstrip())
        raise HtSyntaxError(
            f"unexpected character {tail.strip()[0]!r}",
            SourceSpan(lineno, pos + bad + 1),
        )
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.at = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def _end_span(self) -> SourceSpan:
        if self.tokens:
            last = self.tokens[-1]
            return SourceSpan(self.lineno, last.span.column + len(last.text))
        return SourceSpan(self.lineno, 1)

    def take(self, expected: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise HtSyntaxError(f"expected {expected!r}", self._end_span())
        if tok.text != expected:
            raise HtSyntaxError(f"expected {expected!r}, got {tok.text!r}", tok.span)
        self.at += 1
        return tok

    def take_ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise HtSyntaxError(f"expected {what}", self._end_span())
        if not tok.is_ident:
            raise HtSyntaxError(f"expected {what}, got {tok.text!r}", tok.span)
        self.at += 1
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise HtSyntaxError(f"unexpected {tok.text!r} at end of declaration", tok.span)


def _parse_relation(cur: _Cursor) -> tuple[RelationSymbol, int]:
    cur.take("relation")
    name = cur.take_ident("relation name")
    cur.take("(")
    roles = [cur.take_ident("role name")]
    while cur.peek() is not None and cur.peek().text == ",":
        cur.take(",")
        roles.append(cur.take_ident("role name"))
    cur.take(")")
    cur.expect_end()
    seen: set[str] = set()
    for r in roles:
        if r.text in seen:
            raise HtSyntaxError(f"duplicate role name {r.text!r}", r.span)
        seen.add(r.text)
    relation = RelationSymbol(Identifier(name.text), tuple(r.text for r in roles))
    return relation, name.span.column


def _parse_simplex(cur: _Cursor) -> tuple[Hypersimplex, int]:
    name = cur.take_ident("hypersimplex name")
    cur.take("=")
    cur.take("<")

    participants: list[Participant] = []
    while True:
        excluded = False
        tok = cur.peek()
        if tok is not None and tok.text == "!":
            cur.take("!")
            excluded = True
        ref = cur.take_ident("participant")
        participants.append(Participant(Identifier(ref.text), excluded=excluded))
        tok = cur.peek()
        if tok is not None and tok.text == ",":
            cur.take(",")
            continue
        break
    cur.take(";")
    relation = cur.take_ident("relation name")

    tags: list[Identifier] = []
    tok = cur.peek()
    if tok is not None and tok.text == ";":
        cur.take(";")
        tags.append(Identifier(cur.take_ident("boundary tag").text))
        while cur.peek() is not None and cur.peek().text == ",":
            cur.take(",")
            tags.append(Identifier(cur.take_ident("boundary tag").text))
    cur.take(">")

    kind = Kind.ALPHA
    tok = cur.peek()
    if tok is not None and tok.text == ":":
        cur.take(":")
        ktok = cur.take_ident("kind (alpha or beta)")
        if ktok.text == "alpha":
            kind = Kind.ALPHA
        elif ktok.text == "beta":
            kind = Kind.BETA
        else:
            raise HtSyntaxError(f"expected alpha or beta, got {ktok.text!r}", ktok.span)
    cur.expect_end()
    simplex = Hypersimplex(
        Identifier(name.text),
        tuple(participants),
        Identifier(relation.text),
        kind,
        tuple(tags),
    )
    return simplex, name.span.column


def _parse_line(line: str, lineno: int) -> tuple[_Decl, int] | None:
    """Token-by-token parse of one line: its declaration and name column.

    Returns None for a blank or comment-only line, and raises the line's
    ``HtSyntaxError`` for anything malformed.
    """
    tokens = _tokenize(line.split("#", 1)[0], lineno)
    if not tokens:
        return None
    cur = _Cursor(tokens, lineno)
    head = tokens[0]
    nxt = tokens[1] if len(tokens) > 1 else None
    # "vertex" and "relation" are not reserved: a second token "="
    # means the line declares a hypersimplex of that name.
    if head.text == "vertex" and (nxt is None or nxt.text != "="):
        cur.take("vertex")
        name = cur.take_ident("vertex name")
        cur.expect_end()
        return Identifier(name.text), name.span.column
    if head.text == "relation" and (nxt is None or nxt.text != "="):
        return _parse_relation(cur)
    return _parse_simplex(cur)


def _declarations(text: str) -> Iterator[tuple[_Decl, int, int]]:
    """Each declaration in ``text`` with its name's line and column, in source order."""
    if text.startswith("\ufeff"):
        text = text[1:]
    names = _Names()
    slots = _Slots(names)
    for lineno, line in enumerate(text.split("\n"), start=1):
        found = _match_line(line, names, slots) or _parse_line(line, lineno)
        if found is not None:
            yield found[0], lineno, found[1]


_ERRORS = {
    "A1": UnresolvedIdentifierError,
    "A2": UnresolvedIdentifierError,
    "A4": ArityError,
    "A5": DuplicateIdentifierError,
    "WELLFORMED": CycleError,
}


def _raise_for(report: axioms.ValidationReport, text: str) -> None:
    # Spans are only needed here, so the source is scanned again for them
    # rather than recorded on every parse. A vertex declaration is its own
    # name; the others carry it as ``id``.
    violation = report.violations[0]
    at = [
        SourceSpan(line, column)
        for decl, line, column in _declarations(text)
        if getattr(decl, "id", decl) == violation.subject
    ] or [None]
    # ``validate`` appends duplicate declarations first and sorts stably, so
    # an A1 on a subject declared twice is the duplicate, at its second span.
    if violation.axiom == "A1" and len(at) > 1:
        error = DuplicateIdentifierError(violation.message, at[1])
    else:
        error = _ERRORS.get(violation.axiom, HtSyntaxError)(violation.message, at[0])
    error.report = report
    raise error


def parse_unchecked(text: str) -> Hypernetwork:
    """Parse syntax only, leaving semantic defects in the returned value.

    Used by validation tooling that wants to report axiom violations as
    data instead of failing on the first one.
    """
    vertices: list[Identifier] = []
    relations: list[RelationSymbol] = []
    simplices: list[Hypersimplex] = []
    add = {Identifier: vertices.append, RelationSymbol: relations.append,
           Hypersimplex: simplices.append}
    for decl, _, _ in _declarations(text):
        add[type(decl)](decl)
    return Hypernetwork(tuple(vertices), tuple(relations), tuple(simplices))


def parse(text: str) -> Hypernetwork:
    """Parse ``.ht`` source into a validated hypernetwork.

    Semantic defects (duplicate declarations, unresolved references, arity
    mismatches, duplicate tags, containment cycles) are rejected eagerly
    with the declaration's source position attached. The error describes
    the first violation; its ``report`` holds the whole ValidationReport.
    """
    h = parse_unchecked(text)
    report = axioms.validate(h)
    if not report.ok:
        _raise_for(report, text)
    return h


def _render_simplex(s: Hypersimplex) -> str:
    parts = ", ".join(str(p) for p in s.participants)
    if s.tags:
        body = f"< {parts} ; {s.relation} ; {', '.join(s.tags)} >"
    else:
        body = f"< {parts} ; {s.relation} >"
    return f"{s.id} = {body} : {s.kind.value}"


def serialize(h: Hypernetwork) -> str:
    """Canonical ``.ht`` form of ``h``; empty hypernetwork gives ``""``."""
    lines = [f"vertex {v}" for v in h.vertices]
    lines += [f"relation {r.id}({', '.join(r.roles)})" for r in h.relations]
    lines += [_render_simplex(s) for s in h.simplices]
    return "".join(line + "\n" for line in lines)
