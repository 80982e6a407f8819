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

One flag says whether the text so far is ``serialize``'s output: an exact
``str`` with no leading U+FEFF whose every vertex, relation and
hypersimplex line so far is spelled and placed as ``serialize`` writes it
(vertex lines first, then relation lines spelled ``relation NAME(r1, r2)``).
While it holds, each line is tried against the literal form of a vertex or
hypersimplex line first; the first line that is not so spelled and placed
sends the rest of the text to the general forms, with the same values,
interning, errors and spans. A text that ends with the flag set and no
blank or comment line but the empty one after the final ``"\\n"`` (or the
text ``""``) is handed to the value it parses to, and its first
``serialize`` returns it instead of building it again. Any other text is
serialized from its value.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

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

# Type checkers read this as true; at run time ``typing`` is never imported.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn

# A token, or (group 1) a stray character no token starts with.
_TOKEN_RE = re.compile(rf"{NAME}|[<>();,=:!]|(\S)")

# Whole-line forms of the three declarations. ``parse_unchecked`` builds every
# value from their groups (or the matching groups of the literal form below), and
# ``_raise_for`` finds a name's span from group 1.
# Any other line takes the token path, ``_parse_line``. No two ``\s*`` are ever
# adjacent without a literal between them, so a rejected line costs linear time.
_NAMES = rf"{NAME}(?:\s*,\s*{NAME})*"
_REF = rf"(?:!\s*)?{NAME}"
_END = r"\s*(?:#.*)?\Z"
_VERTEX_RE = re.compile(rf"\s*vertex\s+({NAME}){_END}")
_RELATION_RE = re.compile(rf"\s*relation\s+({NAME})\s*\(\s*({_NAMES})\s*\){_END}")
_SIMPLEX_RE = re.compile(
    rf"\s*({NAME})\s*=\s*<\s*({_REF}(?:\s*,\s*{_REF})*)\s*;\s*({NAME})"
    rf"(?:\s*;\s*({_NAMES}))?\s*>(?:\s*:\s*(alpha|beta))?{_END}"
)

# A vertex line (group 1) or a hypersimplex line (groups 2-6, as in
# ``_SIMPLEX_RE``) spelled exactly as ``serialize`` writes it: one space where
# it writes one, the kind always written, no comment. Literal spaces match in
# about half the time of ``\s*``, so ``parse_unchecked`` tries this first, and
# the refs it matches need no strip. It accepts a subset of the general forms.
_CANONICAL_RE = re.compile(
    rf"vertex ({NAME})\Z|({NAME}) = < (!?{NAME}(?:, !?{NAME})*) ; ({NAME})"
    rf"(?: ; ({NAME}(?:, {NAME})*))? > : (alpha|beta)\Z"
)


@dataclass(frozen=True)
class SourceSpan:
    """1-based line and column of a position in source text."""

    line: int
    column: int


class _Names(dict):
    """Per-parse intern table: one Identifier per distinct name.

    Every key is a whole ``NAME`` match of a line regex, so the identifier
    check in ``Identifier.__new__`` is not run again.
    """

    def __missing__(self, text: str) -> Identifier:
        ident = self[text] = str.__new__(Identifier, text)
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


class _Tags(dict):
    """Per-parse table of one tag tuple per distinct tag-list text; no list is ``()``."""

    def __init__(self, names: _Names):
        super().__init__({None: ()})
        self.names = names

    def __missing__(self, text: str) -> tuple[Identifier, ...]:
        tags = self[text] = tuple([self.names[t.strip()] for t in text.split(",")])
        return tags


class _Cursor:
    """The tokens of one comment-stripped line, read left to right."""

    def __init__(self, line: str, lineno: int):
        self.lineno = lineno
        self.at = 0
        self.tokens: list[re.Match] = []
        for m in _TOKEN_RE.finditer(line):
            if m.lastindex:
                raise HtSyntaxError(f"unexpected character {m[0]!r}", self.span(m))
            self.tokens.append(m)

    def span(self, tok: re.Match) -> SourceSpan:
        return SourceSpan(self.lineno, tok.start() + 1)

    def peek(self) -> str | None:
        return self.tokens[self.at][0] if self.at < len(self.tokens) else None

    def accept(self, text: str) -> bool:
        if self.peek() != text:
            return False
        self.at += 1
        return True

    def fail(self, what: str) -> NoReturn:
        if self.at == len(self.tokens):
            raise HtSyntaxError(f"expected {what}", SourceSpan(self.lineno, self.tokens[-1].end() + 1))
        tok = self.tokens[self.at]
        raise HtSyntaxError(f"expected {what}, got {tok[0]!r}", self.span(tok))

    def take(self, text: str) -> None:
        if not self.accept(text):
            self.fail(repr(text))

    def take_ident(self, what: str) -> re.Match:
        if not is_identifier(self.peek()):
            self.fail(what)
        self.at += 1
        return self.tokens[self.at - 1]

    def take_idents(self, what: str) -> list[re.Match]:
        """A comma-separated list of one or more identifiers."""
        found = [self.take_ident(what)]
        while self.accept(","):
            found.append(self.take_ident(what))
        return found

    def expect_end(self) -> None:
        if self.at < len(self.tokens):
            tok = self.tokens[self.at]
            raise HtSyntaxError(f"unexpected {tok[0]!r} at end of declaration", self.span(tok))


def _parse_relation(cur: _Cursor) -> None:
    cur.take_ident("relation name")
    cur.take("(")
    roles = cur.take_idents("role name")
    cur.take(")")
    cur.expect_end()
    seen: set[str] = set()
    for r in roles:
        if r[0] in seen:
            raise HtSyntaxError(f"duplicate role name {r[0]!r}", cur.span(r))
        seen.add(r[0])


def _parse_simplex(cur: _Cursor) -> None:
    cur.take_ident("hypersimplex name")
    cur.take("=")
    cur.take("<")
    while True:
        cur.accept("!")
        cur.take_ident("participant")
        if not cur.accept(","):
            break
    cur.take(";")
    cur.take_ident("relation name")
    if cur.accept(";"):
        cur.take_idents("boundary tag")
    cur.take(">")
    if cur.accept(":"):
        word = cur.take_ident("kind (alpha or beta)")
        if word[0] not in ("alpha", "beta"):
            raise HtSyntaxError(f"expected alpha or beta, got {word[0]!r}", cur.span(word))
    cur.expect_end()


def _parse_line(line: str, lineno: int) -> None:
    """Token-by-token check of a line the whole-line forms reject.

    Returns for a blank or comment-only line and raises the line's
    ``HtSyntaxError`` otherwise, even if every check passes: a gap between
    the two grammars must not drop a declaration. It owns every diagnostic
    and builds nothing; ``tests/test_text.py`` checks the line forms against
    the token builder kept in ``tests/token_reference.py``.
    """
    cur = _Cursor(line.split("#", 1)[0], lineno)
    if not cur.tokens:
        return
    # "vertex" and "relation" are not reserved: a second token "="
    # means the line declares a hypersimplex of that name.
    is_simplex = len(cur.tokens) > 1 and cur.tokens[1][0] == "="
    if not is_simplex and cur.accept("vertex"):
        cur.take_ident("vertex name")
        cur.expect_end()
    elif not is_simplex and cur.accept("relation"):
        _parse_relation(cur)
    else:
        _parse_simplex(cur)
    raise HtSyntaxError("declaration matches no line form", cur.span(cur.tokens[0]))


_ERRORS = {
    "A1": UnresolvedIdentifierError,
    "A2": UnresolvedIdentifierError,
    "A4": ArityError,
    "A5": DuplicateIdentifierError,
    "WELLFORMED": CycleError,
}


# A block of lines ends at the first "\n" this many characters after its
# start: large enough that the cost per block is lost in the cost per line,
# small enough that one block's line strings are a sliver of a large text.
_BLOCK = 1 << 16


def _blocks(text: str) -> Iterator[list[str]]:
    """The lines of ``text`` in blocks of whole lines.

    One leading U+FEFF is skipped and lines end at ``"\\n"`` only, so the
    blocks hold the lines of ``text.removeprefix("\\ufeff").split("\\n")``
    in order, without every line alive at once.
    """
    start = int(text.startswith("\ufeff"))
    while (end := text.find("\n", start + _BLOCK)) >= 0:
        yield text[start:end].split("\n")
        start = end + 1
    yield text[start:].split("\n")


def _name_spans(text: str) -> Iterator[tuple[str, SourceSpan]]:
    """The name and its span of each declaration in a text ``parse_unchecked`` accepts."""
    for lineno, line in enumerate(chain.from_iterable(_blocks(text)), 1):
        m = _SIMPLEX_RE.match(line) or _VERTEX_RE.match(line) or _RELATION_RE.match(line)
        if m is not None:
            yield m[1], SourceSpan(lineno, m.start(1) + 1)


def _raise_for(report: axioms.ValidationReport, text: str) -> None:
    # Spans are only needed here, so the source is matched again for them
    # rather than recorded on every parse. Every line of a text that
    # ``parse_unchecked`` accepted is blank or matches one line form.
    violation = report.violations[0]
    at = [span for name, span in _name_spans(text) if name == violation.subject]
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
    names = _Names()
    slots = _Slots(names)
    tag_lists = _Tags(names)
    canonical = _CANONICAL_RE.match
    simplex, vertex, relation = _SIMPLEX_RE.match, _VERTEX_RE.match, _RELATION_RE.match
    alpha, beta = Kind.ALPHA, Kind.BETA  # read once: a member read through its Enum class is slow
    # Whether the text so far is exactly what ``serialize`` writes (see the
    # module docstring): line k holds declaration k. So the k-th vertex line
    # is line k, the j-th relation line is line V + j for the V vertices read
    # so far, and the only line left over is the empty piece after the final
    # "\n". The literal form is tried only while it holds; the general forms
    # read the rest of the text, so hand-written text pays no failed literal
    # match per line.
    exact = text.__class__ is str and not text.startswith("\ufeff")
    for lineno, line in enumerate(chain.from_iterable(_blocks(text)), 1):
        if exact and (m := canonical(line)):
            if m[1]:
                vertices.append(names[m[1]])
                exact = lineno == len(vertices)
                continue
            _, sid, refs, rel, tags, kind = m.groups()
            participants = tuple([slots[r] for r in refs.split(", ")])
        elif m := simplex(line):
            exact = False
            sid, refs, rel, tags, kind = m.groups()
            participants = tuple([slots[r.strip()] for r in refs.split(",")])
        elif m := vertex(line):
            exact = False
            vertices.append(names[m[1]])
            continue
        elif m := relation(line):
            roles = tuple([r.strip() for r in m[2].split(",")])
            if len(set(roles)) < len(roles):
                _parse_line(line, lineno)  # raises the duplicate role's error
            relations.append(RelationSymbol(names[m[1]], roles))
            exact = (exact and lineno == len(vertices) + len(relations)
                     and line == f"relation {m[1]}({', '.join(roles)})")
            continue
        else:
            _parse_line(line, lineno)
            continue
        simplices.append(Hypersimplex(
            names[sid],
            participants,
            names[rel],
            beta if kind == "beta" else alpha,
            tag_lists[tags],
        ))
    h = Hypernetwork(tuple(vertices), tuple(relations), tuple(simplices))
    if (exact and lineno == len(vertices) + len(relations) + len(simplices) + 1
            and text[-1:] in ("\n", "")):
        vars(h)["_text"] = text  # ``serialize`` hands it over once
    return h


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


def serialize(h: Hypernetwork) -> str:
    """Canonical ``.ht`` form of ``h``; empty hypernetwork gives ``""``."""
    # One ``dict.pop``: of threads that race here, one takes the parsed text
    # and the others build an equal string.
    text = vars(h).pop("_text", None)
    if text is not None:
        return text
    lines = [f"vertex {v}\n" for v in h.vertices]
    lines += [f"relation {r.id}({', '.join(r.roles)})\n" for r in h.relations]
    for s in h.simplices:
        parts = ", ".join([f"!{p.ref}" if p.excluded else f"{p.ref}" for p in s.participants])
        tags = f" ; {', '.join(s.tags)}" if s.tags else ""
        lines.append(f"{s.id} = < {parts} ; {s.relation}{tags} > : {s.kind._value_}\n")
    return "".join(lines)
