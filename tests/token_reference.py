"""The token-by-token builder of ``.ht`` declarations, kept as a reference.

The parser builds every declaration from the whole-line regexes of
``hyperscope.text``, in ``parse_unchecked``. Its token path only diagnoses
the lines those regexes reject. The builder below is that token path as it
stood when it also built values, kept verbatim as the slow reference:
wherever it accepts a line, ``parse_unchecked`` of that line must return an
equal declaration, with names of the same types, at the same column. It
imports only the value types and the name grammar, never the parser under
test.
"""

from __future__ import annotations

import re
from typing import NoReturn

from hyperscope import (
    HtSyntaxError,
    Hypersimplex,
    Identifier,
    Kind,
    Participant,
    RelationSymbol,
    SourceSpan,
)
from hyperscope.model import NAME, is_identifier


# --- the slow reference, verbatim ------------------------------------------

# A token, or (group 1) a stray character no token starts with.
_TOKEN_RE = re.compile(rf"{NAME}|[<>();,=:!]|(\S)")

_Decl = Identifier | RelationSymbol | Hypersimplex


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


def _parse_relation(cur: _Cursor) -> tuple[RelationSymbol, int]:
    name = cur.take_ident("relation name")
    cur.take("(")
    roles = cur.take_idents("role name")
    cur.take(")")
    cur.expect_end()
    seen: set[str] = set()
    for r in roles:
        if r[0] in seen:
            raise HtSyntaxError(f"duplicate role name {r[0]!r}", cur.span(r))
        seen.add(r[0])
    return RelationSymbol(Identifier(name[0]), tuple(r[0] for r in roles)), name.start() + 1


def _parse_simplex(cur: _Cursor) -> tuple[Hypersimplex, int]:
    name = cur.take_ident("hypersimplex name")
    cur.take("=")
    cur.take("<")
    participants: list[Participant] = []
    while not participants or cur.accept(","):
        excluded = cur.accept("!")
        ref = cur.take_ident("participant")
        participants.append(Participant(Identifier(ref[0]), excluded=excluded))
    cur.take(";")
    relation = cur.take_ident("relation name")
    tags = cur.take_idents("boundary tag") if cur.accept(";") else []
    cur.take(">")
    kind = Kind.ALPHA
    if cur.accept(":"):
        word = cur.take_ident("kind (alpha or beta)")
        if word[0] not in ("alpha", "beta"):
            raise HtSyntaxError(f"expected alpha or beta, got {word[0]!r}", cur.span(word))
        kind = Kind(word[0])
    cur.expect_end()
    simplex = Hypersimplex(
        Identifier(name[0]),
        tuple(participants),
        Identifier(relation[0]),
        kind,
        tuple(Identifier(t[0]) for t in tags),
    )
    return simplex, name.start() + 1


def _parse_line(line: str, lineno: int) -> tuple[_Decl, int] | None:
    """Token-by-token parse of one line: its declaration and name column.

    Returns None for a blank or comment-only line, and raises the line's
    ``HtSyntaxError`` for anything malformed.
    """
    cur = _Cursor(line.split("#", 1)[0], lineno)
    if not cur.tokens:
        return None
    # "vertex" and "relation" are not reserved: a second token "="
    # means the line declares a hypersimplex of that name.
    if len(cur.tokens) == 1 or cur.tokens[1][0] != "=":
        if cur.accept("vertex"):
            name = cur.take_ident("vertex name")
            cur.expect_end()
            return Identifier(name[0]), name.start() + 1
        if cur.accept("relation"):
            return _parse_relation(cur)
    return _parse_simplex(cur)
