from __future__ import annotations

import copy
import functools
import random
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperscope import (
    ArityError,
    CycleError,
    DuplicateIdentifierError,
    HtSyntaxError,
    Hypernetwork,
    HypernetworkError,
    Hypersimplex,
    Kind,
    RelationSymbol,
    SourceSpan,
    UnresolvedIdentifierError,
    parse,
    parse_unchecked,
    project,
    serialize,
    validate,
)
from hyperscope import text
from hyperscope.corpus import fixture_source

import token_reference
from gen import acceptance_corpus, unseeded


class TestParse:
    def test_report_line(self):
        h = parse(
            "vertex incident\n"
            "vertex location\n"
            "relation R_report(r1, r2)\n"
            "report = < incident, location ; R_report ; b_fire, b_ambulance, b_police >\n"
        )
        report = h.simplex("report")
        assert len(report.participants) == 2
        assert report.tags == ("b_fire", "b_ambulance", "b_police")
        assert report.kind is Kind.ALPHA

    def test_kind_defaults_to_alpha_and_beta_is_explicit(self):
        h = parse(
            "vertex a\n"
            "relation R(r1)\n"
            "x = < a ; R >\n"
            "y = < a ; R > : beta\n"
        )
        assert h.simplex("x").kind is Kind.ALPHA
        assert h.simplex("y").kind is Kind.BETA

    def test_participant_resolves_to_hypersimplex(self):
        h = parse(
            "vertex body\nvertex legs\nvertex arms\n"
            "vertex bicycle\nvertex trainingPlan\n"
            "relation R_person(r1, r2, r3)\n"
            "relation R_cyclist(r1, r2, r3)\n"
            "cyclist = < person, bicycle, trainingPlan ; R_cyclist ; b_cyclist >\n"
            "person = < body, legs, arms ; R_person >\n"
        )
        # forward reference: person is declared after cyclist uses it
        assert h.simplex("person") is not None
        assert h.simplex("cyclist").participants[0].ref == "person"

    def test_anti_vertex_participant(self):
        h = parse("vertex a\nvertex b\nrelation R(r1, r2)\nx = < a, !b ; R >\n")
        assert [str(p) for p in h.simplex("x").participants] == ["a", "!b"]

    def test_comments_and_blank_lines(self):
        h = parse(
            "# a comment line\n"
            "\n"
            "vertex a  # trailing comment\n"
            "relation R(r1)\n"
            "x = < a ; R > # another\n"
        )
        assert h.vertices == ("a",)
        assert h.simplex("x") is not None

    def test_flexible_whitespace(self):
        h = parse("vertex   a\nrelation R( r1 ,r2 )\nx=<a,!a;R;t1,t2>:beta\n")
        s = h.simplex("x")
        assert s.tags == ("t1", "t2")
        assert s.kind is Kind.BETA

    def test_empty_source_is_empty_network(self):
        assert parse("").is_empty()

    def test_determinism(self):
        src = fixture_source("E2")
        assert parse(src) == parse(src)


class TestParseErrors:
    def test_empty_tag_segment_is_syntax_error(self):
        with pytest.raises(HtSyntaxError) as err:
            parse("vertex a\nrelation R(r1)\nx = < a ; R ; >\n")
        assert err.value.span.line == 3

    def test_unexpected_character_has_position(self):
        with pytest.raises(HtSyntaxError) as err:
            parse("vertex a$b\n")
        assert (err.value.span.line, err.value.span.column) == (1, 9)

    def test_missing_relation_segment(self):
        with pytest.raises(HtSyntaxError):
            parse("vertex a\nx = < a >\n")

    def test_bad_kind_word(self):
        with pytest.raises(HtSyntaxError):
            parse("vertex a\nrelation R(r1)\nx = < a ; R > : gamma\n")

    def test_duplicate_declaration(self):
        with pytest.raises(DuplicateIdentifierError) as err:
            parse("vertex a\nvertex a\n")
        assert err.value.span.line == 2

    def test_duplicate_across_namespaces(self):
        with pytest.raises(DuplicateIdentifierError):
            parse("vertex x\nrelation R(r1)\nx = < x ; R >\n")

    def test_unresolved_participant(self):
        with pytest.raises(UnresolvedIdentifierError):
            parse("relation R(r1)\nx = < ghost ; R >\n")

    def test_unresolved_relation(self):
        with pytest.raises(UnresolvedIdentifierError):
            parse("vertex a\nx = < a ; R_missing >\n")

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            parse("vertex a\nrelation R(r1, r2)\nx = < a ; R >\n")

    def test_containment_cycle(self):
        with pytest.raises(CycleError):
            parse("relation R(r1)\nx = < y ; R >\ny = < x ; R >\n")

    def test_duplicate_tag(self):
        with pytest.raises(DuplicateIdentifierError):
            parse("vertex a\nrelation R(r1)\nx = < a ; R ; t, t >\n")

    def test_duplicate_role(self):
        with pytest.raises(HtSyntaxError):
            parse("relation R(r1, r1)\n")

    def test_unchecked_parse_defers_semantic_defects(self):
        h = parse_unchecked("vertex a\nvertex a\nrelation R(r1, r2)\nx = < ghost ; R >\n")
        report = validate(h)
        assert [v.axiom for v in report.violations] == ["A1", "A1", "A4"]


class TestSerialize:
    def test_canonical_fixed_point(self):
        src = fixture_source("E1")
        once = serialize(parse(src))
        assert serialize(parse(once)) == once
        assert serialize(unseeded(parse(once))) == once

    def test_empty_network_serializes_to_empty_string(self):
        from hyperscope import Hypernetwork

        assert serialize(Hypernetwork()) == ""

    def test_fire_projection_rendering(self, emergency):
        got = serialize(project(emergency, "b_fire").content)
        assert got == (
            "vertex crew\n"
            "vertex engine\n"
            "vertex equipment\n"
            "vertex incident\n"
            "vertex location\n"
            "relation R_fireUnit(r1, r2, r3)\n"
            "relation R_report(r1, r2)\n"
            "fireUnit = < crew, engine, equipment ; R_fireUnit ; b_fire > : alpha\n"
            "report = < incident, location ; R_report ; b_fire, b_ambulance, b_police > : alpha\n"
        )

    def test_round_trip_on_fixtures(self, bicycle, emergency, ecology):
        for h in (bicycle, emergency, ecology):
            assert parse(serialize(h)) == h

    def test_normalizes_noncanonical_input(self):
        messy = "vertex a\nrelation R(r1 , r2)\nx=<a,!a;R;t>:alpha\n"
        assert serialize(parse(messy)) == (
            "vertex a\n"
            "relation R(r1, r2)\n"
            "x = < a, !a ; R ; t > : alpha\n"
        )


# Separators that str.splitlines() breaks on but that are whitespace here.
_INLINE_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class TestLineEndings:
    @pytest.mark.parametrize("sep", _INLINE_BREAKS)
    def test_unicode_line_breaks_do_not_end_comments(self, sep):
        assert parse_unchecked(f"# c{sep}x = < y ; R >\n").is_empty()

    @pytest.mark.parametrize("sep", _INLINE_BREAKS)
    def test_unicode_line_breaks_are_whitespace_inside_a_line(self, sep):
        assert parse(f"vertex{sep}a{sep}\n").vertices == ("a",)
        with pytest.raises(HtSyntaxError) as err:
            parse(f"vertex a{sep}vertex b\n")
        assert err.value.span == SourceSpan(1, 10)

    @pytest.mark.parametrize("sep", _INLINE_BREAKS)
    def test_line_numbers_count_line_feeds_only(self, sep):
        with pytest.raises(DuplicateIdentifierError) as err:
            parse(f"vertex a{sep}\nvertex a\n")
        assert err.value.span == SourceSpan(2, 8)

    def test_crlf_is_tolerated(self):
        src = fixture_source("E2")
        assert parse(src.replace("\n", "\r\n")) == parse(src)
        with pytest.raises(DuplicateIdentifierError) as err:
            parse("vertex a\r\n# c\r\nvertex a\r\n")
        assert err.value.span == SourceSpan(3, 8)


class TestByteOrderMark:
    def test_leading_bom_is_dropped(self):
        assert parse("\ufeffvertex a\n").vertices == ("a",)
        with pytest.raises(HtSyntaxError) as err:
            parse("\ufeffvertex a$b\n")
        assert err.value.span == SourceSpan(1, 9)

    @pytest.mark.parametrize(
        "src, span",
        [
            ("vertex a\n\ufeffvertex b\n", SourceSpan(2, 1)),
            ("\ufeff\ufeffvertex a\n", SourceSpan(1, 1)),
            ("vertex \ufeffa\n", SourceSpan(1, 8)),
        ],
    )
    def test_bom_elsewhere_is_rejected_with_its_span(self, src, span):
        with pytest.raises(HtSyntaxError) as err:
            parse(src)
        assert err.value.args[0] == "unexpected character '\\ufeff'"
        assert err.value.span == span

    @pytest.mark.parametrize(
        "src, error, span",
        [
            ("\ufeffx = < ghost ; R >\nrelation R(r)\n", UnresolvedIdentifierError,
             SourceSpan(1, 1)),
            ("\ufeff x = < a ; R >\nvertex a\nrelation R(r, q)\n", ArityError, SourceSpan(1, 2)),
            ("\ufeff  vertex a\nvertex b\nvertex a\n", DuplicateIdentifierError,
             SourceSpan(3, 8)),
        ],
    )
    def test_semantic_error_spans_count_columns_after_the_bom(self, src, error, span):
        with pytest.raises(HypernetworkError) as err:
            parse(src)
        assert type(err.value) is error
        assert err.value.span == span


def test_regex_whitespace_is_str_isspace():
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


# Each error case above with its exact diagnostic, plus cases that reach the
# token path from lines close to a whole-line form. The fast path may not
# change any of them.
PINNED_ERRORS = [
    ("vertex a\nrelation R(r1)\nx = < a ; R ; >\n", HtSyntaxError,
     "expected boundary tag, got '>'", 3, 15),
    ("vertex a$b\n", HtSyntaxError, "unexpected character '$'", 1, 9),
    ("vertex a\nx = < a >\n", HtSyntaxError, "expected ';', got '>'", 2, 9),
    ("vertex a\nrelation R(r1)\nx = < a ; R > : gamma\n", HtSyntaxError,
     "expected alpha or beta, got 'gamma'", 3, 17),
    ("vertex a\nvertex a\n", DuplicateIdentifierError,
     "duplicate declaration of a (first declared as a vertex)", 2, 8),
    ("vertex x\nrelation R(r1)\nx = < x ; R >\n", DuplicateIdentifierError,
     "duplicate declaration of x (first declared as a vertex)", 3, 1),
    ("relation R(r1)\nx = < ghost ; R >\n", UnresolvedIdentifierError,
     "participant ghost does not resolve", 2, 1),
    ("vertex a\nx = < a ; R_missing >\n", UnresolvedIdentifierError,
     "relation R_missing is not declared", 2, 1),
    ("vertex a\nrelation R(r1, r2)\nx = < a ; R >\n", ArityError,
     "binds 1 participants to R which has arity 2", 3, 1),
    ("relation R(r1)\nx = < y ; R >\ny = < x ; R >\n", CycleError,
     "containment cycle: x -> y -> x", 2, 1),
    ("vertex a\nrelation R(r1)\nx = < a ; R ; t, t >\n", DuplicateIdentifierError,
     "duplicate tag t", 3, 1),
    ("relation R(r1, r1)\n", HtSyntaxError, "duplicate role name 'r1'", 1, 16),
    ("relation R(r1)\nvertex a\nvertexa\n", HtSyntaxError, "expected '='", 3, 8),
    ("vertex a\nrelation R(r1)\n  x = < !a ; R ; t , t>\n", DuplicateIdentifierError,
     "duplicate tag t", 3, 3),
    ("relation R(r1)\nrelation R(r2)\n", DuplicateIdentifierError,
     "duplicate declaration of R (first declared as a relation)", 2, 10),
    ("vertex a\n\nrelation R(r1)\nrelation\tS(r1)\nx=<a;S>\nx = < a ; R >\n",
     DuplicateIdentifierError,
     "duplicate declaration of x (first declared as a hypersimplex)", 6, 1),
    ("relation R(r1)\nx = < ! ; R >\n", HtSyntaxError, "expected participant, got ';'", 2, 9),
    ("vertex\n", HtSyntaxError, "expected vertex name", 1, 7),
    ("relation R()\n", HtSyntaxError, "expected role name, got ')'", 1, 12),
    ("x = < a ; R > : beta extra\n", HtSyntaxError,
     "unexpected 'extra' at end of declaration", 1, 22),
    ("vertex a\nrelation R(r1)\nx = < !ghost ; R >\n", UnresolvedIdentifierError,
     "anti-vertex ghost does not resolve", 3, 1),
    ("vertex a\nrelation R(r1)\nx = < ghost ; R >\nx = < a ; R >\n", DuplicateIdentifierError,
     "duplicate declaration of x (first declared as a hypersimplex)", 4, 1),
    ("relation (r1)", HtSyntaxError, "expected relation name, got '('", 1, 10),
    ("relation R r1)", HtSyntaxError, "expected '(', got 'r1'", 1, 12),
    ("relation R(r1", HtSyntaxError, "expected ')'", 1, 14),
    ("= < a ; R >", HtSyntaxError, "expected hypersimplex name, got '='", 1, 1),
    ("x = a ; R >", HtSyntaxError, "expected '<', got 'a'", 1, 5),
    ("x = < a ; >", HtSyntaxError, "expected relation name, got '>'", 1, 11),
    ("x = < a ; R", HtSyntaxError, "expected '>'", 1, 12),
    ("x = < a ; R > :", HtSyntaxError, "expected kind (alpha or beta)", 1, 16),
]


@pytest.mark.parametrize("src, kind, message, line, column", PINNED_ERRORS)
def test_error_diagnostics_are_pinned(src, kind, message, line, column):
    with pytest.raises(HypernetworkError) as err:
        parse(src)
    assert type(err.value) is kind
    assert err.value.args[0] == message
    assert err.value.span == SourceSpan(line, column)


def test_a_line_only_the_token_checks_accept_is_an_error(monkeypatch):
    pattern = text._SIMPLEX_RE.pattern
    assert pattern.count(r"(?:!\s*)?") == 2
    monkeypatch.setattr(text, "_SIMPLEX_RE", re.compile(pattern.replace(r"(?:!\s*)?", "")))
    with pytest.raises(HtSyntaxError) as err:
        parse("vertex a\nrelation R(r)\nx = < !a ; R >\n")
    assert err.value.args[0] == "declaration matches no line form"
    assert err.value.span == SourceSpan(3, 1)


def test_parse_error_carries_the_whole_report():
    src = "vertex a\nvertex a\nrelation R(r1)\nx = < ghost ; R >\n"
    with pytest.raises(DuplicateIdentifierError) as err:
        parse(src)
    assert err.value.args[0] == "duplicate declaration of a (first declared as a vertex)"
    assert err.value.span == SourceSpan(2, 8)
    assert err.value.report == validate(parse_unchecked(src))
    assert [(v.axiom, v.subject) for v in err.value.report.violations] == [
        ("A1", "a"), ("A1", "x")]


def test_rejected_long_lines_cost_linear_time():
    gap = " \t" * 20_000
    lines = [
        "x = < a," + gap + "; R",
        "x = < a ; R >" + gap + ": gamma",
        "vertex" + gap + "a b",
        "x = < " + " ,  ".join(["! a"] * 10_000) + " ; R ; t ,",
        "relation R(" + " , ".join(["r"] * 20_000),
    ]
    start = time.perf_counter()
    for line in lines:
        with pytest.raises(HtSyntaxError):
            parse(line)
    assert time.perf_counter() - start < 3.0


# -- whole-line fast path against the token-by-token parser -----------------

_WORD = re.compile(r"[A-Za-z0-9_-]+")
_SPACES = (" ", "\t", "\xa0", "\x0c", "\u2028", "\u3000", "\r")


def _fast(line):
    """The declaration the parser builds from one line and its name's column, or None."""
    try:
        h = parse_unchecked(line)
    except HtSyntaxError:
        return None
    decls = [*h.vertices, *h.relations, *h.simplices]
    if not decls:
        return None
    [(_, span)] = text._name_spans(line)
    [decl] = decls
    return decl, span.column


def _gap(rng, nonempty=False):
    return "".join(rng.choice(_SPACES) for _ in range(rng.randint(int(nonempty), 3)))


def _respace(rng, line):
    """``line`` with random whitespace runs, maybe a comment, maybe no ``: alpha``."""
    tokens = re.findall(r"[A-Za-z0-9_-]+|\S", line)
    if tokens[-2:] == [":", "alpha"] and rng.random() < 0.5:
        del tokens[-2:]
    out = [_gap(rng), tokens[0]]
    for prev, tok in zip(tokens, tokens[1:]):
        out += [_gap(rng, bool(_WORD.match(prev) and _WORD.match(tok))), tok]
    out.append(_gap(rng))
    if rng.random() < 0.3:
        out.append("# x = < a ; R > \x85 !")
    return "".join(out)


def _mutate(rng, line):
    chars = list(line)
    at = rng.randrange(len(chars))
    roll = rng.random()
    if roll < 0.4:
        del chars[at]
    elif roll < 0.8:
        chars.insert(at, rng.choice("<>();,=:!# \t\xa0aR1_-"))
    else:
        chars[at:at] = chars[at : at + rng.randint(1, 6)]
    return "".join(chars)


def _corpus_lines():
    for h in acceptance_corpus():
        yield from serialize(h).splitlines()


def test_fast_path_matches_token_path_on_corpus():
    rng = random.Random(5)
    for line in _corpus_lines():
        for variant in (line, _respace(rng, line)):
            fast = _fast(variant)
            slow = token_reference._parse_line(variant, 1)
            assert fast is not None, variant
            assert fast == slow and type(fast[0]) is type(slow[0]), variant


def _name_types(decl) -> list[type]:
    """The type of every name in a declaration: its own, and its refs, relation and tags."""
    if isinstance(decl, Hypersimplex):
        names = [decl.id, *(p.ref for p in decl.participants), decl.relation, *decl.tags]
    elif isinstance(decl, RelationSymbol):
        names = [decl.id, *decl.roles]
    else:
        names = [decl]
    return [type(n) for n in names]


def test_fast_path_and_token_path_give_names_of_one_type_on_corpus():
    rng = random.Random(5)
    for line in _corpus_lines():
        for variant in (line, _respace(rng, line)):
            fast, slow = _fast(variant), token_reference._parse_line(variant, 1)
            assert _name_types(fast[0]) == _name_types(slow[0]), variant


def test_fast_path_accepts_only_what_the_token_path_accepts():
    rng = random.Random(6)
    for line in _corpus_lines():
        mutant = _mutate(rng, _respace(rng, line) if rng.random() < 0.5 else line)
        fast = _fast(mutant)
        if fast is not None:
            slow = token_reference._parse_line(mutant, 1)
            assert fast == slow and type(fast[0]) is type(slow[0]), mutant


# -- fuzz --------------------------------------------------------------------

_FRAGMENTS = st.sampled_from([
    "vertex", "relation", "alpha", "beta", "a", "b", "x", "R", "r1", "t", "_-9",
    "<", ">", "(", ")", ";", ",", "=", ":", "!", "!", "#", "\r", "\n", "\n", "\ufeff",
    " ", " ", "\t", "\xa0", "\x0c", "\x85", "\u2028", "\u3000",
    "vertex a\n", "vertex b\n", "relation R(r1)\n", "relation S(r1, r2)\n",
    "x = < a ; R ; t >\n", "y = < !a, x ; S > : beta\n", "z=<y;R;t,u>\n",
])
_TEXT = st.lists(st.one_of(_FRAGMENTS, _FRAGMENTS, _FRAGMENTS, st.characters()),
                 max_size=40).map("".join)


@functools.cache
def _corpus_line_list():
    return list(_corpus_lines())


def _corpus_variants(seed):
    """Twenty corpus lines, each maybe respaced and mutated up to twice."""
    rng = random.Random(seed)
    lines = []
    for _ in range(20):
        line = rng.choice(_corpus_line_list())
        if rng.random() < 0.5:
            line = _respace(rng, line)
        for _ in range(rng.randint(0, 2)):
            line = _mutate(rng, line)
        lines.append(line)
    return "\n".join(lines)


@settings(derandomize=True, max_examples=800, deadline=None)
@given(st.one_of(st.lists(_FRAGMENTS, max_size=40).map("".join),
                 st.integers(min_value=0).map(_corpus_variants)))
def test_fast_path_accepts_every_line_the_token_path_accepts(source):
    for line in source.split("\n"):
        try:
            slow = token_reference._parse_line(line, 1)
        except HtSyntaxError as expected:
            # ``parse`` drops a leading BOM; TestByteOrderMark covers that line.
            if not line.startswith("\ufeff"):
                with pytest.raises(HtSyntaxError) as err:
                    parse_unchecked(line)
                assert (err.value.args[0], err.value.span) == (expected.args[0], expected.span), line
            continue
        fast = _fast(line)
        assert fast == slow, line
        if slow is not None:
            assert type(fast[0]) is type(slow[0]), line
            assert _name_types(fast[0]) == _name_types(slow[0]), line


@settings(max_examples=400, deadline=None)
@given(_TEXT)
def test_any_text_parses_to_a_fixed_point_or_raises_a_spanned_error(source):
    try:
        h = parse(source)
    except HypernetworkError as err:
        assert isinstance(err.span, SourceSpan)
        lines = source.removeprefix("\ufeff").split("\n")
        assert 1 <= err.span.line <= len(lines)
        assert 1 <= err.span.column <= len(lines[err.span.line - 1]) + 1
        return
    once = serialize(h)
    assert parse(once) == h
    assert serialize(parse(once)) == once
    assert serialize(unseeded(parse(once))) == once


# -- blocks of lines ----------------------------------------------------------

def _commented(rng, source):
    """``source`` respaced line by line, with comments and blank lines between."""
    out = []
    for line in source.splitlines():
        out.append(_respace(rng, line) if line.strip() else line)
        if rng.random() < 0.2:
            out.append(rng.choice(["", "# note", " \t# x = < a ; R >", "\r"]))
    return "\n".join(out) + "\n"


@functools.cache
def _block_texts():
    """The acceptance corpus and the fixtures as text, and some of them hand-spaced."""
    texts = [serialize(h) for h in acceptance_corpus()]
    texts += [fixture_source(k) for k in ("E1", "E2", "E3")]
    rng = random.Random(19)
    texts += [_commented(rng, t) for t in texts[:100] + texts[-3:]]
    return texts


@pytest.mark.parametrize("block", [1, 7, 64])
def test_blocks_of_any_size_parse_alike(monkeypatch, block):
    texts = _block_texts()
    expected = [parse(t) for t in texts]
    monkeypatch.setattr(text, "_BLOCK", block)
    assert [parse(t) for t in texts] == expected


# Texts at the edges of line splitting, each with the value it parses to.
EDGE_TEXTS = [
    ("", ()),
    ("\n", ()),
    ("\ufeff", ()),
    ("\ufeff\n", ()),
    ("vertex a\nvertex b", ("a", "b")),
    ("vertex a\r\n\r\nvertex b\r\n", ("a", "b")),
    ("vertex\u2028a\nvertex b\x85# c\x85vertex c\n", ("a", "b")),
    ("vertex a\u2028\x85\nvertex\x85b", ("a", "b")),
    ("\ufeffvertex a\n\n\nvertex b\n", ("a", "b")),
]


@pytest.mark.parametrize("block", [1, 2, 7, 64, None])
@pytest.mark.parametrize("src, vertices", EDGE_TEXTS)
def test_edge_texts_parse_alike_at_any_block_size(monkeypatch, block, src, vertices):
    if block is not None:
        monkeypatch.setattr(text, "_BLOCK", block)
    assert parse(src) == Hypernetwork(vertices)
    lines = [line for block_lines in text._blocks(src) for line in block_lines]
    assert lines == src.removeprefix("\ufeff").split("\n")


@pytest.mark.parametrize("block, pad", [(None, 5000), (1, 3), (7, 3)])
def test_a_defect_after_the_first_block_keeps_its_diagnostic(monkeypatch, block, pad):
    if block is not None:
        monkeypatch.setattr(text, "_BLOCK", block)
    padding = "".join(f"vertex pad{i}\n" for i in range(pad))
    assert len(padding) > text._BLOCK
    for src, kind, message, line, column in PINNED_ERRORS:
        with pytest.raises(HypernetworkError) as err:
            parse(padding + src)
        assert type(err.value) is kind, src
        assert err.value.args[0] == message, src
        assert err.value.span == SourceSpan(line + pad, column), src


# -- shared tuples and peak memory ---------------------------------------------

@pytest.mark.parametrize("block", [1, None])
def test_equal_tag_list_texts_share_one_tuple(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(text, "_BLOCK", block)
    h = parse("vertex a\nrelation R(r)\nx = < a ; R ; t, u >\n# c\ny = < a ; R ; t, u > : beta\n"
              "z = < x ; R ; t,u >\nw = < !a ; R >\nv = < ! a ; R ; u >\n")
    x, y, z, w, v = h.simplices
    assert x.tags == ("t", "u") and x.tags is y.tags
    assert z.tags == x.tags and z.tags[1] is x.tags[1] is v.tags[0]
    assert w.tags == ()
    # One object per name, whatever the spacing, and one per slot text.
    assert x.participants[0] is y.participants[0]
    assert x.participants[0].ref is h.vertices[0] is w.participants[0].ref
    assert z.participants[0].ref is x.id
    assert w.participants[0] == v.participants[0] and w.participants[0].excluded


def _seeded_text(n, seed):
    """A valid text of n hypersimplices over n/2 vertices, each with 0-2 of 50 tags."""
    rng = random.Random(seed)
    tags = [f"t{i}" for i in range(50)]
    lines = [f"vertex v{i}" for i in range(n // 2)]
    lines += [f"relation R{k}({', '.join(f'r{j}' for j in range(k))})" for k in range(1, 5)]
    for i in range(n):
        refs = [f"s{rng.randrange(i)}" if i and rng.random() < 0.3 else
                f"{'!' if rng.random() < 0.05 else ''}v{rng.randrange(n // 2)}"
                for _ in range(rng.randint(1, 4))]
        tagged = rng.sample(tags, rng.randint(0, 2))
        lines.append(f"s{i} = < {', '.join(refs)} ; R{len(refs)}"
                     f"{' ; ' + ', '.join(tagged) if tagged else ''} > : {rng.choice(['alpha', 'beta'])}")
    return "\n".join(lines) + "\n"


def test_parse_peaks_below_a_fixed_multiple_of_its_result():
    # On CPython 3.11 this read 1.64 when every line was held at once and
    # each hypersimplex had its own tag tuple, and 1.46 in blocks of lines
    # with shared tag tuples.
    src = _seeded_text(10_000, 19)
    tracemalloc.start()
    try:
        h = parse(src)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(h.simplices) == 10_000
    assert peak < 1.55 * live


# -- literal line forms ----------------------------------------------------------

def _values_and_fixtures():
    return [*acceptance_corpus(), *(parse(fixture_source(k)) for k in ("E1", "E2", "E3"))]


def test_serialize_writes_every_vertex_and_hypersimplex_in_a_literal_form():
    for h in _values_and_fixtures():
        lines = serialize(h).splitlines()
        split = len(h.vertices) + len(h.relations)
        assert len(lines) == split + len(h.simplices)
        for v, line in zip(h.vertices, lines):
            m = text._CANONICAL_RE.match(line)
            assert m is not None and m[1] == v, line
        for s, line in zip(h.simplices, lines[split:]):
            m = text._CANONICAL_RE.match(line)
            assert m is not None and m[2] == s.id, line


@pytest.mark.parametrize("block", [1, None])
def test_canonical_text_is_read_through_the_literal_forms_alone(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(text, "_BLOCK", block)
    never = re.compile(r"(?!)")
    monkeypatch.setattr(text, "_SIMPLEX_RE", never)
    monkeypatch.setattr(text, "_VERTEX_RE", never)
    for h in _values_and_fixtures():
        assert parse_unchecked(serialize(h)) == h


def _assert_interned(h, src):
    """One object per name of ``h``, and one per slot text and tag-list text of ``src``."""
    found = [m for line in src.split("\n") if (m := text._SIMPLEX_RE.match(line))]
    assert len(found) == len(h.simplices)
    names, slots, tag_lists = {}, {}, {}
    for s, m in zip(h.simplices, found):
        for p, slot in zip(s.participants, [r.strip() for r in m[2].split(",")], strict=True):
            assert slots.setdefault(slot, p) is p, slot
        assert tag_lists.setdefault(m[4], s.tags) is s.tags, m[4]
        for name in (s.id, s.relation, *(p.ref for p in s.participants), *s.tags):
            assert names.setdefault(name, name) is name, name
    for name in (*h.vertices, *(r.id for r in h.relations)):
        assert names.setdefault(name, name) is name, name


def _half_respaced(rng, src):
    """``src`` with every other line respaced, so that the two line forms alternate."""
    lines = src.splitlines()
    return "".join((_respace(rng, line) if i % 2 else line) + "\n" for i, line in enumerate(lines))


@pytest.mark.parametrize("block", [1, None])
def test_both_line_forms_share_one_table_of_names_slots_and_tag_lists(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(text, "_BLOCK", block)
    rng = random.Random(28)
    sources = [serialize(h) for h in _values_and_fixtures()]
    sources.append(_seeded_text(2_000, 28))
    for src in sources:
        mixed = _half_respaced(rng, src)
        h, h_mixed = parse_unchecked(src), parse_unchecked(mixed)
        assert h_mixed == h
        _assert_interned(h, src)
        _assert_interned(h_mixed, mixed)


def test_rejected_near_canonical_lines_cost_linear_time():
    refs = ", ".join(["a"] * 20_000)
    lines = [
        "x = < " + refs + " ; R",
        "x = < " + refs + ", ; R > : alpha",
        "x = < a ; R ; " + refs + " > : gamma",
        "x = < a ; R ; " + refs + " > : alpha x",
        "vertex " + "a" * 40_000 + " b",
    ]
    start = time.perf_counter()
    for line in lines:
        with pytest.raises(HtSyntaxError):
            parse(line)
    assert time.perf_counter() - start < 3.0


# -- canonical text handed to its value ---------------------------------------------

@functools.cache
def _htgen():
    """The benchmark's seeded generator, which writes ``.ht`` text without the library."""
    sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import htgen

    return htgen


@functools.cache
def _canonical_texts():
    """Texts spelled exactly as ``serialize`` writes them, one of them longer than a block."""
    texts = ["", *(fixture_source(k) for k in ("E1", "E2", "E3"))]
    texts += [serialize(h) for h in acceptance_corpus()]
    htgen = _htgen()
    texts += [htgen.document(random.Random(seed), n).text for seed, n in ((29, 10), (30, 300), (31, 3000))]
    return texts


def _handed_over(src, parser=parse):
    """Whether ``serialize(parser(src))`` is ``src`` itself; either way it is the serializer's text."""
    h = parser(src)
    copied = copy.deepcopy(h)
    out = serialize(h)
    assert out == serialize(unseeded(h)) == serialize(copied)
    return out is src


@pytest.mark.parametrize("block", [1, None])
def test_a_canonical_text_is_handed_to_its_value(monkeypatch, block):
    texts = _canonical_texts()
    assert len(texts[-1]) > text._BLOCK
    if block is not None:
        monkeypatch.setattr(text, "_BLOCK", block)
    for src in texts:
        assert _handed_over(src), src[:200]
        assert _handed_over(src, parse_unchecked), src[:200]


def _joined(lines):
    return "".join(line + "\n" for line in lines)


def _moved(lines, start, to):
    """``lines`` with the line at ``start`` moved to position ``to`` of the rest."""
    rest = lines[:start] + lines[start + 1:]
    return _joined(rest[:to] + [lines[start]] + rest[to:])


class _Text(str):
    pass


def _variants(src):
    """Near-canonical texts made from ``src``, each of which ``serialize`` would not write."""
    lines = src.splitlines()
    first_relation = next(i for i, line in enumerate(lines) if line.startswith("relation "))
    first_simplex = next(i for i, line in enumerate(lines) if " = < " in line)
    relation = lines[first_relation]
    return {
        "byte-order-mark": ["\ufeff" + src],
        "crlf": [src.replace("\n", "\r\n")],
        "omitted-alpha": [src.replace(" : alpha\n", "\n", 1)],
        "blank-line": [_joined(lines[:i] + [""] + lines[i:]) for i in range(len(lines))],
        "comment-line": [_joined(lines[:i] + ["# note"] + lines[i:]) for i in range(len(lines) + 1)],
        "extra-final-newline": [src + "\n"],
        "no-final-newline": [src[:-1]],
        "blank-line-for-the-final-newline": [_joined(lines[:i] + [""] + lines[i:])[:-1]
                                             for i in range(1, len(lines))],
        "vertex-after-a-relation": [_moved(lines, 0, first_relation)],
        "vertex-after-a-hypersimplex": [_moved(lines, first_relation - 1, len(lines) - 1),
                                        _moved(lines, 0, first_simplex)],
        "relation-after-a-hypersimplex": [_moved(lines, first_simplex - 1, len(lines) - 1),
                                          _moved(lines, first_relation, first_simplex)],
        "respaced-relation": [src.replace(relation, variant) for variant in (
            relation.replace("(", " ("), relation.replace(", ", ","), relation.replace(" ", "  ", 1),
            relation + " ", relation.replace(")", " )"), relation.replace("(", "( "))],
        "str-subclass": [_Text(src)],
        "non-literal-vertex": [_joined(lines[:i] + [lines[i].replace(" ", "  ")] + lines[i + 1:])
                               for i in (0, first_relation - 1)],
        "non-literal-hypersimplex": [_joined(lines[:i] + [lines[i].replace(" = <", " =<")] + lines[i + 1:])
                                     for i in (first_simplex, len(lines) - 1)],
    }


_VARIANT_NAMES = list(_variants(fixture_source("E2")))


@pytest.mark.parametrize("block", [1, None])
@pytest.mark.parametrize("case", _VARIANT_NAMES)
def test_a_text_serialize_would_not_write_stays_with_the_caller(monkeypatch, case, block):
    if block is not None:
        monkeypatch.setattr(text, "_BLOCK", block)
    for src in (fixture_source(k) for k in ("E1", "E2", "E3")):
        variants = _variants(src)[case]
        assert variants and all(v != src or type(v) is not str for v in variants)
        for variant in variants:
            assert not _handed_over(variant), variant
            assert not _handed_over(variant, parse_unchecked), variant
