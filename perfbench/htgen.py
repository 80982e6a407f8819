"""Seeded generator of ``.ht`` corpora for the benchmark.

The generator writes ``.ht`` text itself, so everything a check compares
against (the canonical text, its SHA-256, the declared ids) comes from here
and never from the library under test.

A network is held as plain data (:class:`Net`): vertex names, relation
``(id, roles)`` pairs and simplices ``(id, parts, relation, kind, tags)``
where ``parts`` is a tuple of ``(ref, excluded)`` pairs. Declaration order is
the order of these tuples, which is also the order a parser stores.

Shape of a generated network (the ROADMAP baseline): n hypersimplices over
n/2 vertices, arity 1-4, 30% of references nest into the 50 previous
hypersimplices, 5% of references are anti-vertices, 20% of simplices are
beta, and each simplex carries 0-2 tags of a 50-tag universe.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass

NEST = 0.3
WINDOW = 50
EXCLUDE = 0.05
BETA = 0.2

RELATIONS = tuple(
    (f"R{k}", tuple(f"r{j + 1}" for j in range(1 + k % 4))) for k in range(8)
)
TAGS = tuple(f"b{k}" for k in range(50))

DEFECTS = ("duplicate", "unresolved", "arity", "syntax")


@dataclass(frozen=True)
class Net:
    vertices: tuple
    relations: tuple
    sims: tuple


def grow(rng: random.Random, names, vertices, relations=RELATIONS, tags=TAGS,
         earlier=(), exclude_nested=True) -> list:
    """Simplices named ``names``; each may nest into the 50 simplices before it.

    ``earlier`` names simplices declared before these that may be nested
    into as well. References only point backwards, so containment is
    acyclic. With ``exclude_nested`` false, only vertex references are ever
    anti-vertices.
    """
    known = list(earlier)
    sims = []
    for sid in names:
        rid, roles = rng.choice(relations)
        parts = []
        for _ in roles:
            if known and rng.random() < NEST:
                ref = known[-1 - rng.randrange(min(WINDOW, len(known)))]
                excluded = exclude_nested and rng.random() < EXCLUDE
            else:
                ref = rng.choice(vertices)
                excluded = rng.random() < EXCLUDE
            parts.append((ref, excluded))
        kind = "beta" if rng.random() < BETA else "alpha"
        sims.append((sid, tuple(parts), rid, kind, tuple(rng.sample(tags, rng.randrange(3)))))
        known.append(sid)
    return sims


def network(rng: random.Random, n: int, tags=TAGS) -> Net:
    vertices = tuple(f"v{i}" for i in range(max(1, n // 2)))
    sims = grow(rng, [f"s{i}" for i in range(n)], vertices, tags=tags)
    return Net(vertices, RELATIONS, tuple(sims))


def pair(rng: random.Random, n_core: int, n_own: int, tags=TAGS) -> tuple[Net, Net]:
    """Two compatible networks sharing a core of ``n_core`` simplices.

    Shared simplices are structurally identical on both sides and carry
    independently drawn tags; each side adds ``n_own`` private simplices
    that may nest into the core. Both declare the same vertices and
    relations, and anti-vertices name vertices only, so no projection
    demotes a simplex to a vertex: merge and meet never meet an identity
    conflict, scoped or not.
    """
    vertices = tuple(f"v{i}" for i in range(max(1, (n_core + n_own) // 2)))
    core = grow(rng, [f"s{i}" for i in range(n_core)], vertices, tags=tags,
                exclude_nested=False)
    core_ids = [s[0] for s in core]

    def side(prefix: str) -> Net:
        retagged = [s[:4] + (tuple(rng.sample(tags, rng.randrange(3))),) for s in core]
        own = grow(rng, [f"{prefix}{i}" for i in range(n_own)], vertices, tags=tags,
                   earlier=core_ids, exclude_nested=False)
        return Net(vertices, RELATIONS, tuple(retagged + own))

    return side("p"), side("q")


# -- canonical text ---------------------------------------------------------

def vertex_line(v: str) -> str:
    return f"vertex {v}"


def relation_line(rel) -> str:
    rid, roles = rel
    return f"relation {rid}({', '.join(roles)})"


def simplex_line(sim) -> str:
    sid, parts, rel, kind, tags = sim
    body = ", ".join(("!" + ref) if excluded else ref for ref, excluded in parts)
    if tags:
        return f"{sid} = < {body} ; {rel} ; {', '.join(tags)} > : {kind}"
    return f"{sid} = < {body} ; {rel} > : {kind}"


def canonical(net: Net) -> str:
    lines = [vertex_line(v) for v in net.vertices]
    lines += [relation_line(r) for r in net.relations]
    lines += [simplex_line(s) for s in net.sims]
    return "".join(line + "\n" for line in lines)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_SIMPLEX_RE = re.compile(r"(\S+) = < (.*?) ; (\S+?)(?: ; (.*?))? > : (alpha|beta)")
_RELATION_RE = re.compile(r"relation (\S+?)\((.*)\)")


def read_canonical(text: str) -> Net:
    """Plain network of canonical ``.ht`` text (the bundled fixtures).

    Accepts only the exact canonical line forms; anything else is a
    ValueError, so a fixture that stops being canonical is noticed.
    """
    vertices, relations, sims = [], [], []
    for line in text.splitlines():
        if line.startswith("vertex "):
            vertices.append(line[len("vertex "):])
        elif m := _RELATION_RE.fullmatch(line):
            relations.append((m[1], tuple(m[2].split(", "))))
        elif m := _SIMPLEX_RE.fullmatch(line):
            parts = tuple((p.lstrip("!"), p.startswith("!")) for p in m[2].split(", "))
            tags = tuple(m[4].split(", ")) if m[4] else ()
            sims.append((m[1], parts, m[3], m[5], tags))
        else:
            raise ValueError(f"not a canonical .ht line: {line!r}")
    return Net(tuple(vertices), tuple(relations), tuple(sims))


# -- hand-written text ------------------------------------------------------

_PAD = ("", " ", "  ", "\t")
_INDENT = ("", "", "  ", "\t")
_GAP = (" ", "  ", "\t")
_WORDS = ("todo", "see fig. 3", "shared unit", "from the 2019 survey", "checked")


def _comment(rng: random.Random, w: str) -> str:
    return f"{w}# {rng.choice(_WORDS)}" if rng.random() < 0.2 else ""


def _hand_vertex(rng: random.Random, v: str) -> tuple[str, int]:
    indent, gap = rng.choice(_INDENT), rng.choice(_GAP)
    head = f"{indent}vertex{gap}"
    return head + v + _comment(rng, " "), len(head) + 1


def _hand_relation(rng: random.Random, rel) -> tuple[str, int]:
    rid, roles = rel
    indent, gap, w = rng.choice(_INDENT), rng.choice(_GAP), rng.choice(_PAD)
    head = f"{indent}relation{gap}"
    return f"{head}{rid}{w}({w}{f'{w},{w}'.join(roles)}{w})", len(head) + 1


def _hand_simplex(rng: random.Random, sim) -> tuple[str, int]:
    """Free spacing, optional comment, ``: alpha`` omitted most of the time.

    An empty tag set has no tag segment, as in canonical text.
    """
    sid, parts, rel, kind, tags = sim
    indent, w = rng.choice(_INDENT), rng.choice(_PAD)
    sep = f"{w},{w}"
    body = sep.join(("!" + ref) if excluded else ref for ref, excluded in parts)
    tag_seg = f"{w};{w}{sep.join(tags)}" if tags else ""
    kind_seg = "" if kind == "alpha" and rng.random() < 0.7 else f"{w}:{w}{kind}"
    line = f"{indent}{sid}{w}={w}<{w}{body}{w};{w}{rel}{tag_seg}{w}>{kind_seg}"
    return line + _comment(rng, w or " "), len(indent) + 1


def _forward(rng: random.Random, sims: list) -> list:
    """Reverse half of the blocks of four, so some references point forward."""
    out = []
    for at in range(0, len(sims), 4):
        block = sims[at:at + 4]
        out += block[::-1] if rng.random() < 0.5 else block
    return out


# -- documents --------------------------------------------------------------

@dataclass(frozen=True)
class Doc:
    """One generated ``.ht`` document and what each pipeline must return.

    ``error`` is ``(exception class name, line, column)`` for a document
    ``parse`` must reject; ``violations`` is the ``(axiom, subject)`` list
    ``validate`` must report after ``parse_unchecked``, or None when
    ``parse_unchecked`` itself must raise ``error``.
    """

    text: str
    canonical: str
    sha: str
    style: str
    wide: bool
    defect: str | None
    error: tuple | None
    violations: tuple | None
    decls: int
    canonical_lines: int


def document(rng: random.Random, n: int, style: str = "canonical", hub_width: int = 0,
             defect: str | None = None) -> Doc:
    """A document of ``n`` hypersimplices, optionally with a wide hub or a defect.

    ``style`` is "canonical" or "handwritten". Hand-written documents use
    free spacing and comments, omit ``: alpha``, declare relations last and
    vertices between the simplices that use them, and reference some
    simplices before declaring them. A hub is one extra simplex over
    ``hub_width`` distinct nested simplices, the worst case for a
    containment check that is quadratic in width.
    """
    vertices = tuple(f"v{i}" for i in range(max(1, n // 2)))
    sims = grow(rng, [f"s{i}" for i in range(n)], vertices)
    relations = RELATIONS
    if hub_width:
        relations += (("R_hub", tuple(f"r{i + 1}" for i in range(hub_width))),)
        kids = rng.sample([s[0] for s in sims], hub_width)
        sims.append(("hub", tuple((k, False) for k in kids), "R_hub", "alpha", (TAGS[0],)))

    if style == "canonical":
        net = Net(vertices, relations, tuple(sims))
        entries = [(vertex_line(v), v, 1) for v in vertices]
        entries += [(relation_line(r), r[0], 1) for r in relations]
        entries += [(simplex_line(s), s[0], 1) for s in sims]
    else:
        net = Net(vertices, relations, tuple(_forward(rng, sims)))
        entries = []
        pending = list(vertices)[::-1]
        for s in net.sims:
            while pending and rng.random() < 0.5:
                v = pending.pop()
                line, col = _hand_vertex(rng, v)
                entries.append((line, v, col))
            if rng.random() < 0.03:
                entries.append((rng.choice(("", "# ---", "   ")), None, 0))
            line, col = _hand_simplex(rng, s)
            entries.append((line, s[0], col))
        for v in pending[::-1]:
            line, col = _hand_vertex(rng, v)
            entries.append((line, v, col))
        for r in relations:
            line, col = _hand_relation(rng, r)
            entries.append((line, r[0], col))

    error = violations = None
    if defect is not None:
        error, violations = _inject(rng, entries, net, defect)

    text = "".join(e[0] + "\n" for e in entries)
    canon = canonical(net)
    canon_set = set(canon.splitlines())
    decl_lines = [e[0] for e in entries if e[1] is not None]
    return Doc(
        text=text,
        canonical=canon,
        sha=sha256(canon),
        style=style,
        wide=bool(hub_width),
        defect=defect,
        error=error,
        violations=violations,
        decls=len(decl_lines),
        canonical_lines=sum(line in canon_set for line in decl_lines),
    )


def _inject(rng: random.Random, entries: list, net: Net, defect: str):
    """Put one defect into ``entries`` in place; return what must be raised."""
    if defect == "duplicate":
        vertices = set(net.vertices)
        first = rng.choice([i for i, e in enumerate(entries) if e[1] in vertices])
        v = entries[first][1]
        at = rng.randint(first + 1, len(entries))
        entries.insert(at, (vertex_line(v), v, 1))
        return ("DuplicateIdentifierError", at + 1, len("vertex ") + 1), (("A1", v),)

    by_id = {s[0]: s for s in net.sims if s[0] != "hub"}
    at = rng.choice([i for i, e in enumerate(entries) if e[1] in by_id
                     and any(not ex for _, ex in by_id[e[1]][1])])
    sid, parts, rel, kind, tags = by_id[entries[at][1]]
    if defect == "unresolved":
        slot = next(j for j, (_, ex) in enumerate(parts) if not ex)
        parts = parts[:slot] + (("ghost", False),) + parts[slot + 1:]
        error, violations = ("UnresolvedIdentifierError", at + 1, 1), (("A1", sid),)
    elif defect == "arity":
        parts = parts + ((net.vertices[0], False),)
        error, violations = ("ArityError", at + 1, 1), (("A4", sid),)
    elif defect == "syntax":
        line = simplex_line((sid, parts, rel, kind, tags)).replace(" ; ", " @ ; ", 1)
        entries[at] = (line, sid, 1)
        return ("HtSyntaxError", at + 1, line.index("@") + 1), None
    else:
        raise ValueError(f"unknown defect {defect!r}")
    entries[at] = (simplex_line((sid, parts, rel, kind, tags)), sid, 1)
    return error, violations
