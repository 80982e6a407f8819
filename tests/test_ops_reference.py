"""The structural operators against their earlier, slower code.

The reference below is the kernel as it stood before unchanged
hypersimplices were shared and the kind check was filtered: it rebuilds
every declaration-kind table and copies every hypersimplex it touches. It
is kept verbatim as the slow reference. The operators must agree with it
exactly, on valid and on invalid values: equal results with the same
declaration order, tag order and value types, or the same error with the
same message.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Iterable, Iterator

import pytest

from hyperscope import (
    HypernetworkError,
    Hypernetwork,
    Hypersimplex,
    Identifier,
    IdentityConflictError,
    Participant,
    RelationSymbol,
    ops,
    project,
)
from hyperscope.model import declaration_kinds, descendants, require_declared

from gen import (
    TWO_CONFLICTS,
    VERTEX_AND_SIMPLEX,
    acceptance_corpus,
    compatible_pair,
    compatible_triple,
    fixtures,
    invalid_values,
    kind_mutants,
    net,
    sim,
)


# --- the slow reference, verbatim ------------------------------------------

def _assemble(h: Hypernetwork, sims: Iterable[Hypersimplex],
              extra_vertices: Iterable[str] = ()) -> Hypernetwork:
    """Self-contained hypernetwork over ``sims``, declarations drawn from ``h``.

    Keeps exactly the vertex and relation declarations the simplices
    reference (plus the vertices of ``h`` that ``extra_vertices`` names), in
    ``h``'s order; references to hypersimplices of ``h`` that are not among
    ``sims`` are demoted to vertex declarations so they still resolve.
    """
    sims = tuple(sims)
    refs: set[str] = set()
    rel_refs: set[str] = set()
    for s in sims:
        rel_refs.add(s.relation)
        refs.update(p.ref for p in s.participants)

    extra = set(extra_vertices)
    vertices = [v for v in h.vertices if v in refs or v in extra]
    declared = set(vertices) | {s.id for s in sims}
    demoted = [s.id for s in h.simplices if s.id in refs and s.id not in declared]
    relations = tuple(r for r in h.relations if r.id in rel_refs)
    return Hypernetwork(tuple(vertices) + tuple(demoted), relations, sims)


def _declaration_kinds(h: Hypernetwork) -> dict[str, str]:
    kinds: dict[str, str] = {}
    for v in h.vertices:
        kinds.setdefault(v, "vertex")
    for r in h.relations:
        kinds.setdefault(r.id, "relation")
    for s in h.simplices:
        kinds.setdefault(s.id, "hypersimplex")
    return kinds


def _paired(h1: Hypernetwork, h2: Hypernetwork) -> Iterator[tuple[Hypersimplex, Hypersimplex | None]]:
    """Each hypersimplex of ``h1`` with ``h2``'s of the same id, or None.

    Rejects same-identifier declarations with different content, checked as
    iteration runs, kinds and relations before the first pair. Identity is
    global: one name may not stand for a vertex on one side and a
    hypersimplex on the other, nor for two different relation symbols, and
    a hypersimplex named in both must be structurally equal (tags aside).
    """
    k1 = _declaration_kinds(h1)
    k2 = _declaration_kinds(h2)
    for name, kind in k1.items():
        other = k2.get(name)
        if other is not None and other != kind:
            raise IdentityConflictError(f"{name} is a {kind} in one input and a {other} in the other")
    rel2 = {r.id: r for r in h2.relations}
    for r in h1.relations:
        other = rel2.get(r.id)
        if other is not None and other != r:
            raise IdentityConflictError(f"relation {r.id} declared with different roles")
    sims2 = {s.id: s for s in h2.simplices}
    for s in h1.simplices:
        t = sims2.get(s.id)
        if t is not None and not s.structurally_equal(t):
            raise IdentityConflictError(f"hypersimplex {s.id} has different content in the two inputs")
        yield s, t


def merge(h1: Hypernetwork, h2: Hypernetwork) -> Hypernetwork:
    """Identity-keyed union.

    Result order is all of ``h1``'s declarations, then ``h2``'s that are
    new. A hypersimplex named in both must be structurally equal (tags
    aside) and carries the union of both tag sets, ``h1``'s tag order
    first; shared vertices and relations must be identical.
    """
    v1 = set(h1.vertices)
    vertices = tuple(h1.vertices) + tuple(v for v in h2.vertices if v not in v1)
    rel1 = {r.id for r in h1.relations}
    relations = tuple(h1.relations) + tuple(r for r in h2.relations if r.id not in rel1)

    out = []
    for s, t in _paired(h1, h2):
        if t is not None:
            own = set(s.tags)
            s = replace(s, tags=s.tags + tuple(x for x in t.tags if x not in own))
        out.append(s)
    ids1 = h1.simplex_ids()
    out += [t for t in h2.simplices if t.id not in ids1]
    return Hypernetwork(vertices, relations, tuple(out))


def meet(h1: Hypernetwork, h2: Hypernetwork) -> Hypernetwork:
    """Identity-keyed intersection.

    Keeps the hypersimplices named in both inputs (which must agree
    structurally, tags aside) with the intersection of their tag sets, plus
    the declarations the survivors reference. Order follows ``h1``.
    """
    survivors: list[Hypersimplex] = []
    for s, t in _paired(h1, h2):
        if t is not None:
            other_tags = set(t.tags)
            survivors.append(replace(s, tags=tuple(x for x in s.tags if x in other_tags)))
    return _assemble(h1, survivors)


def difference(h1: Hypernetwork, h2: Hypernetwork) -> Hypernetwork:
    """Hypersimplices of ``h1`` whose identity ``h2`` does not name.

    Tags and order come from ``h1``; declarations are restricted to what
    the surviving content references.
    """
    ids2 = h2.simplex_ids()
    survivors = [s for s in h1.simplices if s.id not in ids2]
    return _assemble(h1, survivors)


def prune(h: Hypernetwork, s: Iterable[str]) -> Hypernetwork:
    """Remove the named elements, recording explicit exclusion.

    Hypersimplices named in ``s`` are removed; in every remaining
    hypersimplex a Present reference to a member of ``s`` becomes an
    anti-vertex, preserving arity. Declarations are retained: vertex
    members of ``s`` keep their declaration, and removed hypersimplices
    leave a vertex declaration behind, so every anti-vertex resolves.
    """
    wanted = set(s)
    require_declared(h, wanted)

    out: list[Hypersimplex] = []
    for sim in h.simplices:
        if sim.id in wanted:
            continue
        if any(p.ref in wanted for p in sim.participants):
            parts = tuple(
                Participant(p.ref, excluded=p.excluded or p.ref in wanted)
                for p in sim.participants
            )
            out.append(replace(sim, participants=parts))
        else:
            out.append(sim)

    demoted = tuple(sim.id for sim in h.simplices if sim.id in wanted)
    return Hypernetwork(h.vertices + demoted, h.relations, tuple(out))


def split(h: Hypernetwork, c: Iterable[str]) -> Hypernetwork:
    """Sub-hypernetwork generated by ``c``: downward closure within ``h``.

    Contains every hypersimplex reachable downward from ``c`` plus the
    vertices and relation symbols that content references. Nothing outside
    ``h`` can enter, and the closure never escapes upward or sideways.
    """
    seeds = set(c)
    closure = descendants(h, seeds)
    kept = [s for s in h.simplices if s.id in closure]
    return _assemble(h, kept, extra_vertices=seeds)


REFERENCE = {
    "merge": merge,
    "meet": meet,
    "difference": difference,
    "prune": prune,
    "split": split,
}
BINARY = ("merge", "meet", "difference")


# --- comparison ------------------------------------------------------------

def typed(h: Hypernetwork) -> tuple:
    """Every field of ``h`` in order, each name paired with its type."""
    def name(x):
        return type(x), x

    return (
        tuple(map(name, h.vertices)),
        tuple((name(r.id), r.roles) for r in h.relations),
        tuple(
            (name(s.id), tuple((name(p.ref), p.excluded) for p in s.participants),
             name(s.relation), s.kind, tuple(map(name, s.tags)))
            for s in h.simplices
        ),
    )


def outcome(fn, *args) -> tuple:
    """``(None, result in typed form)``, or ``(error class, message)``."""
    try:
        return None, typed(fn(*args))
    except HypernetworkError as exc:
        return type(exc), str(exc)


def differences(cases) -> list:
    """The ``(op, args)`` cases on which the operators and the reference disagree."""
    out = []
    for op, args in cases:
        want = outcome(REFERENCE[op], *args)
        got = outcome(getattr(ops, op), *args)
        if got != want:
            out.append((op, args, want, got))
    return out


def binary_cases(pairs):
    for h1, h2 in pairs:
        for op in BINARY:
            yield op, (h1, h2)


def unary_cases(nets, rng):
    """Prune and split each network by every single name, a sample and bad names."""
    for h in nets:
        names = list(h.vertices) + [s.id for s in h.simplices]
        groups = [[n] for n in names] + [[], ["ghost"], ["a b"]]
        if names:
            groups.append(rng.sample(names, rng.randint(1, len(names))))
            groups.append([rng.choice(names), "ghost"])
        for group in groups:
            yield "prune", (h, group)
            yield "split", (h, group)


# --- one hand-built value per branch of split --------------------------------

R2 = RelationSymbol(Identifier("R2"), ("r1", "r2"))


def pair(name: str, first: str, second: str, *tags: str) -> Hypersimplex:
    """A hypersimplex of ``R2`` over two names, each ``x`` or the anti-vertex ``!x``."""
    parts = tuple(Participant(Identifier(r.lstrip("!")), r.startswith("!")) for r in (first, second))
    return Hypersimplex(Identifier(name), parts, R2.id, tags=tuple(map(Identifier, tags)))


# name: (value, seeds, the split's vertex declarations, its hypersimplex ids)
SPLIT_BRANCHES = {
    "an anti-vertex outside the view names a hypersimplex, which is demoted": (
        net(("a", "b"), (R2,), (pair("s", "a", "a"), pair("t", "!b", "!s", "p"),
                                pair("u", "t", "a", "q"))),
        ["t"], ("b", "s"), ("t",)),
    "the same, with that id declared twice, so each declaration is demoted": (
        net(("a", "b"), (R2,), (pair("s", "a", "a"), pair("t", "!b", "!s", "p"),
                                pair("s", "a", "a", "q"))),
        ["t"], ("b", "s", "s"), ("t",)),
    "a vertex declared twice": (
        net(("a", "b", "a"), simplices=(sim("s", "a", "p"), sim("t", "b", "q"))),
        ["s"], ("a", "a"), ("s",)),
    "a name declared as a vertex and as a hypersimplex": (
        net(("a", "x"), simplices=(sim("x", "a", "p"), sim("y", "x", "q", excluded=True),
                                   sim("z", "x", "r"))),
        ["y"], ("x",), ("y",)),
    "a seed that is an unreferenced vertex": (
        net(("a", "w"), simplices=(sim("s", "a", "p"),)),
        ["w", "s"], ("a", "w"), ("s",)),
    "a view the walk reaches out of declaration order": (
        net(relations=(R2,), simplices=(sim("s0", "a", relation="R2"), pair("s1", "s0", "a"),
                                        pair("s2", "s0", "s1", "p"), pair("s3", "a", "s2", "p"))),
        ["s3"], ("a",), ("s0", "s1", "s2", "s3")),
}


# --- the tests -------------------------------------------------------------

def test_the_kind_table_is_the_reference_table_in_order():
    for h in acceptance_corpus() + fixtures() + invalid_values():
        assert list(declaration_kinds(h).items()) == list(_declaration_kinds(h).items())


def test_compatible_pairs_and_triples():
    pairs = []
    for seed in range(300):
        rng = random.Random(seed)
        h1, h2 = compatible_pair(rng, Identifier("b0") if seed % 3 == 0 else None)
        pairs += [(h1, h2), (h2, h1), (h1, h1)]
    for seed in range(100):
        triple = compatible_triple(random.Random(seed))
        pairs += [(a, b) for a in triple for b in triple]
    assert differences(binary_cases(pairs)) == []


def test_every_ordered_pair_of_the_fixtures_and_a_corpus_slice():
    nets = fixtures() + acceptance_corpus()[:100]
    assert differences(binary_cases((a, b) for a in nets for b in nets)) == []


def test_each_corpus_value_with_itself_and_its_neighbours():
    corpus = acceptance_corpus()
    pairs = [(h, h) for h in corpus]
    pairs += [(h, corpus[i - 1]) for i, h in enumerate(corpus)]
    pairs += [(corpus[i - 1], h) for i, h in enumerate(corpus)]
    assert differences(binary_cases(pairs)) == []


def test_kind_mutants_of_the_corpus():
    corpus = acceptance_corpus()[:200]
    pairs = []
    for i, h in enumerate(corpus):
        for m in kind_mutants(h):
            pairs += [(h, m), (m, h), (m, m), (m, corpus[i - 1]), (corpus[i - 1], m)]
    cases = list(binary_cases(pairs))
    assert differences(cases) == []
    kind_conflicts = sum(" in one input and a " in str(outcome(getattr(ops, op), *args)[1])
                         for op, args in cases)
    assert kind_conflicts > len(cases) // 4


def test_invalid_values_with_each_other_and_the_fixtures():
    nets = invalid_values() + fixtures() + acceptance_corpus()[:20]
    assert differences(binary_cases((a, b) for a in nets for b in nets)) == []


def test_prune_and_split():
    rng = random.Random(8)
    nets = fixtures() + invalid_values() + acceptance_corpus()
    assert differences(unary_cases(nets, rng)) == []


@pytest.mark.parametrize("case", SPLIT_BRANCHES)
def test_split_and_project_on_each_branch_of_split(case):
    h, seeds, vertices, ids = SPLIT_BRANCHES[case]
    got = ops.split(h, seeds)
    assert (got.vertices, tuple(s.id for s in got.simplices)) == (vertices, ids)
    assert differences(unary_cases([h], random.Random(12))) == []
    for b in (*h.tag_universe(), "unknown"):
        roots = [s.id for s in h.simplices if b in s.tags]
        assert outcome(lambda h, b: project(h, b).content, h, b) == outcome(split, h, roots)


def test_a_name_in_two_namespaces_without_a_kind_conflict():
    h1, h2 = VERTEX_AND_SIMPLEX
    assert "x" in h1.vertices and h1.simplex("x") is not None
    for op in BINARY:
        got = outcome(getattr(ops, op), h1, h2)
        assert got[0] is None
        assert got == outcome(REFERENCE[op], h1, h2)
    assert ops.merge(h1, h2).simplices[1].tags == ("q", "r")


@pytest.mark.parametrize("op", ["merge", "meet"])
def test_the_first_conflict_in_h1_order_is_named(op):
    h1, h2 = TWO_CONFLICTS
    message = "z is a vertex in one input and a hypersimplex in the other"
    with pytest.raises(IdentityConflictError) as exc:
        getattr(ops, op)(h1, h2)
    assert str(exc.value) == message
    assert outcome(REFERENCE[op], h1, h2) == (IdentityConflictError, message)


def test_kinds_are_compared_only_where_the_namespaces_meet(monkeypatch):
    corpus = acceptance_corpus()[:100]
    # Namespaces that meet without a conflict across the inputs: a value with
    # itself when it declares a name twice, and h1 of VERTEX_AND_SIMPLEX.
    meeting = [(h, h) for h in invalid_values()] + [(m, m) for h in corpus for m in kind_mutants(h)]
    meeting += [VERTEX_AND_SIMPLEX, VERTEX_AND_SIMPLEX[::-1]]
    apart = [compatible_pair(random.Random(seed)) for seed in range(50)] + [(h, h) for h in corpus]
    calls = []
    real = ops.declaration_kinds
    monkeypatch.setattr(ops, "declaration_kinds", lambda h: calls.append(h) or real(h))
    met = 0
    for h1, h2 in meeting + apart:
        disjoint = ops._apart(h1, h2, h2._at, {r.id: r for r in h2.relations})
        met += not disjoint
        for op in ("merge", "meet"):
            calls.clear()
            got = outcome(getattr(ops, op), h1, h2)
            assert got == outcome(REFERENCE[op], h1, h2)
            assert " in one input and a " not in str(got[1])
            assert len(calls) == (0 if disjoint else 2)
    assert met > len(meeting) * 3 // 4
    assert all(ops._apart(h1, h2, h2._at, {r.id: r for r in h2.relations}) for h1, h2 in apart)
