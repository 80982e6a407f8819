"""The five structural operators: merge, meet, difference, prune, split.

All five are deterministic, identity-keyed, tag-transparent pure functions:
they key on identifiers, never consult boundary tags when deciding
structure, carry tags along per operator (merge unions, meet intersects,
the rest copy from their left or sole source), and preserve the inputs'
declaration order. Inputs are assumed valid; every operator returns a valid
hypernetwork.

Removal semantics need one care: when a hypersimplex disappears (prune of
its id, difference against a network that also names it) but something that
survives still references it, the result keeps a plain vertex declaration
under that name so the reference, or the anti-vertex prune put in its
place, still resolves and arity is preserved.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Iterator

from .errors import IdentityConflictError
from .model import (
    Hypernetwork,
    Hypersimplex,
    Participant,
    descendants,
    require_declared,
)


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

    out = [s if t is None else replace(s, tags=s.tags + tuple(x for x in t.tags if x not in s.tags))
           for s, t in _paired(h1, h2)]
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


# The binary operators by name, for the scoped layer and the CLI.
BINARY: dict[str, Callable[[Hypernetwork, Hypernetwork], Hypernetwork]] = {
    "merge": merge,
    "meet": meet,
    "difference": difference,
}
