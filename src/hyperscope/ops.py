"""The five structural operators: merge, meet, difference, prune, split.

All five are deterministic, identity-keyed, tag-transparent pure functions:
they key on identifiers, never consult boundary tags when deciding
structure, carry tags along per operator (merge unions, meet intersects,
the rest copy from their left or sole source), and preserve the inputs'
declaration order. Inputs are assumed valid; every operator returns a valid
hypernetwork.

Removal semantics need one care: when a hypersimplex disappears (prune of
its id, difference against a network that also names it) but a survivor
still references it, the result demotes it to a plain vertex declaration,
so the reference, or the anti-vertex prune put in its place, still resolves
and arity is preserved.

Hypersimplices an operator does not change are shared with its result, not
copied: values are frozen, so the result may hold the input's own objects.
A changed one is rebuilt only for its new tags or slots. Ids are looked up
through ``model._id_map``, under the id-map rule of :mod:`hyperscope.model`.

A value that declares a hypersimplex id twice is invalid, yet the tests pin
three fallbacks for it, each taken when an id map is shorter than
``h.simplices``: ``_assemble`` demotes every declaration of a loose id,
found by a scan; ``_paired`` pairs with the right input's last declaration;
``_split``, whose walk reached only first declarations, keeps every
declaration of a closure id.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import filterfalse

from .errors import IdentityConflictError
from .model import (
    Hypernetwork,
    Hypersimplex,
    Participant,
    _ID,
    _id_map,
    _names,
    _retagged,
    declaration_kinds,
    require_declared,
    walk,
)


def _assemble(h: Hypernetwork, sims: list[Hypersimplex], names: set[str], loose: set[str],
              at: dict[str, int] | None = None) -> Hypernetwork:
    """Self-contained hypernetwork over ``sims``, declarations drawn from ``h`` in its order.

    Keeps the vertices of ``h`` that ``names`` holds and the relations that
    ``sims`` bind. ``loose`` holds the names that may point at a hypersimplex
    of ``h`` not among ``sims``; each such hypersimplex that is not a kept
    vertex is demoted to a vertex declaration, so every reference resolves.
    Demoted names are declared after all kept vertices, in ``h``'s
    declaration order.

    They are found through ``at``, an id map of ``h`` (``split`` passes the
    one its walk used), else through ``h._at`` when ``h`` holds it, and
    otherwise by one pass over the ids of ``h.simplices``; no map is built
    here.
    """
    vertices = tuple(filter(names.__contains__, h.vertices))
    loose.difference_update(vertices)  # in place: every caller builds ``loose`` for this call
    all_sims = h.simplices
    if at is None:
        at = vars(h).get("_at")
        if at is not None and len(at) < len(all_sims):  # an id declared twice
            at = None
    if not loose:
        demoted = ()
    elif at is None:
        demoted = tuple(filter(loose.__contains__, map(_ID, all_sims)))
    else:
        demoted = tuple(all_sims[i].id for i in sorted(at[x] for x in loose if x in at))
    return Hypernetwork(vertices + demoted, _bound_relations(h.relations, sims), sims)


def _bound_relations(relations: tuple, sims: Iterable[Hypersimplex]) -> tuple:
    """The members of ``relations`` that some hypersimplex of ``sims`` binds, in their order."""
    bound = {s.relation for s in sims}
    return tuple(r for r in relations if r.id in bound)


def _apart(h1: Hypernetwork, h2: Hypernetwork, at2: dict, rel2: dict) -> bool:
    """Whether ``h2`` declares no name of ``h1`` in another namespace than ``h1`` does.

    The namespaces are vertices, relations and hypersimplex ids. When they
    are apart, no name has one kind in ``h1`` and another in ``h2``. Each
    test runs in C, and none builds ``h1``'s id map.
    """
    rel1 = {r.id for r in h1.relations}
    others2 = set(h2.vertices)
    if not (at2.keys().isdisjoint(h1.vertices) and rel2.keys().isdisjoint(h1.vertices)
            and at2.keys().isdisjoint(rel1) and others2.isdisjoint(rel1)):
        return False
    others2.update(rel2)
    return others2.isdisjoint(map(_ID, h1.simplices))


def _paired(h1: Hypernetwork, h2: Hypernetwork) -> list[Hypersimplex | None]:
    """``h2``'s hypersimplex of each id of ``h1.simplices``, in that order, or None.

    Rejects same-identifier declarations with different content: kinds and
    relations first, then each pair in ``h1``'s order. Identity is global:
    one name may not stand for a vertex on one side and a hypersimplex on
    the other, nor for two different relation symbols, and a hypersimplex
    named in both must be structurally equal (tags aside). Kinds are
    compared, in ``h1``'s declaration order, only when the namespaces of
    the two inputs meet (see :func:`_apart`). Every partner is found, in
    one pass whose lookups run in C, before any content is compared.
    """
    sims2, at2 = h2.simplices, _id_map(h2)
    rel2 = {r.id: r for r in h2.relations}
    if not _apart(h1, h2, at2, rel2):
        k2 = declaration_kinds(h2)
        for name, kind in declaration_kinds(h1).items():
            other = k2.get(name)
            if other is not None and other != kind:
                raise IdentityConflictError(f"{name} is a {kind} in one input and a {other} in the other")
    for r in h1.relations:
        other = rel2.get(r.id)
        if other is not None and other != r:
            raise IdentityConflictError(f"relation {r.id} declared with different roles")
    if len(at2) < len(sims2):  # an id declared twice
        at2 = {t.id: i for i, t in enumerate(sims2)}
    partners = [None if i is None else sims2[i] for i in map(at2.get, map(_ID, h1.simplices))]
    for s, t in zip(h1.simplices, partners):
        if t is not None and s is not t and (s.participants != t.participants
                                             or s.relation != t.relation or s.kind != t.kind):
            raise IdentityConflictError(f"hypersimplex {s.id} has different content in the two inputs")
    return partners


def merge(h1: Hypernetwork, h2: Hypernetwork) -> Hypernetwork:
    """Identity-keyed union.

    Result order is all of ``h1``'s declarations, then ``h2``'s that are
    new. A hypersimplex named in both must be structurally equal (tags
    aside) and carries the union of both tag sets, ``h1``'s tag order
    first; shared vertices and relations must be identical.
    """
    vertices = h1.vertices + tuple(filterfalse(set(h1.vertices).__contains__, h2.vertices))
    rel1 = {r.id for r in h1.relations}
    relations = h1.relations + tuple(r for r in h2.relations if r.id not in rel1)

    out = []
    for s, t in zip(h1.simplices, _paired(h1, h2)):
        if t is not None and t.tags and t.tags != s.tags:
            added = tuple(filterfalse(set(s.tags).__contains__, t.tags)) if s.tags else t.tags
            if added:
                s = _retagged(s, s.tags + added)  # ``() + added`` is ``added`` itself
        out.append(s)
    ids1 = _id_map(h1)
    out += [t for t in h2.simplices if t.id not in ids1]
    return Hypernetwork(vertices, relations, tuple(out))


def meet(h1: Hypernetwork, h2: Hypernetwork) -> Hypernetwork:
    """Identity-keyed intersection.

    Keeps the hypersimplices named in both inputs (which must agree
    structurally, tags aside) with the intersection of their tag sets, plus
    the declarations the survivors reference. Order follows ``h1``.
    """
    survivors: list[Hypersimplex] = []
    for s, t in zip(h1.simplices, _paired(h1, h2)):
        if t is None:
            continue
        if s.tags and s.tags != t.tags:
            tags = tuple(filter(set(t.tags).__contains__, s.tags)) if t.tags else ()
            if len(tags) != len(s.tags):
                s = _retagged(s, tags)
        survivors.append(s)
    refs = {p.ref for s in survivors for p in s.participants}
    return _assemble(h1, survivors, refs, refs.difference(map(_ID, survivors)))


def difference(h1: Hypernetwork, h2: Hypernetwork) -> Hypernetwork:
    """Hypersimplices of ``h1`` whose identity ``h2`` does not name.

    Tags and order come from ``h1``; declarations are restricted to what
    the surviving content references.
    """
    ids2 = _id_map(h2)
    survivors = [s for s in h1.simplices if s.id not in ids2]
    refs = {p.ref for s in survivors for p in s.participants}
    return _assemble(h1, survivors, refs, refs.difference(map(_ID, survivors)))


def prune(h: Hypernetwork, s: Iterable[str]) -> Hypernetwork:
    """Remove the named elements, recording explicit exclusion.

    Hypersimplices named in ``s`` are removed; in every remaining
    hypersimplex a Present reference to a member of ``s`` becomes an
    anti-vertex, preserving arity. Declarations are retained: vertex
    members of ``s`` keep their declaration, and removed hypersimplices
    leave a vertex declaration behind (ordered as :func:`_assemble` orders
    demoted names), so every anti-vertex resolves.
    """
    wanted = _names(s)
    require_declared(h, wanted)

    out, demoted = [], []
    for sim in h.simplices:
        if sim.id in wanted:
            demoted.append(sim.id)
            continue
        for p in sim.participants:
            if p.ref in wanted and not p.excluded:
                parts = tuple(Participant(q.ref, excluded=True) if q.ref in wanted and not q.excluded else q
                              for q in sim.participants)
                sim = Hypersimplex(sim.id, parts, sim.relation, sim.kind, sim.tags)
                break
        out.append(sim)
    return Hypernetwork(h.vertices + tuple(demoted), h.relations, tuple(out))


def split(h: Hypernetwork, c: Iterable[str]) -> Hypernetwork:
    """Sub-hypernetwork generated by ``c``: downward closure within ``h``.

    Contains every hypersimplex reachable downward from ``c`` plus the
    vertices and relation symbols that content references. Nothing outside
    ``h`` can enter, and the closure never escapes upward or sideways.

    Costs time proportional to the result plus ``h``'s vertex and relation
    lists.
    """
    return _split(h, c, _id_map(h))


def _split(h: Hypernetwork, c: Iterable[str], at: dict[str, int]) -> Hypernetwork:
    """``split(h, c)`` through ``at``, the id map of ``h`` (see :func:`~hyperscope.model.walk`)."""
    closure, reached, anti = walk(h, c, at)
    sims = h.simplices
    if len(at) < len(sims):  # an id declared twice
        kept = [s for s in sims if s.id in closure]
        refs = {p.ref for s in kept for p in s.participants}
        return _assemble(h, kept, refs | closure, refs - closure)

    # Only an anti-vertex can name a hypersimplex the walk did not reach.
    reached.sort()
    closure |= anti
    return _assemble(h, [sims[i] for i in reached], closure, anti, at)


# The binary operators by name, for the scoped layer and the CLI.
BINARY: dict[str, Callable[[Hypernetwork, Hypernetwork], Hypernetwork]] = {
    "merge": merge,
    "meet": meet,
    "difference": difference,
}
