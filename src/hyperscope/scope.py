"""Boundary projection, scoped operator application, and view comparison.

Projection is filtering only. ``project(h, b)`` is ``split`` over the
hypersimplices that carry the tag ``b``: it keeps them plus everything they
contain downward (percolation), copies them verbatim with all their tags,
and never touches ``h`` itself. A scoped operator applies an ordinary
structural operator to the projections of its operands, so its result is a
view the backcloth never learns about.

Views carry the digest of the backcloth they were taken over; the
set-theoretic view comparisons insist the digests match, because comparing
views of different backcloths is not meaningful here.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable

from .errors import BaseMismatchError
from .model import (
    Hypernetwork,
    Identifier,
    View,
    descendants,
    require_declared,
    structural_digest,
)
from .ops import BINARY, prune, split


def _tagged(h: Hypernetwork, b: str) -> list[Identifier]:
    """Ids of the hypersimplices that carry ``b``: the roots of its view."""
    return [s.id for s in h.simplices if b in s.tags]


def visible_set(h: Hypernetwork, b: str) -> set[Identifier]:
    """Identifiers visible under boundary ``b``.

    The downward closure of every hypersimplex carrying ``b``. Visibility
    never travels laterally or upward, and never through an anti-vertex.
    An unknown tag yields the empty set.
    """
    return descendants(h, _tagged(h, b))


def project(h: Hypernetwork, b: str) -> View:
    """Boundary projection: the view of ``h`` visible under ``b``.

    ``split`` over the hypersimplices that carry ``b``. Content
    hypersimplices are copied full-equal, with every tag they carry;
    declarations are restricted to the visible ones (vertex declarations
    referenced only through anti-vertices are retained so the exclusion
    still resolves). ``h`` is never modified, and a tag that no
    hypersimplex carries, malformed or not, projects to the empty view.
    """
    # Split before digesting: the other order ran the scoped_query benchmark
    # ~10% slower on 10^4-simplex backcloths, with the same work per call.
    content = split(h, _tagged(h, b))
    return View(base_digest=structural_digest(h), content=content, boundary=b)


def _pair_digest(d1: str, d2: str) -> str:
    if d1 == d2:
        return d1
    return hashlib.sha256(f"{d1}:{d2}".encode("ascii")).hexdigest()


def scoped_apply(op: str, h1: Hypernetwork, h2: Hypernetwork, b: str) -> View:
    """Apply a binary structural operator inside boundary ``b``.

    Equivalent to projecting both operands and applying the global operator
    to the projections. ``op`` is one of merge, meet, difference. The result
    is view-level only: neither input changes, and anything the operator
    introduces exists only in the returned view.
    """
    try:
        fn = BINARY[op]
    except KeyError:
        raise ValueError(f"unknown scoped operator {op!r}; expected one of "
                         + ", ".join(sorted(BINARY))) from None
    v1 = project(h1, b)
    v2 = project(h2, b)
    content = fn(v1.content, v2.content)
    return View(base_digest=_pair_digest(v1.base_digest, v2.base_digest), content=content)


def _scoped(op: Callable[[Hypernetwork, Iterable[str]], Hypernetwork],
            h: Hypernetwork, names: Iterable[str], b: str) -> View:
    """Apply a unary operator to the ``b`` view; every name must be visible."""
    base = project(h, b)
    names = set(names)
    require_declared(base.content, names, f"is not visible under boundary {b}")
    return View(base_digest=base.base_digest, content=op(base.content, names))


def scoped_prune(h: Hypernetwork, s: Iterable[str], b: str) -> View:
    """Prune within the ``b`` view; the backcloth stays untouched.

    Every member of ``s`` must be visible under ``b``. Anti-vertices the
    prune introduces appear only in the returned view.
    """
    return _scoped(prune, h, s, b)


def scoped_split(h: Hypernetwork, c: Iterable[str], b: str) -> View:
    """Closure extraction within the visible region of ``b`` only.

    Projection does not enforce closure, so this coincides with projection
    exactly when every hypersimplex of the requested closure carries ``b``.
    """
    return _scoped(split, h, c, b)


def _checked_same_base(v1: View, v2: View) -> str:
    if v1.base_digest != v2.base_digest:
        raise BaseMismatchError("views were taken over different backcloths")
    return v1.base_digest


def view_intersect(v1: View, v2: View) -> View:
    """Elements present in both views by identity, content from ``v1``.

    Purely descriptive overlap of scopes; no structural composition and no
    new structure. Requires both views to share a backcloth.
    """
    base = _checked_same_base(v1, v2)
    ids2 = v2.content.simplex_ids()
    sims = [s for s in v1.content.simplices if s.id in ids2]

    in_v2 = set(v2.content.vertices)
    vertices = [v for v in v1.content.vertices if v in in_v2]
    # keep references resolvable even when the two views disagree on
    # whether an id is a vertex or a (demoted) hypersimplex
    declared = set(vertices) | {s.id for s in sims}
    missing: dict[Identifier, None] = {}
    for s in sims:
        for p in s.participants:
            if p.ref not in declared:
                missing.setdefault(p.ref)
    rel_refs = {s.relation for s in sims}
    relations = tuple(r for r in v1.content.relations if r.id in rel_refs)
    content = Hypernetwork(tuple(vertices) + tuple(missing), relations, tuple(sims))
    return View(base_digest=base, content=content)


def view_union(v1: View, v2: View) -> View:
    """Identity-union of two views over one backcloth, ``v1`` first.

    Shared identifiers take ``v1``'s content verbatim; both sides of a
    projection pair agree on them by construction.
    """
    base = _checked_same_base(v1, v2)
    ids1 = v1.content.simplex_ids()
    sims = tuple(v1.content.simplices) + tuple(
        s for s in v2.content.simplices if s.id not in ids1
    )
    sim_ids = {s.id for s in sims}

    seen_v = set(v1.content.vertices)
    vertices = tuple(v for v in v1.content.vertices if v not in sim_ids) + tuple(
        v for v in v2.content.vertices if v not in seen_v and v not in sim_ids
    )
    rel1 = {r.id for r in v1.content.relations}
    relations = tuple(v1.content.relations) + tuple(
        r for r in v2.content.relations if r.id not in rel1
    )
    content = Hypernetwork(vertices, relations, sims)
    return View(base_digest=base, content=content)
