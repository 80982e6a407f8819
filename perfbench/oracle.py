"""Reference semantics on plain networks, for checking outputs.

Each function restates one library operation over :class:`htgen.Net` from
the documented rules, without calling the library. :func:`plain` turns a
library value into a ``Net`` so that a result can be compared with its
reference by ``==``; conversion and comparison run outside timed regions.
"""

from __future__ import annotations

from htgen import Net


def plain_parts(participants) -> tuple:
    return tuple((p.ref, p.excluded) for p in participants)


def plain(h, known=None) -> Net:
    """A library ``Hypernetwork`` as a plain ``Net``.

    ``known`` maps ``id()`` of live participant tuples to their plain form,
    which saves converting the slots an operator passed through unchanged.
    """
    known = known or {}
    return Net(
        tuple(h.vertices),
        tuple((r.id, r.roles) for r in h.relations),
        tuple(
            # ``_value_`` is ``Enum.value`` without the descriptor's cost
            (s.id, known.get(id(s.participants)) or plain_parts(s.participants), s.relation,
             s.kind._value_, s.tags)
            for s in h.simplices
        ),
    )


def closure(net: Net, roots) -> set:
    """Ids reachable from ``roots`` along Present references (worklist walk)."""
    by_id = {s[0]: s for s in net.sims}
    out = set(roots)
    frontier = list(out)
    while frontier:
        sim = by_id.get(frontier.pop())
        if sim is None:
            continue
        for ref, excluded in sim[1]:
            if not excluded and ref not in out:
                out.add(ref)
                frontier.append(ref)
    return out


def visible(net: Net, tag: str) -> set:
    return closure(net, [s[0] for s in net.sims if tag in s[4]])


def assemble(net: Net, sims, extra_vertices=()) -> Net:
    """Self-contained network over ``sims`` with declarations taken from ``net``.

    Keeps the vertices and relations the simplices reference, in ``net``'s
    order; a referenced simplex of ``net`` that is not kept is declared as a
    vertex after them.
    """
    sims = tuple(sims)
    refs = {ref for s in sims for ref, _ in s[1]}
    rels = {s[2] for s in sims}
    extra = set(extra_vertices)
    vertices = tuple(v for v in net.vertices if v in refs or v in extra)
    declared = set(vertices) | {s[0] for s in sims}
    demoted = tuple(s[0] for s in net.sims if s[0] in refs and s[0] not in declared)
    relations = tuple(r for r in net.relations if r[0] in rels)
    return Net(vertices + demoted, relations, sims)


def project(net: Net, tag: str) -> Net:
    vis = visible(net, tag)
    return assemble(net, [s for s in net.sims if s[0] in vis])


def merge(a: Net, b: Net) -> Net:
    tags_b = {s[0]: s[4] for s in b.sims}
    sims = []
    for s in a.sims:
        extra = tags_b.get(s[0], ())
        sims.append(s[:4] + (s[4] + tuple(t for t in extra if t not in s[4]),))
    ids_a = {s[0] for s in a.sims}
    sims += [s for s in b.sims if s[0] not in ids_a]
    vertices_a, rels_a = set(a.vertices), {r[0] for r in a.relations}
    return Net(
        a.vertices + tuple(v for v in b.vertices if v not in vertices_a),
        a.relations + tuple(r for r in b.relations if r[0] not in rels_a),
        tuple(sims),
    )


def meet(a: Net, b: Net) -> Net:
    tags_b = {s[0]: set(s[4]) for s in b.sims}
    kept = [s[:4] + (tuple(t for t in s[4] if t in tags_b[s[0]]),)
            for s in a.sims if s[0] in tags_b]
    return assemble(a, kept)


def difference(a: Net, b: Net) -> Net:
    ids_b = {s[0] for s in b.sims}
    return assemble(a, [s for s in a.sims if s[0] not in ids_b])


def prune(net: Net, names) -> Net:
    names = set(names)

    def exclude(s):
        if names.isdisjoint([ref for ref, _ in s[1]]):
            return s
        return (s[0], tuple((ref, excluded or ref in names) for ref, excluded in s[1])) + s[2:]

    kept = tuple(exclude(s) for s in net.sims if s[0] not in names)
    demoted = tuple(s[0] for s in net.sims if s[0] in names)
    return Net(net.vertices + demoted, net.relations, kept)


def split(net: Net, seeds) -> Net:
    reach = closure(net, seeds)
    seeds = set(seeds)
    return assemble(net, [s for s in net.sims if s[0] in reach],
                    [v for v in net.vertices if v in seeds])


BINARY = {"merge": merge, "meet": meet, "difference": difference}


def view_intersect(a: Net, b: Net) -> Net:
    """Content of ``view_intersect`` over two view contents."""
    ids_b = {s[0] for s in b.sims}
    sims = tuple(s for s in a.sims if s[0] in ids_b)
    vertices_b = set(b.vertices)
    vertices = [v for v in a.vertices if v in vertices_b]
    declared = set(vertices) | {s[0] for s in sims}
    for s in sims:
        for ref, _ in s[1]:
            if ref not in declared:
                declared.add(ref)
                vertices.append(ref)
    rels = {s[2] for s in sims}
    return Net(tuple(vertices), tuple(r for r in a.relations if r[0] in rels), sims)


def view_union(a: Net, b: Net) -> Net:
    """Content of ``view_union`` over two view contents."""
    ids_a = {s[0] for s in a.sims}
    sims = a.sims + tuple(s for s in b.sims if s[0] not in ids_a)
    sim_ids = {s[0] for s in sims}
    vertices_a = set(a.vertices)
    vertices = tuple(v for v in a.vertices if v not in sim_ids) + tuple(
        v for v in b.vertices if v not in vertices_a and v not in sim_ids
    )
    rels_a = {r[0] for r in a.relations}
    return Net(vertices, a.relations + tuple(r for r in b.relations if r[0] not in rels_a), sims)
