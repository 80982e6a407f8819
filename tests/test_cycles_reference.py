"""The containment cycle search against its earlier code.

The reference below is ``_containment_cycles`` as it stood when it
reported one cycle per back edge of a depth-first search, kept verbatim as
the slow reference. The search that replaced it reports one cycle per
cyclic strongly connected component. On seeded random graphs every
witness must be a real cycle inside one component, with exactly one per
cyclic component; where each cyclic component is a simple cycle, the two
searches must find the same cycles and ``validate`` the same report.
"""

from __future__ import annotations

import random
from typing import Iterator

from hyperscope import (
    Hypernetwork,
    Hypersimplex,
    Identifier,
    Participant,
    RelationSymbol,
    validate,
)
from hyperscope import axioms
from hyperscope.axioms import _containment_cycles


# --- the slow reference, verbatim ------------------------------------------

def first_by_id(h: Hypernetwork) -> dict[str, Hypersimplex]:
    """Id -> the first hypersimplex declared under it, in declaration order."""
    by_id: dict[str, Hypersimplex] = {}
    for s in h.simplices:
        by_id.setdefault(s.id, s)
    return by_id


def reference_cycles(h: Hypernetwork) -> list[list[str]]:
    """Cycles among hypersimplices along Present participant references."""
    by_id = first_by_id(h)

    def children(node: str) -> Iterator[str]:
        return iter(
            [p.ref for p in by_id[node].participants if not p.excluded and p.ref in by_id]
        )

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {sid: WHITE for sid in by_id}
    cycles: list[list[str]] = []

    for root in by_id:
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        # Each frame keeps its node's child iterator, built once on push.
        stack: list[tuple[str, Iterator[str]]] = [(root, children(root))]
        path = [root]
        while stack:
            node, pending = stack[-1]
            child = next(pending, None)
            if child is not None:
                if color[child] == GRAY:
                    at = path.index(child)
                    cycles.append(path[at:] + [child])
                elif color[child] == WHITE:
                    color[child] = GRAY
                    stack.append((child, children(child)))
                    path.append(child)
            else:
                stack.pop()
                path.pop()
                color[node] = BLACK
    return cycles


# --- seeded graphs and their components --------------------------------------

RELATIONS = tuple(RelationSymbol(Identifier(f"R{k}"), tuple(f"r{i}" for i in range(k)))
                  for k in range(1, 5))
GRAPHS = 3000


def graph(rng: random.Random) -> Hypernetwork:
    """1-16 hypersimplices, each with 0-3 references to them, 10% anti-vertices.

    Every hypersimplex also binds the vertex ``a``, so none is empty, and
    its relation has the arity of its participant count.
    """
    names = [f"s{i}" for i in range(rng.randint(1, 16))]
    sims = []
    for name in names:
        parts = [Participant(Identifier("a"))] + [
            Participant(Identifier(rng.choice(names)), rng.random() < 0.1)
            for _ in range(rng.randint(0, 3))
        ]
        rng.shuffle(parts)
        sims.append(Hypersimplex(Identifier(name), tuple(parts), RELATIONS[len(parts) - 1].id))
    return Hypernetwork((Identifier("a"),), RELATIONS, tuple(sims))


def edges(h: Hypernetwork) -> list[tuple[str, str]]:
    """Every Present reference between hypersimplices, with repeats."""
    by_id = first_by_id(h)
    return [(s.id, p.ref) for s in h.simplices for p in s.participants
            if not p.excluded and p.ref in by_id]


def components(h: Hypernetwork) -> dict[str, frozenset[str]]:
    """Each hypersimplex -> its strongly connected component, by reachability."""
    succ: dict[str, set[str]] = {x: set() for x in first_by_id(h)}
    for x, y in edges(h):
        succ[x].add(y)
    reach = {}
    for x in succ:
        seen, todo = {x}, [x]
        while todo:
            for y in succ[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        reach[x] = seen
    return {x: frozenset(y for y in reach[x] if x in reach[y]) for x in succ}


def cyclic_components(h: Hypernetwork) -> set[frozenset[str]]:
    comp = components(h)
    loops = {x for x, y in edges(h) if x == y}
    return {c for x, c in comp.items() if len(c) > 1 or x in loops}


def simple_cycles_only(h: Hypernetwork) -> bool:
    """Each cyclic component has exactly as many references inside it as members."""
    comp = components(h)
    inside: dict[frozenset[str], int] = {}
    for x, y in edges(h):
        if comp[x] == comp[y]:
            inside[comp[x]] = inside.get(comp[x], 0) + 1
    return all(inside.get(c, 0) == len(c) for c in cyclic_components(h))


def graphs() -> list[Hypernetwork]:
    rng = random.Random(11)
    return [graph(rng) for _ in range(GRAPHS)]


# --- the tests -------------------------------------------------------------

def test_each_cyclic_component_has_one_witness_cycle():
    cyclic = overlapping = 0
    for h in graphs():
        refs = set(edges(h))
        comp = components(h)
        witnesses = _containment_cycles(h)
        for w in witnesses:
            assert w[0] == w[-1] and len(w) >= 2
            assert all((x, y) in refs for x, y in zip(w, w[1:]))
            assert len(set(w[:-1])) == len(w) - 1
            assert {comp[x] for x in w} == {comp[w[0]]}
        starts = [w[0] for w in witnesses]
        assert len(set(starts)) == len(starts)
        want = cyclic_components(h)
        assert sorted(map(sorted, (comp[x] for x in starts))) == sorted(map(sorted, want))
        cyclic += bool(want)
        overlapping += not simple_cycles_only(h)
    assert cyclic > GRAPHS // 2 and overlapping > GRAPHS // 10


def test_simple_cycles_are_the_references_cycles(monkeypatch):
    simple = [h for h in graphs() if simple_cycles_only(h)]
    assert len(simple) > GRAPHS // 3
    assert sum(bool(reference_cycles(h)) for h in simple) > GRAPHS // 10
    for h in simple:
        assert sorted(_containment_cycles(h)) == sorted(reference_cycles(h))
    reports = [validate(h) for h in simple]
    monkeypatch.setattr(axioms, "_containment_cycles", reference_cycles)
    assert [validate(h) for h in simple] == reports

