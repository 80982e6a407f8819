"""Seeded random hypernetwork generators and independent oracles.

The generators build valid-by-construction networks: identifier pools are
disjoint per namespace, participants only reference vertices or earlier
hypersimplices (so containment is acyclic), and sizes stay small. The same
generators back both the hypothesis-style property tests and the counted
acceptance runs.
"""

from __future__ import annotations

import functools
import random

from hyperscope import (
    Hypernetwork,
    Hypersimplex,
    Identifier,
    Kind,
    Participant,
    RelationSymbol,
    load_fixture,
)

TAG_POOL = tuple(Identifier(t) for t in ("b0", "b1", "b2", "b3"))
ACCEPTANCE_SEED = 20260811


def closure_oracle(h: Hypernetwork, roots) -> set[str]:
    """Naive fixpoint closure over Present participant references.

    Independent of the library's traversal: repeatedly sweep the first
    declaration of every hypersimplex id until nothing new is added. (A
    later declaration of an id is never followed, as in ``walk``.)
    """
    return walk_oracle(h, roots)[0]


def walk_oracle(h: Hypernetwork, roots) -> tuple[set[str], list[int], set[str]]:
    """What ``walk(h, roots)`` returns, by fixpoint sweeps, with the positions sorted.

    The closure; the position of the first declaration of each closure name
    that is a hypersimplex id, ascending; and the names that those
    hypersimplices reference only as anti-vertices.
    """
    seen: set[str] = set()
    first = []  # the position of each id's first declaration
    for i, s in enumerate(h.simplices):
        if s.id not in seen:
            seen.add(s.id)
            first.append(i)
    out = set(roots)
    changed = True
    while changed:
        changed = False
        for i in first:
            if h.simplices[i].id in out:
                for p in h.simplices[i].participants:
                    if not p.excluded and p.ref not in out:
                        out.add(p.ref)
                        changed = True
    reached = [i for i in first if h.simplices[i].id in out]
    anti = {p.ref for i in reached for p in h.simplices[i].participants if p.excluded}
    return out, reached, anti - out


def _random_tags(rng: random.Random, required: Identifier | None = None):
    k = rng.randint(0, len(TAG_POOL))
    tags = rng.sample(TAG_POOL, k)
    if required is not None and required not in tags:
        tags.insert(rng.randint(0, len(tags)), required)
    return tuple(tags)


def _random_simplices(rng, prefix, count, vertices, relations, base_sims,
                      required_tag=None, allow_excluded=True):
    sims = []
    for i in range(count):
        rel = rng.choice(relations)
        pool = list(vertices) + [s.id for s in base_sims] + [s.id for s in sims]
        parts = tuple(
            Participant(
                rng.choice(pool),
                excluded=allow_excluded and rng.random() < 0.1,
            )
            for _ in rel.roles
        )
        sims.append(
            Hypersimplex(
                id=Identifier(f"{prefix}{i}"),
                participants=parts,
                relation=rel.id,
                kind=Kind.BETA if rng.random() < 0.2 else Kind.ALPHA,
                tags=_random_tags(rng, required_tag),
            )
        )
    return sims


def random_hypernetwork(rng: random.Random, max_simplices: int = 12,
                        allow_excluded: bool = True) -> Hypernetwork:
    """A valid hypernetwork: <= max_simplices hypersimplices, <= 4 tags."""
    vertices = tuple(Identifier(f"v{i}") for i in range(rng.randint(1, 8)))
    relations = tuple(
        RelationSymbol(
            Identifier(f"R{i}"),
            tuple(f"r{j + 1}" for j in range(rng.randint(1, 4))),
        )
        for i in range(rng.randint(1, 4))
    )
    sims = _random_simplices(
        rng, "s", rng.randint(0, max_simplices), vertices, relations, [],
        allow_excluded=allow_excluded,
    )
    return Hypernetwork(vertices, relations, tuple(sims))


@functools.cache
def acceptance_corpus() -> tuple[Hypernetwork, ...]:
    """The 1000 seeded networks of the acceptance suite, built once per run."""
    rng = random.Random(ACCEPTANCE_SEED)
    return tuple(random_hypernetwork(rng) for _ in range(1000))


def compatible_pair(rng: random.Random, required_tag: Identifier | None = None):
    """Two valid hypernetworks over one identifier pool.

    Shared hypersimplices are structurally identical on both sides (tags may
    differ), so merge and meet never hit an identity conflict; each side
    also gets private hypersimplices that may reference the shared content.
    With ``required_tag`` every hypersimplex on both sides carries that tag.
    """
    vertices = tuple(Identifier(f"v{i}") for i in range(rng.randint(2, 6)))
    relations = tuple(
        RelationSymbol(
            Identifier(f"R{i}"),
            tuple(f"r{j + 1}" for j in range(rng.randint(1, 3))),
        )
        for i in range(rng.randint(1, 3))
    )
    shared = _random_simplices(rng, "s", rng.randint(0, 5), vertices, relations, [],
                               required_tag=required_tag)

    def side(prefix):
        own = _random_simplices(rng, prefix, rng.randint(0, 4), vertices, relations,
                                shared, required_tag=required_tag)
        resampled = [s.with_tags(_random_tags(rng, required_tag)) for s in shared]
        return Hypernetwork(vertices, relations, tuple(resampled + own))

    return side("a"), side("b")


def compatible_triple(rng: random.Random):
    h1, h2 = compatible_pair(rng)
    shared = [h1.simplex(s.id) for s in h2.simplices if h1.simplex(s.id) is not None]
    extra = _random_simplices(rng, "c", rng.randint(0, 4), h1.vertices,
                              h1.relations, shared)
    h3 = Hypernetwork(h1.vertices, h1.relations, tuple(shared + extra))
    return h1, h2, h3


def retag(rng: random.Random, h: Hypernetwork) -> Hypernetwork:
    """Arbitrary retagging: add, drop, and reorder tags on every simplex."""
    return Hypernetwork(
        h.vertices,
        h.relations,
        tuple(s.with_tags(_random_tags(rng)) for s in h.simplices),
    )


def strip_tags(h: Hypernetwork) -> Hypernetwork:
    return Hypernetwork(h.vertices, h.relations,
                        tuple(s.untagged() for s in h.simplices))


def unseeded(h: Hypernetwork) -> Hypernetwork:
    """An equal value built from ``h``'s fields alone, holding no cache and no source text.

    A value parsed from canonical text serializes to that very text, so a
    round-trip check also serializes this copy to test the serializer.
    """
    return Hypernetwork(h.vertices, h.relations, h.simplices)


# --- hand-built values shared by the reference modules ---------------------

def fixtures() -> tuple[Hypernetwork, ...]:
    return tuple(load_fixture(k) for k in ("E1", "E2", "E3"))


R = RelationSymbol(Identifier("R"), ("r",))


def sim(name: str, ref: str, *tags: str, excluded: bool = False, relation: str = "R"):
    return Hypersimplex(Identifier(name), (Participant(Identifier(ref), excluded),),
                        Identifier(relation), tags=tuple(Identifier(t) for t in tags))


def net(vertices=("a",), relations=(R,), simplices=()) -> Hypernetwork:
    return Hypernetwork(tuple(Identifier(v) for v in vertices), relations, simplices)


# h1 declares "x" both as a vertex and as a hypersimplex; h2 declares it a
# vertex. The kinds agree (the vertex declaration comes first), so no
# conflict is raised, but the name sits in two namespaces.
VERTEX_AND_SIMPLEX = (
    net(("a", "x"), simplices=(sim("x", "a", "p"), sim("y", "x", "q"))),
    net(("a", "x"), simplices=(sim("y", "x", "r"),)),
)

# Two kind conflicts, "z" then "a" in h1's order; h2 declares "a" first.
TWO_CONFLICTS = (
    net(("z", "a", "b")),
    net(("b",), simplices=(sim("a", "b"), sim("z", "b"))),
)


def invalid_values() -> tuple[Hypernetwork, ...]:
    """Hand-built values, each exercising an edge of the kernel.

    ``parse`` would reject nine of the thirteen. Four validate clean: the
    anti-vertex entry, the second ``VERTEX_AND_SIMPLEX`` value and both
    ``TWO_CONFLICTS`` values, which conflict only with each other.
    """
    return (
        # a simplex id declared twice, with equal and with different content
        net(simplices=(sim("s", "a", "p"), sim("t", "s"), sim("s", "a", "q"))),
        net(("a", "b"), simplices=(sim("s", "a"), sim("s", "b", "p"))),
        # a vertex declared twice, and a relation declared twice
        net(("a", "b", "a"), simplices=(sim("s", "b"),)),
        net(relations=(R, RelationSymbol(Identifier("R"), ("r", "q"))), simplices=(sim("s", "a"),)),
        # one name as vertex and relation, relation and hypersimplex
        net(("a", "R"), simplices=(sim("s", "a"),)),
        net(simplices=(sim("R", "a"), sim("s", "R"))),
        # a reference nothing declares, and a repeated tag
        net(simplices=(sim("s", "ghost", "p"),)),
        net(simplices=(sim("s", "a", "p", "p", "q"),)),
        # an anti-vertex on a hypersimplex that is also referenced
        net(simplices=(sim("s", "a"), sim("t", "s", excluded=True), sim("u", "s"))),
        *VERTEX_AND_SIMPLEX,
        *TWO_CONFLICTS,
    )


def kind_mutants(h: Hypernetwork) -> list[Hypernetwork]:
    """Variants of a corpus value that clash across namespaces with it."""
    out = []
    if h.simplices:
        first = h.simplices[0]
        out.append(Hypernetwork(h.vertices + (first.id,), h.relations, h.simplices))
        out.append(Hypernetwork(h.vertices, h.relations + (RelationSymbol(first.id, ("r",)),),
                                h.simplices))
    out.append(Hypernetwork(h.vertices, h.relations + (RelationSymbol(h.vertices[0], ("r",)),),
                            h.simplices))
    rel = h.relations[0]
    out.append(Hypernetwork(h.vertices + (rel.id,), h.relations, h.simplices))
    return out
