"""Acceptance suite: one test per criterion, zero-failure tolerances.

Random corpora are seeded, so every run checks the same cases. A summary
hook in conftest prints one PASS/FAIL line per criterion at the end of the
pytest run.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from hyperscope import (
    Hypernetwork,
    difference,
    load_fixture,
    merge,
    meet,
    parse,
    project,
    prune,
    scoped_apply,
    scoped_prune,
    serialize,
    split,
    validate,
    view_intersect,
)

from gen import (
    ACCEPTANCE_SEED,
    TAG_POOL,
    acceptance_corpus,
    compatible_pair,
    compatible_triple,
    retag,
    strip_tags,
    unseeded,
)

def _ids(h):
    return {str(s.id) for s in h.simplices}


def _tagmap(h):
    return {s.id: frozenset(s.tags) for s in h.simplices}


def _same_content(a, b):
    """Exact set equality of declarations; simplex order must also agree.

    Projection drops declared-but-unreferenced vertices, so the scoped and
    global routes can disagree on where such a vertex re-enters the
    declaration list, never on what the content is.
    """
    return (
        set(a.vertices) == set(b.vertices)
        and set(a.relations) == set(b.relations)
        and a.simplices == b.simplices
    )


@contextmanager
def _under_one_second(label):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{label} took {elapsed:.3f}s"


def test_criterion_1_worked_examples():
    e1 = load_fixture("E1")
    e2 = load_fixture("E2")
    e3 = load_fixture("E3")

    with _under_one_second("emergency projections"):
        # each unit sees itself plus the shared, still triple-tagged report
        for tag, unit in (
            ("b_fire", "fireUnit"),
            ("b_ambulance", "ambulanceUnit"),
            ("b_police", "policeUnit"),
        ):
            content = project(e2, tag).content
            assert _ids(content) == {unit, "report"}
            assert content.simplex("report").tags == ("b_fire", "b_ambulance", "b_police")

    with _under_one_second("cyclist projection"):
        # percolation is downward only
        cyclist_view = project(e1, "b_cyclist").content
        assert _ids(cyclist_view) == {"cyclist", "targets", "person", "bicycle", "drive"}
        assert "steering" not in _ids(cyclist_view)
        assert "fitness" not in _ids(cyclist_view)

    with _under_one_second("person/cyclist overlap"):
        overlap = view_intersect(project(e1, "b_person"), project(e1, "b_cyclist")).content
        assert _ids(overlap) == {"person"}
        assert set(overlap.vertices) == {"body", "legs", "arms", "cardio"}

    with _under_one_second("scoped prune of trainingPlan"):
        before = serialize(e1)
        refined = scoped_prune(e1, {"trainingPlan"}, "b_cyclist").content
        assert [str(p) for p in refined.simplex("cyclist").participants] == [
            "person", "bicycle", "!trainingPlan",
        ]
        assert [str(p) for p in refined.simplex("targets").participants] == [
            "!trainingPlan", "cardio",
        ]
        assert serialize(e1) == before

    with _under_one_second("ecology shared identities"):
        predator = project(e3, "b_predator").content
        prey = project(e3, "b_prey").content
        habitat = project(e3, "b_habitat").content
        assert "stag" in predator.vertices and "stag" in prey.vertices
        assert "grass" in prey.vertices and "grass" in habitat.vertices


def test_criterion_2_projection_preserves_axioms():
    failures = 0
    for h in acceptance_corpus():
        for b in TAG_POOL:
            if not validate(project(h, b).content).ok:
                failures += 1
    assert failures == 0


def test_criterion_3_projection_is_filter_only_and_idempotent():
    failures = 0
    for h in acceptance_corpus():
        base = {s.id: s for s in h.simplices}
        for b in TAG_POOL:
            content = project(h, b).content
            if any(s != base[s.id] for s in content.simplices):
                failures += 1
            if project(content, b).content != content:
                failures += 1
    assert failures == 0


def test_criterion_4_operator_laws():
    failures = 0
    rng = random.Random(ACCEPTANCE_SEED + 1)

    for h in acceptance_corpus():
        # determinism and input immutability
        before = serialize(h)
        if split(h, set()) != split(h, set()):
            failures += 1
        if h.simplices:
            target = {rng.choice(h.simplices).id}
            pruned = prune(h, target)
            if prune(h, target) != pruned:
                failures += 1
            rel = {r.id: r for r in pruned.relations}
            if any(len(s.participants) != rel[s.relation].arity for s in pruned.simplices):
                failures += 1
            once = split(h, target)
            if split(once, target) != once:
                failures += 1
            if not (validate(pruned).ok and validate(once).ok):
                failures += 1
        if serialize(h) != before:
            failures += 1

    for _ in range(500):
        h1, h2 = compatible_pair(rng)
        ab, ba = merge(h1, h2), merge(h2, h1)
        if _ids(ab) != _ids(ba) or _tagmap(ab) != _tagmap(ba):
            failures += 1
        met, diff = meet(h1, h2), difference(h1, h2)
        if not (_ids(met) <= _ids(h1) and _ids(met) <= _ids(h2)):
            failures += 1
        if not (_ids(diff) <= _ids(h1) and not _ids(diff) & _ids(h2)):
            failures += 1
        if not (validate(ab).ok and validate(met).ok and validate(diff).ok):
            failures += 1
        # tag transparency under random retagging
        r1, r2 = retag(rng, h1), retag(rng, h2)
        if strip_tags(merge(h1, h2)) != strip_tags(merge(r1, r2)):
            failures += 1
        if strip_tags(meet(h1, h2)) != strip_tags(meet(r1, r2)):
            failures += 1
        if strip_tags(difference(h1, h2)) != strip_tags(difference(r1, r2)):
            failures += 1
        if h1.simplices:
            target = {rng.choice(h1.simplices).id}
            if strip_tags(prune(h1, target)) != strip_tags(prune(r1, target)):
                failures += 1
            if strip_tags(split(h1, target)) != strip_tags(split(r1, target)):
                failures += 1

    for _ in range(200):
        h1, h2, h3 = compatible_triple(rng)
        left = merge(merge(h1, h2), h3)
        right = merge(h1, merge(h2, h3))
        if _ids(left) != _ids(right) or _tagmap(left) != _tagmap(right):
            failures += 1

    assert failures == 0


def test_criterion_5_divergence_and_coincidence():
    from hyperscope import Hypersimplex, Identifier, Participant, RelationSymbol

    # divergence witness: scoped difference keeps the tagged x, while the
    # projection of the global difference is empty
    rel = RelationSymbol(Identifier("R"), ("r1",))
    vertex = Identifier("a")
    tagged_x = Hypersimplex(
        Identifier("x"), (Participant(vertex),), rel.id, tags=(Identifier("b"),)
    )
    bare_x = Hypersimplex(Identifier("x"), (Participant(vertex),), rel.id)
    h_a = Hypernetwork((vertex,), (rel,), (tagged_x,))
    h_b = Hypernetwork((vertex,), (rel,), (bare_x,))

    scoped = scoped_apply("difference", h_a, h_b, "b").content
    global_projected = project(difference(h_a, h_b), "b").content
    assert [s for s in scoped.simplices] == [tagged_x]
    assert global_projected == Hypernetwork()
    assert scoped != global_projected

    # coincidence on fully tagged pairs
    failures = 0
    rng = random.Random(ACCEPTANCE_SEED + 2)
    b = TAG_POOL[0]
    for _ in range(200):
        h1, h2 = compatible_pair(rng, required_tag=b)
        for op_name, op in (("merge", merge), ("meet", meet), ("difference", difference)):
            if not _same_content(
                project(op(h1, h2), b).content,
                scoped_apply(op_name, h1, h2, b).content,
            ):
                failures += 1
    assert failures == 0


def test_criterion_6_round_trip():
    start = time.perf_counter()
    failures = 0
    for name in ("E1", "E2", "E3"):
        h = load_fixture(name)
        text = serialize(h)
        if parse(text) != h or serialize(parse(text)) != text:
            failures += 1
        if serialize(unseeded(parse(text))) != text:
            failures += 1
    for h in acceptance_corpus():
        text = serialize(h)
        if parse(text) != h:
            failures += 1
        if serialize(parse(text)) != text:
            failures += 1
        if serialize(unseeded(parse(text))) != text:
            failures += 1
    assert failures == 0
    assert time.perf_counter() - start < 30.0
