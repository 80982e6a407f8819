"""Algebraic law and invariant checks over randomly generated backcloths."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from hyperscope import (
    descendants,
    difference,
    merge,
    meet,
    parse,
    project,
    prune,
    scoped_apply,
    serialize,
    split,
    structural_digest,
    validate,
    view_intersect,
    view_union,
    visible_set,
)

from gen import (
    TAG_POOL,
    closure_oracle,
    compatible_pair,
    compatible_triple,
    random_hypernetwork,
    retag,
    strip_tags,
    unseeded,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _ids(h):
    return {s.id for s in h.simplices}


def _tagmap(h):
    return {s.id: frozenset(s.tags) for s in h.simplices}


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_generated_networks_are_valid(seed):
    h = random_hypernetwork(random.Random(seed))
    assert validate(h).ok


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_descendants_matches_oracle_and_is_a_closure(seed):
    rng = random.Random(seed)
    h = random_hypernetwork(rng)
    if not h.simplices:
        return
    roots = {rng.choice(h.simplices).id for _ in range(rng.randint(1, 3))}
    closed = descendants(h, roots)
    assert closed == closure_oracle(h, roots)
    assert descendants(h, closed) == closed
    sub = set(list(roots)[:1])
    assert descendants(h, sub) <= closed


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_round_trip_and_canonical_fixed_point(seed):
    h = random_hypernetwork(random.Random(seed))
    text = serialize(h)
    assert parse(text) == h
    assert serialize(parse(text)) == text
    assert serialize(unseeded(parse(text))) == text


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_projection_is_filtering_only(seed):
    rng = random.Random(seed)
    h = random_hypernetwork(rng)
    base = {s.id: s for s in h.simplices}
    before = serialize(h)
    for b in TAG_POOL:
        view = project(h, b)
        assert validate(view.content).ok
        for s in view.content.simplices:
            assert s == base[s.id]
        assert project(view.content, b).content == view.content
        assert _ids(view.content) <= set(base)
    assert serialize(h) == before


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_visible_set_is_downward_closed(seed):
    h = random_hypernetwork(random.Random(seed))
    for b in TAG_POOL:
        vis = visible_set(h, b)
        tagged_roots = {s.id for s in h.simplices if b in s.tags}
        assert vis == descendants(h, vis & tagged_roots)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_merge_commutes_on_id_and_tag_sets(seed):
    h1, h2 = compatible_pair(random.Random(seed))
    ab = merge(h1, h2)
    ba = merge(h2, h1)
    assert _ids(ab) == _ids(ba)
    assert _tagmap(ab) == _tagmap(ba)
    assert set(ab.vertices) == set(ba.vertices)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_merge_associates_on_id_and_tag_sets(seed):
    h1, h2, h3 = compatible_triple(random.Random(seed))
    left = merge(merge(h1, h2), h3)
    right = merge(h1, merge(h2, h3))
    assert _ids(left) == _ids(right)
    assert _tagmap(left) == _tagmap(right)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_meet_and_difference_are_subsets_by_identity(seed):
    h1, h2 = compatible_pair(random.Random(seed))
    met = meet(h1, h2)
    assert _ids(met) <= _ids(h1) and _ids(met) <= _ids(h2)
    diff = difference(h1, h2)
    assert _ids(diff) <= _ids(h1)
    assert _ids(diff) & _ids(h2) == set()
    assert validate(met).ok and validate(diff).ok


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_operators_are_tag_transparent(seed):
    rng = random.Random(seed)
    h1, h2 = compatible_pair(rng)
    r1, r2 = retag(rng, h1), retag(rng, h2)
    assert strip_tags(merge(h1, h2)) == strip_tags(merge(r1, r2))
    assert strip_tags(meet(h1, h2)) == strip_tags(meet(r1, r2))
    assert strip_tags(difference(h1, h2)) == strip_tags(difference(r1, r2))
    if h1.simplices:
        target = {rng.choice(h1.simplices).id}
        assert strip_tags(prune(h1, target)) == strip_tags(prune(r1, target))
        assert strip_tags(split(h1, target)) == strip_tags(split(r1, target))


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_prune_preserves_arity_and_split_is_idempotent(seed):
    rng = random.Random(seed)
    h = random_hypernetwork(rng)
    if not h.simplices:
        return
    target = {rng.choice(h.simplices).id, rng.choice(h.vertices)}
    pruned = prune(h, target)
    rel = {r.id: r for r in pruned.relations}
    for s in pruned.simplices:
        assert len(s.participants) == rel[s.relation].arity
    assert validate(pruned).ok

    seeds_ = {rng.choice(h.simplices).id}
    once = split(h, seeds_)
    assert split(once, seeds_) == once
    assert validate(once).ok


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_full_tag_coincidence(seed):
    rng = random.Random(seed)
    b = TAG_POOL[0]
    h1, h2 = compatible_pair(rng, required_tag=b)
    for op_name, op in (("merge", merge), ("meet", meet), ("difference", difference)):
        lhs = project(op(h1, h2), b).content
        rhs = scoped_apply(op_name, h1, h2, b).content
        # declaration sets and the simplex sequence agree; the spot where a
        # vertex unreferenced on one side re-enters the list may not
        assert lhs.simplices == rhs.simplices
        assert set(lhs.vertices) == set(rhs.vertices)
        assert set(lhs.relations) == set(rhs.relations)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_view_algebra_keeps_views_valid(seed):
    rng = random.Random(seed)
    h = random_hypernetwork(rng)
    v1 = project(h, TAG_POOL[rng.randrange(len(TAG_POOL))])
    v2 = project(h, TAG_POOL[rng.randrange(len(TAG_POOL))])
    inter = view_intersect(v1, v2)
    union = view_union(v1, v2)
    assert validate(inter.content).ok
    assert validate(union.content).ok
    ids = set(inter.content.vertices) | _ids(inter.content)
    assert _ids(inter.content) == _ids(v1.content) & _ids(v2.content)
    assert _ids(union.content) == _ids(v1.content) | _ids(v2.content)
    assert ids <= (set(v1.content.vertices) | _ids(v1.content) | set(v2.content.vertices))


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_digest_pins_full_equality(seed):
    rng = random.Random(seed)
    h = random_hypernetwork(rng)
    assert structural_digest(h) == structural_digest(parse(serialize(h)))
    changed = retag(rng, h)
    if changed != h:
        assert structural_digest(changed) != structural_digest(h)
