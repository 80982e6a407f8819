from __future__ import annotations

import dataclasses
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hyperscope import (
    Hypernetwork,
    Hypersimplex,
    Identifier,
    IdentityConflictError,
    Kind,
    Participant,
    RelationSymbol,
    UnresolvedIdentifierError,
    difference,
    scoped_apply,
    merge,
    meet,
    ops,
    parse,
    prune,
    serialize,
    split,
    validate,
)
from hyperscope.model import _retagged

from gen import acceptance_corpus, compatible_pair
from test_ops_reference import REFERENCE, outcome


def _one_simplex_net(tags, participant="a"):
    vertices = [Identifier("a")]
    if participant != "a":
        vertices.append(Identifier(participant))
    return Hypernetwork(
        vertices=tuple(vertices),
        relations=(RelationSymbol(Identifier("R"), ("r1",)),),
        simplices=(
            Hypersimplex(
                Identifier("x"),
                (Participant(Identifier(participant)),),
                Identifier("R"),
                Kind.ALPHA,
                tuple(Identifier(t) for t in tags),
            ),
        ),
    )


EMPTY = Hypernetwork()


def _already_excluded():
    """``x = < a, !b ; R >``: one hypersimplex whose slot for ``b`` is already an anti-vertex."""
    return Hypernetwork(
        vertices=(Identifier("a"), Identifier("b")),
        relations=(RelationSymbol(Identifier("R"), ("r1", "r2")),),
        simplices=(
            Hypersimplex(
                Identifier("x"),
                (Participant(Identifier("a")), Participant(Identifier("b"), excluded=True)),
                Identifier("R"),
            ),
        ),
    )


def _shares_unchanged(out, h):
    """Whether each hypersimplex of ``out`` equal to one of ``h`` is one of ``h``'s own objects."""
    own = {id(s) for s in h.simplices}
    return all(id(s) in own for s in out.simplices if s in h.simplices)


class TestMerge:
    def test_self_merge_is_identity(self, bicycle):
        assert merge(bicycle, bicycle) == bicycle

    def test_tag_union_on_shared_identity(self):
        # hand-checked one-simplex case: {p} with {q} unions to (p, q)
        merged = merge(_one_simplex_net(["p"]), _one_simplex_net(["q"]))
        assert merged.simplices[0].tags == ("p", "q")

    def test_tag_union_keeps_left_order(self):
        merged = merge(_one_simplex_net(["p", "q"]), _one_simplex_net(["q", "z"]))
        assert merged.simplices[0].tags == ("p", "q", "z")

    def test_tag_union_costs_linear_time(self):
        left = _one_simplex_net([f"p{i}" for i in range(16_000)])
        right = _one_simplex_net([f"q{i}" for i in range(16_000)])
        start = time.perf_counter()
        merged = merge(left, right)
        assert time.perf_counter() - start < 3.0
        assert merged.simplices[0].tags == left.simplices[0].tags + right.simplices[0].tags

    def test_identity_conflict_on_different_participants(self):
        h_a = _one_simplex_net(["p"])
        h_b = Hypernetwork(
            vertices=(Identifier("a"), Identifier("b")),
            relations=h_a.relations,
            simplices=(
                Hypersimplex(Identifier("x"), (Participant(Identifier("b")),), Identifier("R")),
            ),
        )
        with pytest.raises(IdentityConflictError):
            merge(h_a, h_b)

    def test_identity_conflict_across_namespaces(self):
        h_a = _one_simplex_net([])
        h_b = Hypernetwork(vertices=(Identifier("x"),))
        with pytest.raises(IdentityConflictError):
            merge(h_a, h_b)

    def test_appends_right_only_declarations(self, emergency, ecology):
        both = merge(emergency, ecology)
        assert both.vertices == emergency.vertices + ecology.vertices
        assert [s.id for s in both.simplices] == (
            [s.id for s in emergency.simplices] + [s.id for s in ecology.simplices]
        )
        assert validate(both).ok


class TestMeet:
    def test_self_meet_of_fully_referenced_net(self, bicycle):
        assert meet(bicycle, bicycle) == bicycle

    def test_disjoint_identifiers_meet_empty(self, emergency, ecology):
        assert meet(emergency, ecology) == EMPTY

    def test_tag_intersection(self):
        # hand-checked one-simplex case: {p} with {} intersects to ()
        met = meet(_one_simplex_net(["p"]), _one_simplex_net([]))
        assert met.simplices[0].tags == ()
        met = meet(_one_simplex_net(["p", "q"]), _one_simplex_net(["q"]))
        assert met.simplices[0].tags == ("q",)

    def test_subset_of_both_by_identity(self, bicycle):
        partial = split(bicycle, {"cyclist"})
        met = meet(bicycle, partial)
        ids = {s.id for s in met.simplices}
        assert ids <= {s.id for s in bicycle.simplices}
        assert ids <= {s.id for s in partial.simplices}
        assert validate(met).ok

    def test_identity_conflict(self):
        with pytest.raises(IdentityConflictError):
            meet(_one_simplex_net([]), _one_simplex_net([], participant="b2"))

    # The set-based intersection: 16,000 tags a side with tuple membership
    # costs ~10^8 comparisons.
    @pytest.mark.parametrize("shared", [16_000, 8_000], ids=["full-overlap", "half-overlap"])
    def test_tag_intersection_costs_linear_time(self, shared):
        left_tags = [f"p{i}" for i in range(16_000)]
        right_tags = [f"p{i}" for i in reversed(range(16_000 - shared, 32_000 - shared))]
        start = time.perf_counter()
        met = meet(_one_simplex_net(left_tags), _one_simplex_net(right_tags))
        assert time.perf_counter() - start < 3.0
        assert met.simplices[0].tags == tuple(left_tags[16_000 - shared:])


class TestDifference:
    def test_self_difference_is_empty(self, emergency):
        assert difference(emergency, emergency) == EMPTY

    def test_difference_with_empty_is_identity(self, emergency):
        # emergency is fully referenced, so no declarations get dropped
        assert difference(emergency, EMPTY) == emergency

    def test_removes_report_only(self, emergency):
        h_report = parse(
            "vertex incident\n"
            "vertex location\n"
            "relation R_report(r1, r2)\n"
            "report = < incident, location ; R_report > : alpha\n"
        )
        left = difference(emergency, h_report)
        assert [str(s.id) for s in left.simplices] == ["fireUnit", "ambulanceUnit", "policeUnit"]
        assert "incident" not in left.vertices
        assert left.relation_symbol("R_report") is None
        assert validate(left).ok

    def test_no_conflict_check(self, emergency):
        clashing = _one_simplex_net([])
        renamed = Hypernetwork(
            clashing.vertices,
            clashing.relations,
            (Hypersimplex(Identifier("fireUnit"), clashing.simplices[0].participants,
                          Identifier("R")),),
        )
        left = difference(emergency, renamed)
        assert "fireUnit" not in {s.id for s in left.simplices}


class TestPrune:
    def test_empty_prune_is_identity(self, bicycle):
        assert prune(bicycle, set()) == bicycle

    def test_vertex_prune_introduces_anti_vertices(self, bicycle):
        pruned = prune(bicycle, {"trainingPlan"})
        cyclist = pruned.simplex("cyclist")
        assert [str(p) for p in cyclist.participants] == ["person", "bicycle", "!trainingPlan"]
        targets = pruned.simplex("targets")
        assert [str(p) for p in targets.participants] == ["!trainingPlan", "cardio"]
        assert "trainingPlan" in pruned.vertices
        assert validate(pruned).ok

    def test_arity_preserved(self, bicycle):
        pruned = prune(bicycle, {"trainingPlan", "frame"})
        for s in pruned.simplices:
            rel = pruned.relation_symbol(s.relation)
            assert len(s.participants) == rel.arity

    def test_pruned_simplex_leaves_vertex_declaration(self, bicycle):
        pruned = prune(bicycle, {"drive"})
        assert pruned.simplex("drive") is None
        assert "drive" in pruned.vertices
        assert [str(p) for p in pruned.simplex("bicycle").participants] == [
            "frame", "!drive", "balance",
        ]
        assert validate(pruned).ok

    def test_already_excluded_slot_stays_excluded(self):
        pruned = prune(_already_excluded(), {"b"})
        assert [str(p) for p in pruned.simplex("x").participants] == ["a", "!b"]

    def test_unresolved_member(self, bicycle):
        # Names are checked before any hypersimplex is read: the one added here cannot be.
        unreadable = Hypersimplex(Identifier("x"), (None,), Identifier("R_drive"))
        for h in (bicycle, Hypernetwork(bicycle.vertices, bicycle.relations,
                                        (*bicycle.simplices, unreadable))):
            with pytest.raises(UnresolvedIdentifierError):
                prune(h, {"ghost"})

    def test_relation_names_are_not_prunable(self, bicycle):
        # relations live in their own resolution space
        with pytest.raises(UnresolvedIdentifierError):
            prune(bicycle, {"R_drive"})


class TestSplit:
    def test_bicycle_closure(self, bicycle):
        part = split(bicycle, {"bicycle"})
        assert [str(s.id) for s in part.simplices] == ["bicycle", "drive"]
        assert set(part.vertices) == {
            "frame", "balance", "rear-wheel", "chain", "pedals", "gears",
        }
        assert {str(r.id) for r in part.relations} == {"R_bicycle", "R_drive"}
        assert validate(part).ok

    def test_single_vertex(self, bicycle):
        part = split(bicycle, {"frame"})
        assert part.vertices == ("frame",)
        assert part.simplices == ()
        assert part.relations == ()

    def test_habitat_closure(self, ecology):
        part = split(ecology, {"habitat"})
        assert [str(s.id) for s in part.simplices] == ["habitat"]
        assert set(part.vertices) == {"forest", "grass", "water"}

    def test_closure_idempotence(self, bicycle):
        once = split(bicycle, {"cyclist"})
        assert split(once, {"cyclist"}) == once

    def test_unresolved_seed(self, ecology):
        with pytest.raises(UnresolvedIdentifierError):
            split(ecology, {"ghost"})

    @pytest.mark.parametrize("op", ["split", "prune"])
    def test_unresolved_error_names_the_least_name_under_any_hash_seed(self, op):
        # Seeds and prune members are held in sets; the error must not name
        # whichever missing name the set happens to yield first.
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (
            "import hyperscope as hs\n"
            "try:\n"
            f"    hs.{op}(hs.load_fixture('E1'), ['zz1', 'aa2', 'mm3'])\n"
            "except hs.UnresolvedIdentifierError as exc:\n"
            "    print(exc)\n"
        )
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True, timeout=60).stdout
            assert out == "aa2 does not resolve to a vertex or hypersimplex\n", (seed, out)


def _conflicting(*, kind=False, roles=False, content=False):
    """A network that clashes with ``_one_simplex_net([])`` in the named ways."""
    vertices = [Identifier("a"), Identifier("b")] + ([Identifier("R")] if kind else [])
    relation = RelationSymbol(Identifier("R"), ("r2",) if roles else ("r1",))
    participant = Identifier("b" if content else "a")
    return Hypernetwork(
        tuple(vertices),
        (relation,),
        (Hypersimplex(Identifier("x"), (Participant(participant),), Identifier("R")),),
    )


@pytest.mark.parametrize("op", [merge, meet])
@pytest.mark.parametrize("clash, message", [
    (dict(content=True), "hypersimplex x has different content in the two inputs"),
    (dict(roles=True, content=True), "relation R declared with different roles"),
    (dict(kind=True, roles=True, content=True), "R is a relation in one input and a vertex in the other"),
], ids=["content", "roles-then-content", "kind-then-roles"])
def test_conflict_messages_and_their_order(op, clash, message):
    with pytest.raises(IdentityConflictError) as exc:
        op(_one_simplex_net([]), _conflicting(**clash))
    assert str(exc.value) == message


@pytest.mark.parametrize("op", [merge, meet])
def test_a_kind_conflict_on_the_last_shared_hypersimplex_is_found(op):
    checked = 0
    for seed in range(50):
        h1, h2 = compatible_pair(random.Random(seed))
        shared = [s.id for s in h1.simplices if h2.simplex(s.id) is not None]
        if not shared:
            continue
        op(h1, h2)
        last = h2.simplex(shared[-1])
        kind = Kind.BETA if last.kind is Kind.ALPHA else Kind.ALPHA
        flipped = Hypersimplex(last.id, last.participants, last.relation, kind, last.tags)
        h2 = Hypernetwork(h2.vertices, h2.relations,
                          tuple(flipped if s is last else s for s in h2.simplices))
        with pytest.raises(IdentityConflictError) as exc:
            op(h1, h2)
        assert str(exc.value) == f"hypersimplex {last.id} has different content in the two inputs"
        checked += 1
    assert checked >= 25


def _declaring_both(declaration):
    return parse("vertex a\nrelation R(r1)\nrelation S(r1)\n" + declaration + "\n")


# Same id, same participants, relations of equal arity declared on both
# sides: only the relation, or only the kind, tells the two apart.
@pytest.mark.parametrize("op", [
    merge,
    meet,
    lambda h1, h2: scoped_apply("merge", h1, h2, "b_t"),
    lambda h1, h2: scoped_apply("meet", h1, h2, "b_t"),
], ids=["merge", "meet", "scoped-merge", "scoped-meet"])
@pytest.mark.parametrize("left, right", [
    ("x = < a ; R ; b_t > : alpha", "x = < a ; S ; b_t > : alpha"),
    ("x = < a ; R ; b_t > : alpha", "x = < a ; R ; b_t > : beta"),
], ids=["relation", "kind"])
def test_shared_id_with_another_relation_or_kind_is_an_identity_conflict(op, left, right):
    for h1, h2 in [(_declaring_both(left), _declaring_both(right)),
                   (_declaring_both(right), _declaring_both(left))]:
        with pytest.raises(IdentityConflictError) as exc:
            op(h1, h2)
        assert str(exc.value) == "hypersimplex x has different content in the two inputs"


class TestOperatorHygiene:
    def test_inputs_unchanged(self, bicycle, emergency):
        before = (serialize(bicycle), serialize(emergency))
        merge(bicycle, emergency)
        meet(bicycle, bicycle)
        difference(bicycle, emergency)
        prune(bicycle, {"frame"})
        split(bicycle, {"cyclist"})
        assert (serialize(bicycle), serialize(emergency)) == before

    def test_results_are_valid(self, bicycle, emergency):
        for result in (
            merge(bicycle, emergency),
            meet(bicycle, bicycle),
            difference(bicycle, emergency),
            prune(bicycle, {"drive"}),
            split(bicycle, {"bicycle", "person"}),
        ):
            assert validate(result).ok


class TestSharing:
    """Hypersimplices an operator leaves unchanged are the input's own objects."""

    def test_self_merge_and_self_meet_share_every_hypersimplex(self, bicycle, emergency, ecology):
        for h in (*acceptance_corpus(), bicycle, emergency, ecology):
            for op in (merge, meet):
                out = op(h, h)
                assert len(out.simplices) == len(h.simplices)
                assert all(a is b for a, b in zip(out.simplices, h.simplices))

    def test_one_added_tag_copies_one_hypersimplex(self, bicycle, emergency, ecology):
        for h in (*acceptance_corpus(), bicycle, emergency, ecology):
            if not h.simplices:
                continue
            k = len(h.simplices) // 2
            retagged = Hypernetwork(h.vertices, h.relations, tuple(
                s.with_tags(s.tags + ("b_added",)) if i == k else s
                for i, s in enumerate(h.simplices)
            ))
            out = merge(h, retagged)
            assert len(out.simplices) == len(h.simplices)
            for i, (a, b) in enumerate(zip(out.simplices, h.simplices)):
                if i == k:
                    assert a is not b
                    assert a.structurally_equal(b) and a.tags == b.tags + ("b_added",)
                else:
                    assert a is b

    def test_prune_difference_and_split_share_what_they_keep(self, bicycle, emergency, ecology):
        nets = (*acceptance_corpus(), bicycle, emergency, ecology, _already_excluded())
        for i, h in enumerate(nets):
            names = [*h.vertices, *(s.id for s in h.simplices)]
            outs = [difference(h, EMPTY), difference(h, nets[i - 1])]
            outs += [op(h, [n]) for n in names for op in (prune, split)]
            assert all(_shares_unchanged(out, h) for out in outs)


# Tag tuples on each side of a shared hypersimplex: empty, one tag, two in
# either order, a disjoint pair, and a repeated tag.
TAG_TUPLES = [(), ("p",), ("p", "q"), ("q", "p"), ("q", "z"), ("p", "p")]


class TestRetagging:
    """``merge`` and ``meet`` retag through ``model._retagged`` and skip work on empty tags."""

    @pytest.mark.parametrize("op", ["merge", "meet"])
    @pytest.mark.parametrize("left", TAG_TUPLES, ids=repr)
    @pytest.mark.parametrize("right", TAG_TUPLES, ids=repr)
    def test_tags_match_the_reference(self, op, left, right):
        h1, h2 = _one_simplex_net(left), _one_simplex_net(right)
        # Equal typed outcomes: full-equal results with the same name types.
        assert outcome(getattr(ops, op), h1, h2) == outcome(REFERENCE[op], h1, h2)

    @pytest.mark.parametrize("kind", Kind)
    @pytest.mark.parametrize("tags", TAG_TUPLES, ids=repr)
    def test_a_retagged_value_is_a_constructed_value(self, bicycle, kind, tags):
        tags = tuple(map(Identifier, tags))
        for s in bicycle.simplices:
            s = Hypersimplex(s.id, s.participants, s.relation, kind, s.tags)
            got = _retagged(s, tags)
            want = Hypersimplex(s.id, s.participants, s.relation, kind, tags)
            assert type(got) is Hypersimplex
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            assert dataclasses.astuple(got) == dataclasses.astuple(want)
            for protocol in (2, pickle.HIGHEST_PROTOCOL):
                copied = pickle.loads(pickle.dumps(got, protocol))
                assert copied == want and repr(copied) == repr(want)
            assert got.tags is tags and got.participants is s.participants

    def test_every_assignment_to_a_retagged_value_raises(self, bicycle):
        s = bicycle.simplices[0]
        got = _retagged(s, (Identifier("p"),))
        for field in dataclasses.fields(got):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, field.name, getattr(s, field.name))
        for name in ("other", "__dict__"):
            with pytest.raises((AttributeError, TypeError)):
                setattr(got, name, None)
        assert got == s.with_tags(["p"])
