from __future__ import annotations

import random

import pytest

from hyperscope import (
    Hypernetwork,
    Hypersimplex,
    Identifier,
    Kind,
    Participant,
    RelationSymbol,
    UnresolvedIdentifierError,
    descendants,
    prune,
    scoped_prune,
    scoped_split,
    serialize,
    split,
    structural_digest,
)

from gen import closure_oracle, random_hypernetwork

BICYCLE_CLOSURE = {
    "bicycle", "frame", "drive", "balance", "rear-wheel", "chain", "pedals", "gears",
}
CYCLIST_CLOSURE = BICYCLE_CLOSURE | {
    "cyclist", "person", "trainingPlan", "body", "legs", "arms",
}


class TestIdentifier:
    def test_accepts_word_characters(self):
        assert Identifier("rear-wheel_2") == "rear-wheel_2"

    @pytest.mark.parametrize("bad", ["", "a b", "x;y", "a<b", "x!", "a#b", "x:y", "a,b", "a=b", None, 7])
    def test_rejects_bad_names(self, bad):
        with pytest.raises(ValueError):
            Identifier(bad)

    def test_interops_with_str(self):
        assert Identifier("frame") in {"frame", "chain"}


class TestConstructors:
    def test_relation_needs_roles(self):
        with pytest.raises(ValueError):
            RelationSymbol(Identifier("R"), ())

    def test_relation_rejects_duplicate_roles(self):
        with pytest.raises(ValueError):
            RelationSymbol(Identifier("R"), ("r1", "r1"))

    def test_relation_rejects_empty_role(self):
        with pytest.raises(ValueError):
            RelationSymbol(Identifier("R"), ("r1", ""))

    # A role that is not an identifier would serialize to text that does not
    # parse back, or parses back with a different arity.
    @pytest.mark.parametrize("bad", ["r 1", "a,b", "r)"])
    def test_relation_rejects_non_identifier_role(self, bad):
        with pytest.raises(ValueError):
            RelationSymbol(Identifier("R"), ("r0", bad))

    def test_simplex_needs_participants(self):
        with pytest.raises(ValueError):
            Hypersimplex(Identifier("x"), (), Identifier("R"))


class TestEquality:
    def _simplex(self, tags):
        return Hypersimplex(
            Identifier("x"),
            (Participant(Identifier("a")),),
            Identifier("R"),
            Kind.ALPHA,
            tuple(Identifier(t) for t in tags),
        )

    def test_structural_equality_ignores_tags(self):
        assert self._simplex(["p"]).structurally_equal(self._simplex(["q", "r"]))
        assert self._simplex([]).structurally_equal(self._simplex(["p"]))

    def test_full_equality_compares_tags(self):
        assert self._simplex(["p"]) != self._simplex(["q"])
        assert self._simplex(["p"]) == self._simplex(["p"])

    def test_identity_is_the_id(self):
        other = Hypersimplex(
            Identifier("x"), (Participant(Identifier("b")),), Identifier("R")
        )
        assert other.id == self._simplex([]).id
        assert not other.structurally_equal(self._simplex([]))

    def test_structural_equality_invariant_under_retagging(self):
        rng = random.Random(7)
        tags = ["p", "q", "r", "s"]
        for _ in range(50):
            a = self._simplex(rng.sample(tags, rng.randint(0, 4)))
            b = self._simplex(rng.sample(tags, rng.randint(0, 4)))
            assert a.structurally_equal(b)


class TestDescendants:
    def test_bicycle_closure(self, bicycle):
        assert descendants(bicycle, {"bicycle"}) == BICYCLE_CLOSURE

    def test_plain_vertex_is_its_own_closure(self, bicycle):
        assert descendants(bicycle, {"frame"}) == {"frame"}

    def test_cyclist_closure_stays_downward(self, bicycle):
        got = descendants(bicycle, {"cyclist"})
        assert got == CYCLIST_CLOSURE
        assert "steering" not in got
        assert "cardio" not in got

    def test_matches_oracle_on_fixture(self, bicycle):
        for root in ["bicycle", "cyclist", "targets", "frame", "fitness"]:
            assert descendants(bicycle, {root}) == closure_oracle(bicycle, {root})

    def test_unresolved_root(self, bicycle):
        with pytest.raises(UnresolvedIdentifierError):
            descendants(bicycle, {"ghost"})

    # Every name-taking function resolves names with one check, and a
    # malformed name is never declared, so it is unresolved like any other.
    @pytest.mark.parametrize("call", [
        descendants,
        prune,
        split,
        lambda h, names: scoped_prune(h, names, "b_cyclist"),
        lambda h, names: scoped_split(h, names, "b_cyclist"),
    ], ids=["descendants", "prune", "split", "scoped_prune", "scoped_split"])
    def test_malformed_root_is_unresolved_not_a_value_error(self, bicycle, call):
        with pytest.raises(UnresolvedIdentifierError, match=r"^not an identifier "):
            call(bicycle, ["frame", "not an identifier"])

    def test_excluded_refs_not_traversed(self):
        h = Hypernetwork(
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
        assert descendants(h, {"x"}) == {"x", "a"}

    def test_monotone_and_idempotent(self, bicycle):
        small = descendants(bicycle, {"bicycle"})
        big = descendants(bicycle, {"bicycle", "person"})
        assert small <= big
        assert descendants(bicycle, small) == small

    def test_matches_oracle_on_random_networks(self):
        rng = random.Random(99)
        for _ in range(50):
            h = random_hypernetwork(rng)
            if not h.simplices:
                continue
            roots = {rng.choice(h.simplices).id}
            assert descendants(h, roots) == closure_oracle(h, roots)


class TestDigest:
    def test_round_trip_fixed_point(self, emergency):
        from hyperscope import parse

        assert structural_digest(parse(serialize(emergency))) == structural_digest(emergency)

    def test_sensitive_to_tag_changes(self, emergency):
        retagged = Hypernetwork(
            emergency.vertices,
            emergency.relations,
            tuple(
                s.with_tags(list(s.tags) + ["b_extra"]) if s.id == "fireUnit" else s
                for s in emergency.simplices
            ),
        )
        assert structural_digest(retagged) != structural_digest(emergency)

    def test_sensitive_to_order(self, ecology):
        reordered = Hypernetwork(
            tuple(reversed(ecology.vertices)), ecology.relations, ecology.simplices
        )
        assert structural_digest(reordered) != structural_digest(ecology)
