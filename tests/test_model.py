from __future__ import annotations

import dataclasses
import pickle
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

from gen import (
    acceptance_corpus,
    closure_oracle,
    fixtures,
    invalid_values,
    kind_mutants,
    net,
    random_hypernetwork,
    sim,
    unseeded,
    walk_oracle,
)
from hyperscope.model import walk

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

    # A bare str iterates as its characters, so "ab" would name "a" and "b".
    @pytest.mark.parametrize("build, field", [
        (lambda names: Hypersimplex("x", (Participant("a"),), "R", tags=names), "tags"),
        (lambda names: Hypersimplex("x", (Participant("a"),), "R").with_tags(names), "tags"),
        (lambda names: RelationSymbol("R", names), "roles"),
        (lambda names: Hypernetwork(vertices=names), "vertices"),
    ], ids=["tags", "with_tags", "roles", "vertices"])
    def test_a_bare_str_is_not_a_collection_of_names(self, build, field):
        with pytest.raises(TypeError, match=r"^expected a collection of names, not the str 'ab'$"):
            build("ab")
        assert getattr(build(["ab"]), field) == ("ab",)  # the one name, as a collection


class TestValueContract:
    """What ``repr``, equality, hashes and pickles of the slotted values read.

    Names here are plain ``str``: the constructors accept them, and the
    pins then say nothing about how ``Identifier`` itself pickles.
    """

    def _simplex(self):
        return Hypersimplex("x", (Participant("a"), Participant("b", excluded=True)), "R",
                            Kind.BETA, ("t",))

    def test_hypersimplex_stores_tuples_given_lists(self):
        s = Hypersimplex("x", [Participant("a")], "R", Kind.ALPHA, ["p", "q"])
        assert type(s.participants) is tuple and s.participants == (Participant("a"),)
        assert type(s.tags) is tuple and s.tags == ("p", "q")
        assert s == Hypersimplex("x", (Participant("a"),), "R", Kind.ALPHA, ("p", "q"))

    def test_keyword_construction_replace_and_with_tags_agree(self):
        s = self._simplex()
        by_keyword = Hypersimplex(tags=("t",), kind=Kind.BETA, relation="R", id="x",
                                  participants=s.participants)
        assert by_keyword == s
        assert dataclasses.replace(s) == s
        assert dataclasses.replace(s, tags=["u"]) == s.with_tags(["u"])
        assert s.with_tags(["u"]).tags == ("u",)
        assert s.with_tags(["u"]).with_tags(["t"]) == s
        assert Hypersimplex("x", s.participants, "R") == dataclasses.replace(
            s, kind=Kind.ALPHA, tags=())
        assert Participant(excluded=True, ref="b") == s.participants[1]
        assert Participant(ref="a") == s.participants[0]
        assert Participant("a").excluded is False
        assert dataclasses.replace(s.participants[0], excluded=True) == Participant("a", True)
        with pytest.raises(TypeError) as exc:
            Participant()
        assert str(exc.value) == "Participant.__init__() missing 1 required positional argument: 'ref'"

    def test_empty_participants_message(self):
        with pytest.raises(ValueError) as exc:
            Hypersimplex("x", [], "R")
        assert str(exc.value) == "hypersimplex x must bind at least one participant"

    def test_repr(self):
        assert repr(self._simplex()) == (
            "Hypersimplex(id='x', participants=(Participant(ref='a', excluded=False), "
            "Participant(ref='b', excluded=True)), relation='R', kind=<Kind.BETA: 'beta'>, "
            "tags=('t',))"
        )
        assert repr(Participant("a", True)) == "Participant(ref='a', excluded=True)"

    def test_pickle_bytes_and_round_trip(self):
        s = self._simplex()
        data = pickle.dumps(s, protocol=4)
        assert data == (
            b"\x80\x04\x95\x81\x00\x00\x00\x00\x00\x00\x00\x8c\x10hyperscope.model\x94"
            b"\x8c\x0cHypersimplex\x94\x93\x94)\x81\x94]\x94(\x8c\x01x\x94h\x00"
            b"\x8c\x0bParticipant\x94\x93\x94)\x81\x94]\x94(\x8c\x01a\x94\x89ebh\x07)"
            b"\x81\x94]\x94(\x8c\x01b\x94\x88eb\x86\x94\x8c\x01R\x94h\x00\x8c\x04Kind"
            b"\x94\x93\x94\x8c\x04beta\x94\x85\x94R\x94\x8c\x01t\x94\x85\x94eb."
        )
        assert pickle.loads(data) == s

    def test_participant_equality_and_hash(self):
        a, same = Participant("a"), Participant(Identifier("a"), False)
        assert a == same and hash(a) == hash(same)
        assert hash(a) == hash(("a", False))
        assert a != Participant("a", excluded=True)
        assert a != Participant("b")
        assert len({a, same, Participant("a", True)}) == 2
        assert a.__eq__(("a", False)) is NotImplemented
        assert a != ("a", False) and ("a", False) != a


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

    # A bare str iterates as its characters, so "ab" would name "a" and "b".
    @pytest.mark.parametrize("call", [
        descendants,
        prune,
        split,
        lambda h, names: scoped_prune(h, names, "t"),
        lambda h, names: scoped_split(h, names, "t"),
    ], ids=["descendants", "prune", "split", "scoped_prune", "scoped_split"])
    def test_a_bare_str_is_not_a_collection_of_names(self, call):
        h = net(("a", "b"), simplices=(sim("ab", "a", "t"), sim("s", "b", "t")))
        with pytest.raises(TypeError, match=r"^expected a collection of names, not the str 'ab'$"):
            call(h, "ab")
        call(h, ("ab",))  # the one name, as a collection, resolves

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


class TestWalk:
    """``walk``'s closure, reached positions and anti-only names against ``gen.walk_oracle``."""

    # Shapes the corpus never builds: a self-reference, a cycle through a
    # forward reference, a name reached only through ``!x``, and a vertex
    # that is also the id of a hypersimplex declared twice.
    ODD = (
        net(simplices=(sim("s", "s"),)),
        net(simplices=(sim("x", "y"), sim("y", "x"), sim("z", "y"))),
        net(("a", "b"), simplices=(sim("s", "a"), sim("t", "b", excluded=True), sim("u", "t"))),
        net(("a", "s"), simplices=(sim("s", "a"), sim("t", "s", excluded=True), sim("s", "t"))),
    )

    @staticmethod
    def _root_sets(h, rng):
        names = sorted({*h.vertices, *(s.id for s in h.simplices)})
        yield from ({n} for n in names)
        yield set(names)
        for _ in range(3):
            yield set(rng.sample(names, rng.randint(0, len(names))))

    def _differences(self, values):
        rng = random.Random(23)
        out = []
        for k, h in enumerate(values):
            for roots in self._root_sets(h, rng):
                closure, reached, anti = walk(h, tuple(roots))
                got = (closure, sorted(reached), anti)
                if got != walk_oracle(h, roots):
                    out.append((k, sorted(roots)))
        return out

    def test_the_corpus_and_the_fixtures(self):
        assert self._differences(acceptance_corpus() + fixtures()) == []

    def test_invalid_values_kind_mutants_and_odd_shapes(self):
        values = [*invalid_values(), *self.ODD, *(m for h in acceptance_corpus()[:200] for m in kind_mutants(h))]
        assert self._differences(values) == []

    def test_the_odd_shapes_reach_what_they_should(self):
        self_ref, cycle, anti_only, twice = self.ODD
        assert walk_oracle(self_ref, {"s"}) == ({"s"}, [0], set())
        assert walk_oracle(cycle, {"z"}) == ({"x", "y", "z"}, [0, 1, 2], set())
        assert walk_oracle(anti_only, {"u"}) == ({"u", "t"}, [1, 2], {"b"})
        # Only the first declaration of "s" is followed, so "t" stays unreached.
        assert walk_oracle(twice, {"s"}) == ({"s", "a"}, [0], set())


class TestDigest:
    def test_round_trip_fixed_point(self, emergency):
        from hyperscope import parse

        assert structural_digest(parse(serialize(emergency))) == structural_digest(emergency)
        assert structural_digest(unseeded(parse(serialize(emergency)))) == structural_digest(emergency)

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
