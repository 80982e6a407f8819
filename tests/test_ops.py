from __future__ import annotations

import os
import subprocess
import sys
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
    merge,
    meet,
    parse,
    prune,
    serialize,
    split,
    validate,
)


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
        pruned = prune(h, {"b"})
        assert [str(p) for p in pruned.simplex("x").participants] == ["a", "!b"]

    def test_unresolved_member(self, bicycle):
        with pytest.raises(UnresolvedIdentifierError):
            prune(bicycle, {"ghost"})

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
