from __future__ import annotations

import pytest

from hyperscope import (
    BaseMismatchError,
    Hypernetwork,
    Hypersimplex,
    Identifier,
    Kind,
    Participant,
    RelationSymbol,
    UnresolvedIdentifierError,
    difference,
    project,
    scoped_apply,
    scoped_prune,
    scoped_split,
    serialize,
    validate,
    view_intersect,
    view_union,
    visible_set,
)


def _net(vertices, relations, sims):
    return Hypernetwork(
        tuple(Identifier(v) for v in vertices),
        tuple(RelationSymbol(Identifier(n), roles) for n, roles in relations),
        tuple(sims),
    )


def _sx(name, refs, rel, tags=()):
    return Hypersimplex(
        Identifier(name),
        tuple(Participant(Identifier(r)) for r in refs),
        Identifier(rel),
        Kind.ALPHA,
        tuple(Identifier(t) for t in tags),
    )


class TestVisibleSet:
    def test_fire_extent(self, emergency):
        assert visible_set(emergency, "b_fire") == {
            "fireUnit", "report", "crew", "engine", "equipment", "incident", "location",
        }

    def test_unknown_tag_is_empty(self, emergency):
        assert visible_set(emergency, "b_ghost") == set()

    def test_cyclist_extent_is_downward_only(self, bicycle):
        got = visible_set(bicycle, "b_cyclist")
        assert {"cyclist", "targets", "person", "bicycle", "drive"} <= got
        assert "steering" not in got
        assert "fitness" not in got
        assert "strength" not in got


class TestProject:
    def test_fire_view_membership_and_tags(self, emergency):
        view = project(emergency, "b_fire")
        assert [str(s.id) for s in view.content.simplices] == ["fireUnit", "report"]
        report = view.content.simplex("report")
        assert report.tags == ("b_fire", "b_ambulance", "b_police")

    def test_all_three_services_see_report(self, emergency):
        for tag, unit in (
            ("b_fire", "fireUnit"),
            ("b_ambulance", "ambulanceUnit"),
            ("b_police", "policeUnit"),
        ):
            ids = {str(s.id) for s in project(emergency, tag).content.simplices}
            assert ids == {unit, "report"}

    def test_total_visibility_returns_whole_net(self, emergency):
        # every emergency hypersimplex carries a tag; tag them all with one
        tagged = Hypernetwork(
            emergency.vertices,
            emergency.relations,
            tuple(s.with_tags(list(s.tags) + ["b_all"]) for s in emergency.simplices),
        )
        assert project(tagged, "b_all").content == tagged

    def test_projection_is_idempotent(self, bicycle):
        once = project(bicycle, "b_person").content
        assert project(once, "b_person").content == once

    def test_content_simplices_are_verbatim_copies(self, bicycle):
        base = {s.id: s for s in bicycle.simplices}
        for tag in bicycle.tag_universe():
            for s in project(bicycle, tag).content.simplices:
                assert s == base[s.id]

    def test_backcloth_untouched(self, bicycle):
        before = serialize(bicycle)
        project(bicycle, "b_cyclist")
        assert serialize(bicycle) == before

    def test_malformed_tag_projects_like_an_unknown_tag(self, bicycle):
        bad, unknown = project(bicycle, "a b"), project(bicycle, "b_ghost")
        assert bad.content == unknown.content == Hypernetwork()
        assert bad.base_digest == unknown.base_digest
        assert visible_set(bicycle, "a b") == set()

    def test_view_provenance(self, ecology):
        from hyperscope import structural_digest

        view = project(ecology, "b_prey")
        assert view.boundary == "b_prey"
        assert view.base_digest == structural_digest(ecology)


class TestScopedApply:
    def test_difference_diverges_from_global(self):
        # x is tagged in h_a and untagged in h_b: the scoped difference
        # keeps x, while projecting the global difference yields nothing
        h_a = _net(["a"], [("R", ("r1",))], [_sx("x", ["a"], "R", tags=["b"])])
        h_b = _net(["a"], [("R", ("r1",))], [_sx("x", ["a"], "R")])

        scoped = scoped_apply("difference", h_a, h_b, "b")
        assert [str(s.id) for s in scoped.content.simplices] == ["x"]
        assert scoped.content.simplices[0].tags == ("b",)

        global_then_project = project(difference(h_a, h_b), "b")
        assert global_then_project.content == Hypernetwork()
        assert scoped.content != global_then_project.content

    def test_self_merge_equals_projection(self, emergency):
        view = scoped_apply("merge", emergency, emergency, "b_police")
        assert view.content == project(emergency, "b_police").content
        assert view.boundary is None

    def test_meet_of_disjoint_extents_is_empty(self, ecology):
        h_a = _net(["a"], [("R", ("r1",))], [_sx("x", ["a"], "R", tags=["b"])])
        assert scoped_apply("meet", h_a, ecology, "b").content == Hypernetwork()

    @pytest.mark.parametrize("op", ["merge", "meet", "difference"])
    def test_malformed_tag_applies_like_an_unknown_tag(self, bicycle, op):
        assert scoped_apply(op, bicycle, bicycle, "a b") == scoped_apply(op, bicycle, bicycle, "b_ghost")

    def test_unknown_operator(self, ecology):
        with pytest.raises(ValueError):
            scoped_apply("prune", ecology, ecology, "b_prey")

    def test_provenance_digest(self, bicycle, ecology):
        same = scoped_apply("merge", bicycle, bicycle, "b_person")
        assert same.base_digest == project(bicycle, "b_person").base_digest
        mixed = scoped_apply("merge", bicycle, ecology, "b_person")
        assert mixed.base_digest not in (
            project(bicycle, "b_person").base_digest,
            project(ecology, "b_person").base_digest,
        )
        # single-source provenance lets scoped results join view comparisons
        u = view_union(same, project(bicycle, "b_cyclist"))
        assert "cyclist" in {str(s.id) for s in u.content.simplices}


class TestScopedPrune:
    def test_cyclist_refinement(self, bicycle):
        view = scoped_prune(bicycle, {"trainingPlan"}, "b_cyclist")
        cyclist = view.content.simplex("cyclist")
        targets = view.content.simplex("targets")
        assert [str(p) for p in cyclist.participants] == ["person", "bicycle", "!trainingPlan"]
        assert [str(p) for p in targets.participants] == ["!trainingPlan", "cardio"]
        assert validate(view.content).ok

    def test_fire_refinement_leaves_other_views_alone(self, emergency):
        before_amb = project(emergency, "b_ambulance")
        before_pol = project(emergency, "b_police")
        view = scoped_prune(emergency, {"equipment"}, "b_fire")
        fire_unit = view.content.simplex("fireUnit")
        assert [str(p) for p in fire_unit.participants] == ["crew", "engine", "!equipment"]
        assert view.content.simplex("report") == emergency.simplex("report")
        assert project(emergency, "b_ambulance") == before_amb
        assert project(emergency, "b_police") == before_pol

    def test_empty_prune_is_projection(self, emergency):
        assert scoped_prune(emergency, set(), "b_fire").content == project(emergency, "b_fire").content

    def test_invisible_element_is_unresolved(self, bicycle):
        # strength exists globally but is not visible in the cyclist view
        with pytest.raises(UnresolvedIdentifierError):
            scoped_prune(bicycle, {"strength"}, "b_cyclist")

    @pytest.mark.parametrize("scoped", [scoped_prune, scoped_split])
    def test_nothing_is_visible_under_a_malformed_tag(self, bicycle, scoped):
        with pytest.raises(UnresolvedIdentifierError) as exc:
            scoped(bicycle, {"bicycle"}, "a b")
        assert str(exc.value) == "bicycle is not visible under boundary a b"

    def test_backcloth_byte_identical(self, bicycle):
        before = serialize(bicycle)
        scoped_prune(bicycle, {"trainingPlan"}, "b_cyclist")
        assert serialize(bicycle) == before


class TestScopedSplit:
    def test_bicycle_closure_inside_cyclist_view(self, bicycle):
        view = scoped_split(bicycle, {"bicycle"}, "b_cyclist")
        assert [str(s.id) for s in view.content.simplices] == ["bicycle", "drive"]
        assert "steering" not in {str(s.id) for s in view.content.simplices}
        assert set(view.content.vertices) == {
            "frame", "balance", "rear-wheel", "chain", "pedals", "gears",
        }

    def test_coincides_with_projection_when_closure_fully_tagged(self, bicycle):
        closure = {"bicycle", "drive"}
        tagged = Hypernetwork(
            bicycle.vertices,
            bicycle.relations,
            tuple(
                s.with_tags(list(s.tags) + ["b_star"]) if str(s.id) in closure else s
                for s in bicycle.simplices
            ),
        )
        assert scoped_split(tagged, {"bicycle"}, "b_star").content == project(tagged, "b_star").content

    def test_full_visibility_split(self, emergency):
        tagged = Hypernetwork(
            emergency.vertices,
            emergency.relations,
            tuple(s.with_tags(list(s.tags) + ["b_all"]) for s in emergency.simplices),
        )
        from hyperscope import split

        view = scoped_split(tagged, {"fireUnit"}, "b_all")
        assert view.content == split(tagged, {"fireUnit"})

    def test_invisible_seed_is_unresolved(self, bicycle):
        with pytest.raises(UnresolvedIdentifierError):
            scoped_split(bicycle, {"fitness"}, "b_cyclist")


class TestViewAlgebra:
    def test_person_cyclist_overlap(self, bicycle):
        overlap = view_intersect(project(bicycle, "b_person"), project(bicycle, "b_cyclist"))
        assert [str(s.id) for s in overlap.content.simplices] == ["person"]
        assert set(overlap.content.vertices) == {"body", "legs", "arms", "cardio"}
        assert overlap.boundary is None

    def test_self_intersection_keeps_content(self, ecology):
        v = project(ecology, "b_prey")
        assert view_intersect(v, v).content == v.content

    def test_ecology_pairwise_shared_identities(self, ecology):
        predator = project(ecology, "b_predator")
        prey = project(ecology, "b_prey")
        habitat = project(ecology, "b_habitat")
        assert "stag" in view_intersect(predator, prey).content.vertices
        assert "grass" in view_intersect(prey, habitat).content.vertices

    def test_union_of_all_emergency_views_covers_backcloth(self, emergency):
        fire = project(emergency, "b_fire")
        amb = project(emergency, "b_ambulance")
        pol = project(emergency, "b_police")
        union = view_union(view_union(fire, amb), pol)
        assert {s for s in union.content.simplices} == set(emergency.simplices)
        assert set(union.content.vertices) == set(emergency.vertices)
        assert set(union.content.relations) == set(emergency.relations)
        assert validate(union.content).ok

    def test_union_with_empty_view_is_identity(self, emergency):
        v = project(emergency, "b_fire")
        empty = project(emergency, "b_nothing")
        assert view_union(v, empty).content == v.content

    def test_union_order_is_left_then_right_only(self, ecology):
        u = view_union(project(ecology, "b_predator"), project(ecology, "b_prey"))
        assert [str(s.id) for s in u.content.simplices] == ["predation", "foraging"]

    def test_base_mismatch(self, bicycle, ecology):
        with pytest.raises(BaseMismatchError):
            view_intersect(project(bicycle, "b_person"), project(ecology, "b_prey"))
        with pytest.raises(BaseMismatchError):
            view_union(project(bicycle, "b_person"), project(ecology, "b_prey"))

    def test_overlap_law(self, bicycle, emergency, ecology):
        for h in (bicycle, emergency, ecology):
            tags = h.tag_universe()
            for b1 in tags:
                for b2 in tags:
                    inter = view_intersect(project(h, b1), project(h, b2))
                    ids = set(inter.content.vertices) | {s.id for s in inter.content.simplices}
                    assert ids == visible_set(h, b1) & visible_set(h, b2)
