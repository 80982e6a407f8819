from __future__ import annotations

import time

from hyperscope import (
    Hypernetwork,
    Hypersimplex,
    Identifier,
    Kind,
    Participant,
    RelationSymbol,
    validate,
)

from gen import invalid_values


def _r(name, *roles):
    return RelationSymbol(Identifier(name), roles)


def _sx(name, refs, rel, tags=(), kind=Kind.ALPHA):
    parts = tuple(
        Participant(Identifier(r.lstrip("!")), excluded=r.startswith("!")) for r in refs
    )
    return Hypersimplex(Identifier(name), parts, Identifier(rel), kind,
                        tuple(Identifier(t) for t in tags))


def test_fixtures_are_valid(bicycle, emergency, ecology):
    for h in (bicycle, emergency, ecology):
        assert validate(h).ok


def test_duplicate_simplex_identity_is_one_a1(bicycle):
    h = Hypernetwork(
        vertices=(Identifier("a"),),
        relations=(_r("R", "r1"),),
        simplices=(_sx("x", ["a"], "R"), _sx("x", ["a"], "R")),
    )
    report = validate(h)
    assert [v.axiom for v in report.violations] == ["A1"]
    assert report.violations[0].subject == "x"


def test_arity_mismatch_is_a4():
    h = Hypernetwork(
        vertices=(Identifier("crew"), Identifier("engine")),
        relations=(_r("R_fireUnit", "r1", "r2", "r3"),),
        simplices=(_sx("fireUnit", ["crew", "engine"], "R_fireUnit"),),
    )
    report = validate(h)
    assert [(v.axiom, v.subject) for v in report.violations] == [("A4", "fireUnit")]


def test_extra_participants_are_a4_too():
    h = Hypernetwork(
        vertices=(Identifier("a"), Identifier("b")),
        relations=(_r("R", "r1"),),
        simplices=(_sx("x", ["a", "b"], "R"),),
    )
    assert [v.render() for v in validate(h).violations] == [
        "A4\tx\tbinds 2 participants to R which has arity 1"]


# Relation names live in their own namespace: a slot naming one resolves to nothing.
def test_a_participant_naming_a_relation_does_not_resolve():
    h = Hypernetwork(
        vertices=(Identifier("a"),),
        relations=(_r("R", "r1", "r2"),),
        simplices=(_sx("x", ["a", "R"], "R"), _sx("y", ["a", "!R"], "R")),
    )
    assert [v.render() for v in validate(h).violations] == [
        "A1\tx\tparticipant R does not resolve", "A2\ty\tanti-vertex R does not resolve"]


def test_unresolved_participant_is_a1():
    h = Hypernetwork(
        vertices=(),
        relations=(_r("R", "r1"),),
        simplices=(_sx("x", ["ghost"], "R"),),
    )
    assert [(v.axiom, v.subject) for v in validate(h).violations] == [("A1", "x")]


def test_unresolved_anti_vertex_is_a2():
    h = Hypernetwork(
        vertices=(Identifier("a"),),
        relations=(_r("R", "r1", "r2"),),
        simplices=(_sx("x", ["a", "!ghost"], "R"),),
    )
    assert [(v.axiom, v.subject) for v in validate(h).violations] == [("A2", "x")]


def test_bad_kind_is_a3():
    h = Hypernetwork(
        vertices=(Identifier("a"),),
        relations=(_r("R", "r1"),),
        simplices=(
            Hypersimplex(Identifier("x"), (Participant(Identifier("a")),),
                         Identifier("R"), "alpha"),
        ),
    )
    assert [v.axiom for v in validate(h).violations] == ["A3"]


def test_duplicate_tag_is_a5():
    sim = _sx("x", ["a"], "R", tags=["p"])
    sim = Hypersimplex(sim.id, sim.participants, sim.relation, sim.kind,
                       (Identifier("p"), Identifier("p")))
    h = Hypernetwork((Identifier("a"),), (_r("R", "r1"),), (sim,))
    assert [v.axiom for v in validate(h).violations] == ["A5"]


def test_malformed_declaration_name_is_a1():
    h = Hypernetwork(("a b",), (), ())
    assert [(v.axiom, v.subject, v.message) for v in validate(h).violations] == [
        ("A1", "a b", "'a b' is not a well-formed identifier")]
    # A name that is not a str is malformed too, although its str() is not.
    as_vertex = Hypernetwork((5,), (_r("R", "r1"),),
                             (Hypersimplex(Identifier("s"), (Participant(5),), Identifier("R")),))
    as_simplex = Hypernetwork((Identifier("a"),), (_r("R", "r1"),),
                              (Hypersimplex(5, _sx("s", ["a"], "R").participants, Identifier("R")),))
    for h in (as_vertex, as_simplex):
        assert validate(h).render() == "A1\t5\t5 is not a well-formed identifier"


def test_malformed_tag_is_a5_and_never_a_duplicate():
    sim = _sx("x", ["a"], "R")
    sim = Hypersimplex(sim.id, sim.participants, sim.relation, sim.kind, ("a b", "a b"))
    h = Hypernetwork((Identifier("a"),), (_r("R", "r1"),), (sim,))
    assert [(v.axiom, v.subject, v.message) for v in validate(h).violations] == [
        ("A5", "x", "tag 'a b' is not a well-formed identifier")] * 2


def test_containment_cycle_is_wellformed():
    h = Hypernetwork(
        vertices=(),
        relations=(_r("R", "r1"),),
        simplices=(_sx("x", ["y"], "R"), _sx("y", ["x"], "R")),
    )
    report = validate(h)
    assert [v.axiom for v in report.violations] == ["WELLFORMED"]
    assert report.violations[0].subject == "x"


def test_self_containment_is_a_cycle():
    h = Hypernetwork((), (_r("R", "r1"),), (_sx("x", ["x"], "R"),))
    assert [v.axiom for v in validate(h).violations] == ["WELLFORMED"]


def test_overlapping_cycles_are_one_report_of_linear_size():
    # s_i = < s_{i+1}, s0 ; R >: every member closes a cycle through s0, so a
    # report per cycle would hold text quadratic in n.
    n = 2000
    names = [f"s{i}" for i in range(n)] + ["a"]
    sims = tuple(_sx(names[i], [names[i + 1], "s0"], "R") for i in range(n))
    h = Hypernetwork((Identifier("a"),), (_r("R", "r1", "r2"),), sims)
    violations = validate(h).violations
    assert [(v.axiom, v.subject) for v in violations] == [("WELLFORMED", "s0")]
    assert len(violations[0].message) < 12 * n
    assert violations[0].message == "containment cycle: " + " -> ".join(names[:n] + ["s0"])


def test_which_invalid_values_validate_clean():
    assert [validate(h).ok for h in invalid_values()] == [False] * 8 + [True, False, True, True, True]


def test_excluded_reference_does_not_form_a_cycle():
    h = Hypernetwork(
        vertices=(Identifier("a"),),
        relations=(_r("R", "r1", "r2"),),
        simplices=(_sx("x", ["a", "!y"], "R"), _sx("y", ["a", "!x"], "R")),
    )
    assert validate(h).ok


def test_validation_is_total_and_ordered():
    h = Hypernetwork(
        vertices=(Identifier("a"), Identifier("a")),
        relations=(_r("R", "r1", "r2"),),
        simplices=(_sx("x", ["ghost"], "R"), _sx("y", ["a", "!gone"], "R")),
    )
    report = validate(h)
    assert [(v.axiom, v.subject) for v in report.violations] == [
        ("A1", "a"),
        ("A1", "x"),  # unresolved participant
        ("A4", "x"),  # one participant against arity two
        ("A2", "y"),
    ]


def test_validate_is_pure(emergency):
    assert validate(emergency) == validate(emergency)


def test_report_rendering_format():
    h = Hypernetwork((), (_r("R", "r1"),), (_sx("x", ["ghost"], "R"),))
    line = validate(h).render()
    axiom, subject, message = line.split("\t")
    assert axiom == "A1" and subject == "x" and "ghost" in message


def test_untagged_network_stays_valid(emergency):
    bare = Hypernetwork(
        emergency.vertices,
        emergency.relations,
        tuple(s.untagged() for s in emergency.simplices),
    )
    assert validate(bare).ok


def test_projection_of_valid_network_is_valid(bicycle, emergency, ecology):
    from hyperscope import project

    for h in (bicycle, emergency, ecology):
        for tag in h.tag_universe():
            assert validate(project(h, tag).content).ok


def test_wide_hub_validates_in_linear_time():
    k = 20_000
    kids = tuple(_sx(f"s{i}", [f"v{i}"], "R") for i in range(k))
    hub = _sx("hub", [s.id for s in kids], "R_hub")
    h = Hypernetwork(
        tuple(Identifier(f"v{i}") for i in range(k)),
        (_r("R", "r1"), _r("R_hub", *(f"r{i}" for i in range(k)))),
        kids + (hub,),
    )
    start = time.perf_counter()
    assert validate(h).ok
    # Quadratic in the hub's width, this took tens of seconds.
    assert time.perf_counter() - start < 3.0
