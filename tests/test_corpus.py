from __future__ import annotations

import pytest

from hyperscope import FixtureMissingError, load_fixture, serialize, structural_digest, validate
from hyperscope.corpus import DIGESTS, FIXTURE_FILES, fixture_source


def test_all_fixtures_validate(bicycle, emergency, ecology):
    for h in (bicycle, emergency, ecology):
        assert validate(h).ok


def test_shapes(bicycle, emergency, ecology):
    assert len(bicycle.simplices) == 7
    assert bicycle.tag_universe() == ("b_bicycle", "b_person", "b_cyclist")
    assert len(emergency.simplices) == 4
    assert len(ecology.simplices) == 3
    assert ecology.tag_universe() == ("b_predator", "b_prey", "b_habitat")


def test_report_is_triple_tagged(emergency):
    assert emergency.simplex("report").tags == ("b_fire", "b_ambulance", "b_police")


def test_targets_binds_training_plan_and_cardio(bicycle):
    targets = bicycle.simplex("targets")
    assert [str(p.ref) for p in targets.participants] == ["trainingPlan", "cardio"]


def test_nested_participants_resolve_to_hypersimplices(bicycle):
    cyclist = bicycle.simplex("cyclist")
    assert bicycle.simplex("person") is not None
    assert bicycle.simplex("bicycle") is not None
    assert [str(p.ref) for p in cyclist.participants] == ["person", "bicycle", "trainingPlan"]


def test_digests_are_pinned():
    for key, expected in DIGESTS.items():
        assert structural_digest(load_fixture(key)) == expected


def test_fixture_files_are_canonical():
    for key in ("E1", "E2", "E3"):
        src = fixture_source(key)
        assert serialize(load_fixture(key)) == src


def test_name_aliases():
    assert load_fixture("bicycle") == load_fixture("E1")
    assert load_fixture("emergency") == load_fixture("E2")
    assert load_fixture("ecology") == load_fixture("E3")


def test_missing_fixture():
    with pytest.raises(FixtureMissingError):
        load_fixture("E4")


def test_unreadable_fixture_file(monkeypatch):
    monkeypatch.setitem(FIXTURE_FILES, "E1", "no-such-file.ht")
    with pytest.raises(FixtureMissingError, match=r"\Afixture file no-such-file\.ht "):
        load_fixture("E1")
