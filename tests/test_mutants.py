"""The mutation list of ``tests/mutants.py`` still matches the package source."""

from __future__ import annotations

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_old_text_occurs_exactly_once_in_its_file(mutant):
    text = (ROOT / "src" / "hyperscope" / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
