"""Packaged example hypernetworks: bicycle, emergency, ecology.

Each fixture ships as a canonical ``.ht`` file. Structural digests are
pinned here so an accidental edit to a fixture fails the test suite.
"""

from __future__ import annotations

import os

from ..errors import FixtureMissingError
from ..model import Hypernetwork
from ..text import parse

FIXTURE_FILES = {
    "E1": "bicycle.ht",
    "E2": "emergency.ht",
    "E3": "ecology.ht",
    "bicycle": "bicycle.ht",
    "emergency": "emergency.ht",
    "ecology": "ecology.ht",
}

# Pinned structural digests of the fixtures (regression anchors).
DIGESTS = {
    "E1": "e9fc890d1f660a7cde9364b53b303a5ca63c79b846016ed90fd822daa0c269b4",
    "E2": "d56d592dd2b48f712496a09e2556c0a210b48566116983d5c03151d75cef80e1",
    "E3": "a02ab2a1c732a6a050d6a6772ff8f661509e2a8428a557647d2241f71aedff68",
}


def fixture_source(name: str) -> str:
    """Raw canonical text of a fixture; names E1/E2/E3 or the file stems."""
    try:
        filename = FIXTURE_FILES[name]
    except KeyError:
        raise FixtureMissingError(f"unknown fixture {name!r}; expected one of "
                                  + ", ".join(sorted(FIXTURE_FILES))) from None
    try:
        with open(os.path.join(os.path.dirname(__file__), filename), encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise FixtureMissingError(f"fixture file {filename} is missing: {exc}") from exc


def load_fixture(name: str) -> Hypernetwork:
    """Parse and return one of the packaged fixtures."""
    return parse(fixture_source(name))
