"""The ingest fast paths against the code they replace.

Three checks on the parse → validate → serialize path skip work that
cannot change a result:

* ``validate`` checks every declared name, and then every tag, with one
  regex match over all of them joined by ``"\\n"``, and checks names one
  by one only when that match fails;
* ``validate`` runs the containment cycle search only when some Present
  reference names a hypersimplex declared at or after its referrer;
* ``serialize`` renders each hypersimplex inline. The renderer it replaced
  is kept below verbatim as the reference.
"""

from __future__ import annotations

import tracemalloc

import pytest

from hyperscope import (
    Hypernetwork,
    Hypersimplex,
    Identifier,
    Participant,
    RelationSymbol,
    serialize,
    validate,
)
from hyperscope import axioms
from hyperscope.model import _all_identifiers, is_identifier

from gen import R, acceptance_corpus, fixtures, invalid_values, kind_mutants, net, sim
from test_validate_reference import listed, reference_validate


# --- one match for all names -------------------------------------------------

NAME_LISTS = [
    [], [""], ["a\nb"], ["a\n"], ["\n"], ["a\r"], ["é"], [5], [None],
    [Identifier("x-1_Y")], ["a"], ["a", "b"], ["a", ""], ["", "a"], ["a", "", "b"],
    ["a", "b\nc"], ["a\n", "b"], ["a", "\nb"], ["a", 5], [Identifier("a"), "b"],
    ["a", "é"], ["a b"], ["a", None, "b"], ["\n", "\n"], ["a", "b", "\n"],
    dict.fromkeys(["a", "b", "c"]),
]


@pytest.mark.parametrize("names", NAME_LISTS, ids=repr)
def test_one_match_agrees_with_checking_each_name(names):
    assert _all_identifiers(names) == all(is_identifier(n) for n in names)


def test_one_match_allocates_only_the_joined_string():
    names = [f"n{i}" for i in range(10**5)]
    size = len("\n".join(names))
    tracemalloc.start()
    try:
        assert _all_identifiers(names)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * size


# --- the cycle search runs only when it can report ---------------------------

def points_forward(h: Hypernetwork) -> bool:
    """Whether some Present reference names a hypersimplex declared at or after its referrer."""
    first: dict[str, int] = {}
    for i, s in enumerate(h.simplices):
        first.setdefault(s.id, i)
    return any(not p.excluded and first.get(p.ref, -1) >= i
               for i, s in enumerate(h.simplices) for p in s.participants)


def forbid_cycle_search(monkeypatch):
    def search(h):
        raise AssertionError("the containment cycle search ran")
    monkeypatch.setattr(axioms, "_containment_cycles", search)


def test_backward_only_values_validate_without_the_search(monkeypatch):
    values = [h for h in acceptance_corpus() + fixtures() if not points_forward(h)]
    assert len(values) > 900
    reports = [listed(validate(h)) for h in values]
    forbid_cycle_search(monkeypatch)
    assert [listed(validate(h)) for h in values] == reports


SELF = net(simplices=(sim("s", "s"),))
FORWARD = net(simplices=(sim("s", "t"), sim("t", "a")))
FORWARD_CYCLE = net(simplices=(sim("s", "t"), sim("t", "s")))
FORWARD_ANTI_VERTEX = net(simplices=(sim("s", "t", excluded=True), sim("t", "s")))
# "s" is declared twice; its later declaration refers back to "t", which
# refers to the first "s": a loop only through the later declaration.
LATER_DUPLICATE_LOOP = net(simplices=(sim("s", "a"), sim("t", "s"), sim("s", "t")))
# The same, with the later "s" declared before "t", so it points forward.
LATER_DUPLICATE_FORWARD = net(simplices=(sim("s", "a"), sim("s", "t"), sim("t", "s")))

HAND_BUILT = {
    "self": SELF,
    "forward": FORWARD,
    "forward cycle": FORWARD_CYCLE,
    "forward anti-vertex": FORWARD_ANTI_VERTEX,
    "later duplicate loop": LATER_DUPLICATE_LOOP,
    "later duplicate forward": LATER_DUPLICATE_FORWARD,
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_values_match_the_reference(name):
    h = HAND_BUILT[name]
    assert listed(validate(h)) == listed(reference_validate(h))


def test_the_search_is_skipped_exactly_when_nothing_points_forward(monkeypatch):
    assert [v.axiom for v in validate(SELF).violations] == ["WELLFORMED"]
    assert [v.axiom for v in validate(FORWARD_CYCLE).violations] == ["WELLFORMED"]
    forbid_cycle_search(monkeypatch)
    for name, h in HAND_BUILT.items():
        if points_forward(h):
            with pytest.raises(AssertionError, match="cycle search ran"):
                validate(h)
        else:
            assert listed(validate(h)) == listed(reference_validate(h)), name
    assert not points_forward(FORWARD_ANTI_VERTEX)
    assert not points_forward(LATER_DUPLICATE_LOOP)


# --- serialize against the old renderer, verbatim ----------------------------

def _render_simplex(s: Hypersimplex) -> str:
    parts = ", ".join(str(p) for p in s.participants)
    if s.tags:
        body = f"< {parts} ; {s.relation} ; {', '.join(s.tags)} >"
    else:
        body = f"< {parts} ; {s.relation} >"
    return f"{s.id} = {body} : {s.kind.value}"


def reference_serialize(h: Hypernetwork) -> str:
    """Canonical ``.ht`` form of ``h``; empty hypernetwork gives ``""``."""
    lines = [f"vertex {v}" for v in h.vertices]
    lines += [f"relation {r.id}({', '.join(r.roles)})" for r in h.relations]
    lines += [_render_simplex(s) for s in h.simplices]
    return "".join(line + "\n" for line in lines)


def rendered(render, h):
    """The text ``render`` gives for ``h``, or the class of what it raised."""
    try:
        return render(h)
    except Exception as err:
        return type(err)


def odd_values() -> list[Hypernetwork]:
    """Values with a non-``str`` name in each place, or a kind that is no ``Kind``."""
    a, s = Identifier("a"), Identifier("s")
    return [
        Hypernetwork((5,), (R,), ()),
        Hypernetwork((a,), (RelationSymbol(5, ("r",)),), ()),
        Hypernetwork((a,), (R,), (Hypersimplex(5, (Participant(a),), R.id),)),
        Hypernetwork((a,), (R,), (Hypersimplex(s, (Participant(5),), R.id),)),
        Hypernetwork((a,), (R,), (Hypersimplex(s, (Participant(5, excluded=True),), R.id),)),
        Hypernetwork((a,), (R,), (Hypersimplex(s, (Participant(a),), 5),)),
        Hypernetwork((a,), (R,), (Hypersimplex(s, (Participant(a),), R.id, tags=(5,)),)),
        Hypernetwork((a,), (R,), (Hypersimplex(s, (Participant(a),), R.id, "alpha"),)),
        Hypernetwork((a,), (R,), (Hypersimplex(s, (Participant(a),), R.id, None, (5,)),)),
        Hypernetwork((a,), (R,), (Hypersimplex(s, (Participant(a), Participant(None)), R.id),)),
    ]


def test_serialize_matches_the_old_renderer():
    corpus = acceptance_corpus()
    values = [*fixtures(), *corpus, *invalid_values(),
              *(m for h in corpus[:300] for m in kind_mutants(h)), *odd_values()]
    results = [(rendered(serialize, h), rendered(reference_serialize, h)) for h in values]
    assert [new for new, _ in results] == [old for _, old in results]
    raised = [old for _, old in results if isinstance(old, type)]
    assert set(raised) == {TypeError, AttributeError}
