"""``validate`` against its earlier code.

The reference below is ``validate`` as it stood before it read a value's
namespace from the model: it builds its own first-declaration table and
its own set of resolvable names. It is kept verbatim as the slow
reference. Wherever every declared name is a ``str``, the reports must
agree exactly: the same violations, subjects and messages, in the same
order.
"""

from __future__ import annotations

import random

from hyperscope import (
    Hypernetwork,
    Hypersimplex,
    Kind,
    Participant,
    RelationSymbol,
    parse_unchecked,
    serialize,
    validate,
)
from hyperscope.axioms import ValidationReport, Violation, _containment_cycles
from hyperscope.model import is_identifier

from gen import R, acceptance_corpus, fixtures, invalid_values, kind_mutants


# --- the slow reference, verbatim ------------------------------------------

def reference_validate(h: Hypernetwork) -> ValidationReport:
    """Report every axiom violation in ``h``; empty report means valid.

    Pure and deterministic: the report is ordered by the declaration order
    of the subject, then by axiom code.
    """
    violations: list[Violation] = []

    decls: list[tuple[str, str]] = [("vertex", str(v)) for v in h.vertices]
    decls += [("relation", str(r.id)) for r in h.relations]
    decls += [("hypersimplex", str(s.id)) for s in h.simplices]

    order: dict[str, int] = {}
    first_kind: dict[str, str] = {}
    dup_reported: set[str] = set()
    for kind_name, name in decls:
        if name not in order:
            order[name] = len(order)
            first_kind[name] = kind_name
            if not is_identifier(name):
                violations.append(
                    Violation("A1", name, f"{name!r} is not a well-formed identifier")
                )
        elif name not in dup_reported:
            dup_reported.add(name)
            violations.append(
                Violation(
                    "A1",
                    name,
                    f"duplicate declaration of {name} (first declared as a {first_kind[name]})",
                )
            )

    declared_refs = set(h.vertices) | h.simplex_ids()
    rel_by_id = {}
    for r in h.relations:
        rel_by_id.setdefault(r.id, r)

    for s in h.simplices:
        if not isinstance(s.kind, Kind):
            violations.append(
                Violation("A3", s.id, f"kind must be alpha or beta, got {s.kind!r}")
            )
        rel = rel_by_id.get(s.relation)
        if rel is None:
            violations.append(
                Violation("A1", s.id, f"relation {s.relation} is not declared")
            )
        elif len(s.participants) != rel.arity:
            violations.append(
                Violation(
                    "A4",
                    s.id,
                    f"binds {len(s.participants)} participants to {rel.id}"
                    f" which has arity {rel.arity}",
                )
            )
        for p in s.participants:
            if p.ref not in declared_refs:
                if p.excluded:
                    violations.append(
                        Violation("A2", s.id, f"anti-vertex {p.ref} does not resolve")
                    )
                else:
                    violations.append(
                        Violation("A1", s.id, f"participant {p.ref} does not resolve")
                    )
        seen_tags: set[str] = set()
        for t in s.tags:
            if not is_identifier(t):
                violations.append(
                    Violation("A5", s.id, f"tag {t!r} is not a well-formed identifier")
                )
                continue
            if t in seen_tags:
                violations.append(Violation("A5", s.id, f"duplicate tag {t}"))
            seen_tags.add(t)

    for cycle in _containment_cycles(h):
        violations.append(
            Violation("WELLFORMED", cycle[0], "containment cycle: " + " -> ".join(cycle))
        )

    violations.sort(key=lambda v: (order.get(v.subject, len(order)), v.subject, v.axiom))
    return ValidationReport(tuple(violations))


# --- comparison ------------------------------------------------------------

def listed(report: ValidationReport) -> list[tuple[str, str, str]]:
    return [(v.axiom, str(v.subject), v.message) for v in report.violations]


def differences(values) -> list:
    """The values on which ``validate`` and the reference disagree."""
    out = []
    for h in values:
        want = listed(reference_validate(h))
        got = listed(validate(h))
        if got != want:
            out.append((h, want, got))
    return out


def edited_texts(rng: random.Random, texts):
    """Each text with one declaration line duplicated, one dropped and one moved."""
    for text in texts:
        lines = text.splitlines(keepends=True)
        if not lines:
            continue
        i = rng.randrange(len(lines))
        j = rng.randrange(len(lines))
        duplicated = lines[:j] + [lines[i]] + lines[j:]
        dropped = lines[:i] + lines[i + 1:]
        moved = dropped[:j] + [lines[i]] + dropped[j:]
        for edited in (duplicated, dropped, moved):
            yield "".join(edited)


# --- the tests -------------------------------------------------------------

def test_the_corpus_and_the_fixtures():
    assert differences(acceptance_corpus() + fixtures()) == []


def test_invalid_values_and_malformed_names_declared_twice():
    def bad(name, ref="a"):
        return Hypersimplex(name, (Participant(ref),), R.id)

    malformed = (
        Hypernetwork(("a b", "a", "a b"), (R,), (bad("s", "a b"),)),
        Hypernetwork(("a",), (R, RelationSymbol("a b", ("r",))), (bad("a b"), bad("c d", "a b"))),
        Hypernetwork(("c d", "a"), (R,), (bad("a b"), bad("c d"), bad("a b", "ghost"))),
    )
    assert [len(validate(h).violations) for h in malformed] == [2, 3, 5]
    assert differences(invalid_values() + malformed) == []


def test_kind_mutants_of_the_corpus():
    values = [m for h in acceptance_corpus()[:300] for m in kind_mutants(h)]
    assert differences(values) == []
    assert all(not validate(h).ok for h in values)


def test_texts_with_one_declaration_duplicated_dropped_or_moved():
    rng = random.Random(10)
    texts = [serialize(h) for h in acceptance_corpus() + fixtures()]
    values = [parse_unchecked(t) for t in edited_texts(rng, texts)]
    assert differences(values) == []
    axioms = {v.axiom for h in values for v in validate(h).violations}
    assert {"A1", "A2"} <= axioms
    assert sum(not validate(h).ok for h in values) > len(values) // 4
