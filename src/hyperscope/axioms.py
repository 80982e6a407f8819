"""Validation of a hypernetwork against its axioms.

``validate`` is total: it never stops at the first defect, and defects are
returned as data rather than raised, so a whole corpus can be checked and
reported in one pass. An empty report means the hypernetwork is valid.

Checked per axiom:

* A1: every declared name is a ``str`` identifier, declared once across
  the joint namespace of vertices, relations, and hypersimplices; every
  Present participant and every relation reference resolves.
* A2: every anti-vertex (Excluded participant) reference resolves; an
  exclusion of an unknown name is indistinguishable from a typo.
* A3: kind is alpha or beta (unreachable through the parser, re-checked for
  directly constructed values).
* A4: participant count equals the declared arity of the bound relation.
* A5: tags are well-formed identifiers with no duplicates on one
  hypersimplex. Tags impose nothing further; they are not resolved against
  any declaration.
* WELLFORMED: containment (Present references between hypersimplices) is
  acyclic, so downward closure is well-founded. Each cyclic component is
  reported once, with one cycle through it as its witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .model import Hypernetwork, Kind, _all_identifiers, declaration_kinds, is_identifier


@dataclass(frozen=True)
class Violation:
    """One axiom defect, located by axiom code and subject identifier."""

    axiom: str
    subject: str
    message: str

    def render(self) -> str:
        return f"{self.axiom}\t{self.subject}\t{self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "violations", tuple(self.violations))

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        """One violation per line: ``AXIOM<tab>subject<tab>message``."""
        return "\n".join(v.render() for v in self.violations)


def _containment_cycles(h: Hypernetwork) -> list[list[str]]:
    """One cycle per cyclic component of containment, in one Tarjan search.

    The graph is the Present references between hypersimplices. A strongly
    connected component is cyclic when it has two or more members or a
    member that refers to itself. Its cycle starts at the member the search
    reached first, runs down the search tree to the member whose reference
    first led back to it, and returns to it.
    """
    pos, sims = h._at, h.simplices
    closed = len(pos)  # the index of a node whose component is finished
    index: dict[str, int] = {}  # discovery index of every node reached
    back: dict[str, str] = {}  # open node -> first node found referring to it
    members: list[tuple[str, str | None]] = []  # open nodes with their tree parents
    cycles: list[list[str]] = []

    for root in pos:
        if root in index:
            continue
        index[root] = i = len(index)
        members.append((root, None))
        # Each frame: node, its pending participants, its discovery index, its lowlink.
        stack = [[root, iter(sims[pos[root]].participants), i, i]]
        while stack:
            frame = stack[-1]
            node, pending, at, _ = frame
            for p in pending:
                child = p.ref
                if p.excluded or child not in pos:
                    continue
                i = index.get(child)
                if i is None:
                    index[child] = i = len(index)
                    members.append((child, node))
                    stack.append([child, iter(sims[pos[child]].participants), i, i])
                    break
                if i < closed:
                    back.setdefault(child, node)
                    if i < frame[3]:
                        frame[3] = i
            else:
                stack.pop()
                low = frame[3]
                if stack and low < stack[-1][3]:
                    stack[-1][3] = low
                if low < at:
                    continue  # not the first member of its component the search reached
                last = back.get(node)
                if last is None:  # nothing refers back: node is acyclic, alone on top of members
                    members.pop()
                    index[node] = closed
                    continue
                k = len(members) - 1
                while members[k][0] != node:
                    k -= 1
                parent = dict(members[k:])
                del members[k:]
                for m in parent:
                    index[m] = closed
                path = [node]
                while last != node:
                    path.append(last)
                    last = parent[last]
                cycles.append([node, *reversed(path)])
    return cycles


def validate(h: Hypernetwork) -> ValidationReport:
    """Report every axiom violation in ``h``; empty report means valid.

    Pure and deterministic: the report is ordered by the declaration order
    of the subject, then by axiom code.
    """
    kinds = declaration_kinds(h)
    violations = [] if _all_identifiers(kinds) else [
        Violation("A1", name, f"{name!r} is not a well-formed identifier")
        for name in kinds if not is_identifier(name)
    ]
    if len(kinds) < len(h.vertices) + len(h.relations) + len(h.simplices):  # a name declared twice
        declared = Counter(chain(h.vertices, (r.id for r in h.relations), (s.id for s in h.simplices)))
        violations += [
            Violation("A1", name, f"duplicate declaration of {name} (first declared as a {kinds[name]})")
            for name, count in declared.items() if count > 1
        ]

    at = h._at
    rel_by_id = {}
    for r in h.relations:
        rel_by_id.setdefault(r.id, r)

    tags_ok = _all_identifiers([t for s in h.simplices for t in s.tags])
    forward = False  # a Present reference to a hypersimplex declared here or later
    for i, s in enumerate(h.simplices):
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
            j = at.get(p.ref)
            if j is not None:
                if j >= i and not p.excluded:
                    forward = True
            elif kinds.get(p.ref) != "vertex":
                if p.excluded:
                    violations.append(
                        Violation("A2", s.id, f"anti-vertex {p.ref} does not resolve")
                    )
                else:
                    violations.append(
                        Violation("A1", s.id, f"participant {p.ref} does not resolve")
                    )
        tags = s.tags
        if tags_ok and (len(tags) < 2 or len(set(tags)) == len(tags)):
            continue
        seen_tags: set[str] = set()
        for t in tags:
            if not is_identifier(t):
                violations.append(
                    Violation("A5", s.id, f"tag {t!r} is not a well-formed identifier")
                )
                continue
            if t in seen_tags:
                violations.append(Violation("A5", s.id, f"duplicate tag {t}"))
            seen_tags.add(t)

    if forward:  # otherwise declaration order is a topological order: no cycle
        for cycle in _containment_cycles(h):
            violations.append(
                Violation("WELLFORMED", cycle[0], "containment cycle: " + " -> ".join(cycle))
            )

    if violations:
        order = {name: i for i, name in enumerate(kinds)}
        violations.sort(key=lambda v: (order[v.subject], v.axiom))
    return ValidationReport(tuple(violations))
