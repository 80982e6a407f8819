"""Immutable value types for typed n-ary hypernetworks.

A hypernetwork is an ordered backcloth of vertex declarations, relation
symbols, and hypersimplices. Every type here is a frozen value: operations
elsewhere in the package always return new hypernetworks and never mutate an
existing one, so any value can be shared freely across threads.

Constructors enforce the purely local shape of a value (identifier alphabet,
role lists, non-empty participant tuples). Contextual rules that need the
whole network (unique identity, reference resolution, arity against the
declared relation, acyclic containment) are the job of
:func:`hyperscope.axioms.validate`, which reports defects as data; the text
parser applies those checks eagerly when reading files.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

from .errors import UnresolvedIdentifierError

# The identifier alphabet; the text format builds its tokens from it.
NAME = r"[A-Za-z0-9_-]+"
_IDENTIFIER_RE = re.compile(NAME + r"\Z")


class Identifier(str):
    """Globally unique name of a vertex, relation, hypersimplex, or tag.

    A plain ``str`` restricted to ``[A-Za-z0-9_-]``; comparison is
    case-sensitive string comparison, so identifiers interoperate with
    ordinary strings in sets and dicts.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Identifier":
        if not isinstance(name, str) or not _IDENTIFIER_RE.match(name):
            raise ValueError(f"invalid identifier: {name!r}")
        return super().__new__(cls, name)


def is_identifier(name: object) -> bool:
    return isinstance(name, str) and bool(_IDENTIFIER_RE.match(name))


class Kind(Enum):
    """Aggregation typing of a hypersimplex: conjunctive or taxonomic."""

    ALPHA = "alpha"
    BETA = "beta"


@dataclass(frozen=True)
class Participant:
    """One ordered slot of a hypersimplex.

    ``excluded=True`` marks a modeller-supplied anti-vertex (written ``!x``
    in the text format): the slot records an explicit exclusion while still
    occupying its role position. Exclusion is never inferred; only the
    modeller or the prune operator produces it.
    """

    ref: Identifier
    excluded: bool = False

    def __str__(self) -> str:
        return f"!{self.ref}" if self.excluded else str(self.ref)


@dataclass(frozen=True)
class RelationSymbol:
    """A relation name that fixes arity and ordered role names."""

    id: Identifier
    roles: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", tuple(self.roles))
        if len(self.roles) < 1:
            raise ValueError(f"relation {self.id} must declare at least one role")
        if len(set(self.roles)) != len(self.roles):
            raise ValueError(f"relation {self.id} has duplicate role names")
        for r in self.roles:
            if not is_identifier(r):
                raise ValueError(f"relation {self.id} has an invalid role name: {r!r}")

    @property
    def arity(self) -> int:
        return len(self.roles)


@dataclass(frozen=True)
class Hypersimplex:
    """An ordered tuple of participants bound to a relation symbol.

    ``tags`` is the ordered set of boundary tags. Tag order is preserved for
    deterministic serialization only; tag semantics are those of a set, and
    no structural operation ever consults tags except to carry them along.
    """

    id: Identifier
    participants: tuple[Participant, ...]
    relation: Identifier
    kind: Kind = Kind.ALPHA
    tags: tuple[Identifier, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "participants", tuple(self.participants))
        object.__setattr__(self, "tags", tuple(self.tags))
        if len(self.participants) < 1:
            raise ValueError(f"hypersimplex {self.id} must bind at least one participant")

    def structurally_equal(self, other: "Hypersimplex") -> bool:
        """Equality ignoring boundary tags (identity, slots, relation, kind)."""
        return (
            self.id == other.id
            and self.participants == other.participants
            and self.relation == other.relation
            and self.kind == other.kind
        )

    def with_tags(self, tags: Iterable[str]) -> "Hypersimplex":
        return replace(self, tags=tuple(Identifier(t) for t in tags))

    def untagged(self) -> "Hypersimplex":
        return replace(self, tags=())


@dataclass(frozen=True)
class Hypernetwork:
    """An ordered, immutable backcloth of declarations.

    Declaration order is significant and preserved verbatim by every
    operation that copies content; it pins serialization and makes all
    operators deterministic.
    """

    vertices: tuple[Identifier, ...] = ()
    relations: tuple[RelationSymbol, ...] = ()
    simplices: tuple[Hypersimplex, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "simplices", tuple(self.simplices))

    def simplex_ids(self) -> set[Identifier]:
        return {s.id for s in self.simplices}

    def simplex(self, name: str) -> Hypersimplex | None:
        for s in self.simplices:
            if s.id == name:
                return s
        return None

    def relation_symbol(self, name: str) -> RelationSymbol | None:
        for r in self.relations:
            if r.id == name:
                return r
        return None

    def tag_universe(self) -> tuple[Identifier, ...]:
        """All boundary tags in use, in first-appearance order."""
        seen: dict[Identifier, None] = {}
        for s in self.simplices:
            for t in s.tags:
                seen.setdefault(t)
        return tuple(seen)

    def is_empty(self) -> bool:
        return not (self.vertices or self.relations or self.simplices)


@dataclass(frozen=True)
class View:
    """A hypernetwork-valued, read-only result of projection or scoped work.

    ``base_digest`` records which backcloth the view was taken over so that
    view comparison can insist on a common base. ``boundary`` is the
    projected tag; operator-produced views have no single tag and leave it
    unset.
    """

    base_digest: str
    content: Hypernetwork
    boundary: str | None = None


def require_declared(h: Hypernetwork, names: Iterable[str],
                     reason: str = "does not resolve to a vertex or hypersimplex") -> None:
    """Raise UnresolvedIdentifierError for the least of ``names`` that ``h`` lacks.

    Names resolve against vertices plus hypersimplex ids; relation names and
    tags live in separate spaces. The least name, not the first, is reported,
    so the error does not depend on the iteration order of ``names``.
    """
    missing = set(names).difference(h.vertices, h.simplex_ids())
    if missing:
        raise UnresolvedIdentifierError(f"{min(missing)} {reason}")


def descendants(h: Hypernetwork, roots: Iterable[str]) -> set[Identifier]:
    """Downward containment closure of ``roots`` within ``h``.

    Returns the smallest set containing the roots that is closed under
    following Present participant references of hypersimplices in the set.
    Anti-vertex (Excluded) references are never traversed: exclusion blocks
    visibility. Closure is strictly downward; parents and siblings of a root
    are never pulled in.

    Raises UnresolvedIdentifierError when a root is neither a declared
    vertex nor a declared hypersimplex of ``h``.
    """
    stack = list(roots)
    require_declared(h, stack)
    by_id: dict[str, Hypersimplex] = {}
    for s in h.simplices:
        by_id.setdefault(s.id, s)

    out: set[Identifier] = set()
    while stack:
        x = stack.pop()
        if x in out:
            continue
        out.add(x)
        s = by_id.get(x)
        if s is not None:
            for p in s.participants:
                if not p.excluded and p.ref not in out:
                    stack.append(p.ref)
    return out


def structural_digest(h: Hypernetwork) -> str:
    """SHA-256 of the canonical serialization, as lowercase hex.

    Fully order-sensitive: two hypernetworks digest equal exactly when they
    are full-equal, including declaration order and tag order.
    """
    from .text import serialize  # deferred: text depends on these types

    return hashlib.sha256(serialize(h).encode("utf-8")).hexdigest()
