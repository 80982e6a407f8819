"""Immutable value types for typed n-ary hypernetworks.

A hypernetwork is an ordered backcloth of vertex declarations, relation
symbols, and hypersimplices. Every type here is a frozen value: operations
elsewhere in the package always return new hypernetworks and never mutate an
existing one, so any value can be shared freely across threads.

A ``Hypernetwork`` also carries derived data that depends on its value
alone: its structural digest, its tag index, and its id map (each
hypersimplex id to the position of its first declaration). Each is
computed lazily and cached on the instance, outside the fields that
equality, hashing and ``repr`` read. Computing one twice (say, from two
threads at once) gives equal results, so the cache never makes a value
unsafe to share.

The digest and the tag index are cached on first use. The id map is
cached (``Hypernetwork._at``) only by the reads a value meets again:
``validate`` (and so ``parse``), the boundary reads ``project`` and
``visible_set``, and :meth:`Hypernetwork.simplex`. Every other reader,
each operator included, takes :func:`_id_map`'s: the cached map when the
value holds one, and otherwise a map built for that call alone. So the
results of an operator chain, each read once by the next operator, keep no
map; the price is that splitting one such result many times builds its map
each time. :func:`require_declared`, which checks a few names, builds no
map at all and scans the ids once.

A value that ``parse`` or ``parse_unchecked`` read from text spelled
exactly as ``serialize`` writes it also holds that text
(``Hypernetwork._text``) until its first serialization: ``serialize`` pops
it and returns it, so that serialization, and the digest when it is the
first, costs no rebuilding. The text is the canonical form of the value,
so this changes no output, and after that first use the value holds no
text. Like the caches, it is outside equality, hashing, ``repr``, pickles
and copies.

``Participant``, ``RelationSymbol`` and ``Hypersimplex`` are slotted frozen
dataclasses: assigning a field raises ``FrozenInstanceError``, and assigning
any other name raises too (on CPython 3.11 the ``TypeError`` of the
``__setattr__`` that ``dataclasses`` generates), leaving the value unchanged.
The parser and the operators build and compare them per element, so the
constructors of ``Participant`` and ``Hypersimplex`` and ``Participant``'s
``__eq__`` are hand-written, with the signature, errors and semantics of the
generated ones; ``dataclasses`` keeps that ``__eq__`` and generates
``Participant``'s ``__hash__`` from the two fields.

Constructors check only the local shape of a value: ``Identifier`` the
identifier alphabet, ``RelationSymbol`` its role names, ``Hypersimplex`` a
non-empty participant tuple, and each collection of names is read through
:func:`_names`. Names inside a value and every rule that needs the whole
network (unique identity, resolution, arity, acyclic containment) are left
to :func:`hyperscope.axioms.validate`, which reports defects as data (a
malformed name under A1 or A5); ``parse`` applies it eagerly.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Collection, Iterable
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from operator import attrgetter

from .errors import UnresolvedIdentifierError

# The identifier alphabet; the text format builds its tokens from it.
_ALPHABET = "A-Za-z0-9_-"
NAME = rf"[{_ALPHABET}]+"
_IDENTIFIER_RE = re.compile(NAME + r"\Z")
# Names joined by "\n": the alphabet, no "\n" first or last. One character
# class keeps no state per name, so a match allocates nothing per name.
_JOINED_NAMES_RE = re.compile(rf"(?!\n)[\n{_ALPHABET}]+(?<!\n)\Z")


class Identifier(str):
    """Globally unique name of a vertex, relation, hypersimplex, or tag.

    A plain ``str`` restricted to ``[A-Za-z0-9_-]``; comparison is
    case-sensitive string comparison, so identifiers interoperate with
    ordinary strings in sets and dicts.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Identifier":
        if not is_identifier(name):
            raise ValueError(f"invalid identifier: {name!r}")
        return super().__new__(cls, name)


# The id of a hypersimplex, read in C by ``map`` and ``filter``.
_ID = attrgetter("id")


def is_identifier(name: object) -> bool:
    return isinstance(name, str) and bool(_IDENTIFIER_RE.match(name))


def _all_identifiers(names: Collection[object]) -> bool:
    """``all(is_identifier(n) for n in names)``, in one match over the joined names."""
    if not names:
        return True
    try:
        joined = "\n".join(names)
    except TypeError:  # a name that is not a str
        return False
    # One "\n" between each two names, and no name empty.
    return (joined.count("\n") == len(names) - 1 and "\n\n" not in joined
            and _JOINED_NAMES_RE.match(joined) is not None)


class Kind(Enum):
    """Aggregation typing of a hypersimplex: conjunctive or taxonomic."""

    ALPHA = "alpha"
    BETA = "beta"


@dataclass(frozen=True, slots=True, init=False)
class Participant:
    """One ordered slot of a hypersimplex.

    ``excluded=True`` marks a modeller-supplied anti-vertex (written ``!x``
    in the text format): the slot records an explicit exclusion while still
    occupying its role position. Exclusion is never inferred; only the
    modeller or the prune operator produces it.
    """

    ref: Identifier
    excluded: bool = False

    def __init__(self, ref: Identifier, excluded: bool = False) -> None:
        set_ref, set_excluded = _PARTICIPANT_SLOTS
        set_ref(self, ref)
        set_excluded(self, excluded)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ref == other.ref and self.excluded == other.excluded

    def __str__(self) -> str:
        return f"!{self.ref}" if self.excluded else str(self.ref)


# The slot setters, which write a field past the frozen ``__setattr__``.
_PARTICIPANT_SLOTS = tuple(Participant.__dict__[f.name].__set__ for f in fields(Participant))


@dataclass(frozen=True, slots=True)
class RelationSymbol:
    """A relation name that fixes arity and ordered role names."""

    id: Identifier
    roles: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", _names(self.roles, tuple))
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


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(self, id: Identifier, participants: Iterable[Participant], relation: Identifier,
                 kind: Kind = Kind.ALPHA, tags: Iterable[Identifier] = ()) -> None:
        participants = tuple(participants)
        if tags.__class__ is not tuple:  # the parser and the operators pass a tuple
            tags = _names(tags, tuple)
        if not participants:
            raise ValueError(f"hypersimplex {id} must bind at least one participant")
        set_id, set_participants, set_relation, set_kind, set_tags = _HYPERSIMPLEX_SLOTS
        set_id(self, id)
        set_participants(self, participants)
        set_relation(self, relation)
        set_kind(self, kind)
        set_tags(self, tags)

    def structurally_equal(self, other: "Hypersimplex") -> bool:
        """Equality ignoring boundary tags (identity, slots, relation, kind)."""
        return (
            self.id == other.id
            and self.participants == other.participants
            and self.relation == other.relation
            and self.kind == other.kind
        )

    def with_tags(self, tags: Iterable[str]) -> "Hypersimplex":
        return replace(self, tags=tuple(map(Identifier, _names(tags, iter))))

    def untagged(self) -> "Hypersimplex":
        return replace(self, tags=())


_HYPERSIMPLEX_SLOTS = tuple(Hypersimplex.__dict__[f.name].__set__ for f in fields(Hypersimplex))


def _retagged(s: Hypersimplex, tags: tuple[Identifier, ...]) -> Hypersimplex:
    """``s`` with the tag tuple ``tags``, sharing every other field of ``s``.

    Nothing is converted or checked: ``s``'s fields passed
    ``Hypersimplex.__init__``, and ``merge`` and ``meet`` build ``tags``
    from tag tuples that did too.
    """
    new = object.__new__(Hypersimplex)
    set_id, set_participants, set_relation, set_kind, set_tags = _HYPERSIMPLEX_SLOTS
    set_id(new, s.id)
    set_participants(new, s.participants)
    set_relation(new, s.relation)
    set_kind(new, s.kind)
    set_tags(new, tags)
    return new


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
        object.__setattr__(self, "vertices", _names(self.vertices, tuple))
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "simplices", tuple(self.simplices))

    def simplex_ids(self) -> set[Identifier]:
        return {s.id for s in self.simplices}

    def simplex(self, name: str) -> Hypersimplex | None:
        i = self._at.get(name)
        return None if i is None else self.simplices[i]

    def relation_symbol(self, name: str) -> RelationSymbol | None:
        for r in self.relations:
            if r.id == name:
                return r
        return None

    def tag_universe(self) -> tuple[Identifier, ...]:
        """All boundary tags in use, in first-appearance order."""
        return tuple(self._tag_index)

    def is_empty(self) -> bool:
        return not (self.vertices or self.relations or self.simplices)

    # Lazily cached derived data; see the module docstring.

    def __getstate__(self) -> dict:
        # Pickle and copy the fields alone; the caches refill on demand, and a
        # held source text stays behind.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def _digest(self) -> str:
        from .text import serialize  # deferred: text depends on these types

        return _sha256(serialize(self))

    @cached_property
    def _tag_index(self) -> dict[Identifier, tuple[Identifier, ...]]:
        """Tag -> ids of the hypersimplices carrying it, in declaration order.

        Keys are in first-appearance order; a simplex is listed once per
        tag even when its tag tuple repeats that tag.
        """
        index: dict[Identifier, list[Identifier]] = {}
        for s in self.simplices:
            for t in dict.fromkeys(s.tags):
                index.setdefault(t, []).append(s.id)
        return {t: tuple(ids) for t, ids in index.items()}

    @cached_property
    def _at(self) -> dict[Identifier, int]:
        """The map :func:`_id_map` builds, kept on the value."""
        return _id_map(self)


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


def declaration_kinds(h: Hypernetwork) -> dict[Identifier, str]:
    """Name -> kind (vertex, relation, hypersimplex) of its first declaration.

    A name declared more than once has the kind it is first declared with,
    reading vertices, then relations, then hypersimplices, each in order.
    ``validate`` (A1) and the kind check of ``merge`` and ``meet`` both read
    it; it is not cached.
    """
    kinds: dict[Identifier, str] = {}
    for v in h.vertices:
        kinds.setdefault(v, "vertex")
    for r in h.relations:
        kinds.setdefault(r.id, "relation")
    for s in h.simplices:
        kinds.setdefault(s.id, "hypersimplex")
    return kinds


def _names(names: Iterable[str], into: Callable[[Iterable[str]], Iterable[str]] = set) -> Iterable[str]:
    """``into(names)``, for each parameter that takes a collection of names.

    A bare ``str`` raises ``TypeError``, since it would be read as its
    one-character names. ``Hypersimplex`` takes a tag tuple, as the parser
    and the operators pass, without this call.
    """
    if isinstance(names, str):
        raise TypeError(f"expected a collection of names, not the str {names!r}")
    return into(names)


def _id_map(h: Hypernetwork) -> dict[Identifier, int]:
    """Id -> position in ``h.simplices`` of its first declaration, in declaration order.

    Fewer entries than ``h.simplices`` means some id is declared twice.
    Returns ``h._at`` when ``h`` holds it, else a map built for this call
    alone (see the module docstring).
    """
    at = vars(h).get("_at")
    if at is None:
        at = {}
        for i, s in enumerate(h.simplices):
            at.setdefault(s.id, i)
    return at


def require_declared(h: Hypernetwork, names: Iterable[str],
                     reason: str = "does not resolve to a vertex or hypersimplex",
                     at: dict[Identifier, int] | None = None) -> None:
    """Raise UnresolvedIdentifierError for the least of ``names`` that ``h`` lacks.

    Names resolve against vertices plus hypersimplex ids; relation names and
    tags live in separate spaces. The least name, not the first, is reported,
    so the error does not depend on the iteration order of ``names``.

    With no id map ``at`` given or cached on ``h``, it builds none and
    reads the ids of ``h.simplices`` once.
    """
    if at is None:
        at = vars(h).get("_at")
    if at is None:
        missing = set(names).difference(map(_ID, h.simplices))
    else:
        missing = {n for n in names if n not in at}
    if missing:
        missing.difference_update(h.vertices)
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
    vertex nor a declared hypersimplex of ``h``, and TypeError for a bare
    ``str`` (see :func:`_names`).
    """
    return walk(h, roots)[0]


def walk(h: Hypernetwork, roots: Iterable[str], at: dict[Identifier, int] | None = None,
         ) -> tuple[set[Identifier], list[int], set[Identifier]]:
    """The downward closure of ``roots``, with what ``split`` builds its result from.

    ``at`` is ``h``'s id map; without one the walk takes :func:`_id_map`'s.

    Returns the closure (see :func:`descendants`), the positions in
    ``h.simplices`` of the hypersimplices it reached (one per closure name
    that is a hypersimplex id, its first declaration, in no fixed order),
    and the names that reached hypersimplices reference only as anti-vertices.
    """
    closure = _names(roots)
    if at is None:
        at = _id_map(h)
    sims = h.simplices
    require_declared(h, closure, at=at)
    stack = [i for i in map(at.get, closure) if i is not None]
    reached: list[int] = []
    anti: set[Identifier] = set()
    while stack:
        i = stack.pop()
        reached.append(i)
        for p in sims[i].participants:
            if p.excluded:
                anti.add(p.ref)
            elif p.ref not in closure:
                closure.add(p.ref)
                j = at.get(p.ref)
                if j is not None:
                    stack.append(j)
    anti.difference_update(closure)
    return closure, reached, anti


def _sha256(text: str) -> str:
    """SHA-256 of ``text`` encoded as UTF-8, as lowercase hex."""
    import hashlib  # deferred: commands that print no digest skip loading it

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def structural_digest(h: Hypernetwork) -> str:
    """SHA-256 of the canonical serialization, as lowercase hex.

    Fully order-sensitive: two hypernetworks digest equal exactly when they
    are full-equal, including declaration order and tag order. Computed
    once per value and cached on it.
    """
    return h._digest
