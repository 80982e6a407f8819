"""Print one SHA-256 over outputs every supported interpreter must agree on.

Usage: ``PYTHONPATH=src python tests/interpreter_digest.py``. The first
output line is the interpreter's ``major.minor``, the second the digest.
The script uses the standard library only, so it runs on interpreters
that have no test dependencies installed; ``tests/test_interpreters.py``
runs it under each supported interpreter it finds and compares the digests.

The digest covers the fixtures and every projection of each; the five
operators and their scoped forms on seeded pairs; a view intersection
that declares many undeclared references; ``validate`` reports;
the error class, message and span of hand-built invalid texts; ``repr``;
and a pickle round trip. Every output is made independent of hash
randomization before it is hashed.

``PINNED`` is the digest they print, the one copy of it in the
repository: ``tests/test_interpreters.py`` checks the running interpreter
against it under two hash seeds, and CI checks the installed package. A
change that alters these outputs on purpose updates it and says so.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import sys

import gen
from hyperscope import (
    HypernetworkError,
    difference,
    load_fixture,
    meet,
    merge,
    parse,
    parse_unchecked,
    project,
    prune,
    scoped_apply,
    scoped_prune,
    scoped_split,
    serialize,
    split,
    structural_digest,
    validate,
    view_intersect,
    view_union,
    visible_set,
)

PINNED = "5fcfdcb0d161d33b73136a6b9b4e8d062d4906386808420eb6b6234296fcf7b2"

INVALID_TEXTS = [
    "vertex\n",
    "vertex a b\n",
    "vertex a\nrelation R()\n",
    "relation R(r, r)\n",
    "x = < a ; R\n",
    "x = < a ; R ; > : alpha\n",
    "x = < a ; R > : gamma\n",
    "x = < a ; R > extra\n",
    "vertex a\nx = < a $ ; R >\n",
    "vertex a\nrelation R(r)\nx = < ghost ; R >\n",
    "vertex a\nrelation R(r)\nx = < a ; Q >\n",
    "vertex a\nrelation R(r1, r2)\nx = < a ; R >\n",
    "vertex a\nvertex a\n",
    "vertex a\nrelation R(r)\nx = < a ; R ; t, t >\n",
    "vertex a\nrelation R(r)\nx = < y ; R >\ny = < x ; R >\n",
    "vertex a\nrelation R(r)\nx = < a ; R >\nx = < a ; R ; t >\n",
    "\ufeffvertex a\nvertex b\u2028c\n",
]

# ``x`` excludes eight hypersimplices that only the ``b`` view holds, so the
# intersection of the ``a`` and ``b`` views declares all eight as undeclared
# references, in ``x``'s slot order, which no set order keeps.
UNDECLARED_TEXT = "vertex v\nrelation R(r)\nrelation X(r1, r2, r3, r4, r5, r6, r7, r8)\n" + "".join(
    f"y{i} = < v ; R ; b >\n" for i in range(1, 9)) + "x = < !y5, !y2, !y8, !y1, !y7, !y3, !y6, !y4 ; X ; a, b >\n"


def _outcome(fn, *args):
    """``repr`` of ``fn(*args)``, or the class, message and span of its error."""
    try:
        return repr(fn(*args))
    except HypernetworkError as err:
        return repr((type(err).__name__, err.args, getattr(err, "span", None)))


def _round_trip(value):
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        copy = pickle.loads(pickle.dumps(value, protocol))
        yield repr((copy == value, repr(copy) == repr(value)))


def _network(h):
    yield repr(h)
    yield serialize(h)
    yield structural_digest(h)
    yield repr(validate(h))
    yield from _round_trip(h)


def _tags(h):
    return sorted({t for s in h.simplices for t in s.tags})


def outputs():
    for key in ("E1", "E2", "E3"):
        h = load_fixture(key)
        yield from _network(h)
        for b in _tags(h):
            view = project(h, b)
            yield repr(view)
            yield repr(sorted(visible_set(h, b)))
            yield from _round_trip(view)
    rng = random.Random(20)
    for _ in range(60):
        h1, h2 = gen.compatible_pair(rng)
        yield from _network(h1)
        for op in (merge, meet, difference):
            yield serialize(op(h1, h2))
        names = sorted(s.id for s in h1.simplices)
        chosen = rng.sample(names, min(len(names), 2))
        yield serialize(prune(h1, chosen))
        yield serialize(split(h1, chosen))
        for b in gen.TAG_POOL:
            for op in ("merge", "meet", "difference"):
                yield _outcome(scoped_apply, op, h1, h2, b)
            visible = sorted(s.id for s in project(h1, b).content.simplices)
            chosen = rng.sample(visible, min(len(visible), 2))
            yield _outcome(scoped_prune, h1, chosen, b)
            yield _outcome(scoped_split, h1, chosen, b)
            yield _outcome(scoped_prune, h1, ["ghost"], b)
            other = project(h1, rng.choice(gen.TAG_POOL))
            yield _outcome(view_intersect, project(h1, b), other)
            yield _outcome(view_union, project(h1, b), other)
            yield _outcome(view_union, project(h1, b), project(h2, b))
    h = parse(UNDECLARED_TEXT)
    yield repr(view_intersect(project(h, "a"), project(h, "b")))
    mutants = gen.kind_mutants(gen.fixtures()[0])
    for h in gen.invalid_values():
        yield from _network(h)
        for k in mutants:
            yield repr(validate(k))
            yield _outcome(merge, h, k)
    for h1, h2 in (gen.VERTEX_AND_SIMPLEX, gen.TWO_CONFLICTS):
        for op in (merge, meet, difference):
            yield _outcome(op, h1, h2)
    for text in INVALID_TEXTS:
        yield _outcome(parse, text)
        yield _outcome(parse_unchecked, text)


def digest() -> str:
    sha = hashlib.sha256()
    for out in outputs():
        sha.update(out.encode())
        sha.update(b"\0")
    return sha.hexdigest()


if __name__ == "__main__":
    print("%d.%d" % sys.version_info[:2])
    print(digest())
