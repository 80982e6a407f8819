"""The lazily cached digest, tag index and id positions of a Hypernetwork.

Each cache is checked against a fresh computation or against the linear
scan it replaced, kept here as the slow reference, and shown to leave the
value's equality, hashing, ``repr`` and fields untouched. Only ``parse``,
``validate``, the boundary reads and ``simplex`` keep the id map on a
value; every operator, scoped form and view operation reads the map when
its input already holds it and otherwise builds one for the call. Each is
shown to give the same result, or the same error, either way. Threads
that fill one value's caches at once read what a single thread reads.
A value parsed from canonical text holds that text until its first
serialization; the text is shown to be as invisible as the caches, to
stay behind in copies, and to reach every thread that serializes or
digests the value.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle
import sys
import threading

import pytest

import hyperscope.scope
import hyperscope.text
from hyperscope import (
    Hypernetwork,
    HypernetworkError,
    Hypersimplex,
    Identifier,
    Participant,
    RelationSymbol,
    UnresolvedIdentifierError,
    View,
    descendants,
    difference,
    load_fixture,
    meet,
    parse,
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
from hyperscope.corpus import fixture_source
from hyperscope.model import require_declared
from hyperscope.ops import BINARY
from hyperscope.scope import _tagged

from gen import acceptance_corpus
from test_ops_reference import REFERENCE, _assemble, typed

CACHES = ("_digest", "_tag_index", "_at")


def fresh(h: Hypernetwork) -> Hypernetwork:
    """An equal value that has never been queried."""
    return Hypernetwork(h.vertices, h.relations, h.simplices)


def fill(h: Hypernetwork) -> Hypernetwork:
    structural_digest(h)
    h.tag_universe()
    h.simplex("no-such-simplex")
    assert set(CACHES) <= set(vars(h))
    return h


def _invalid_values() -> tuple[Hypernetwork, ...]:
    """Hand-built values the parser would reject: a repeated tag, a repeated id."""
    rel = RelationSymbol(Identifier("R"), ("r",))
    a, b = Identifier("a"), Identifier("b")

    def sim(name, ref, *tags):
        return Hypersimplex(Identifier(name), (Participant(ref),), rel.id,
                            tags=tuple(Identifier(t) for t in tags))

    repeated_tag = Hypernetwork((a,), (rel,), (sim("x", a, "t", "u", "t"), sim("y", Identifier("x"), "u")))
    repeated_id = Hypernetwork((a, b), (rel,), (sim("x", a, "t"), sim("y", Identifier("x"), "u", "t"),
                                                sim("x", b, "u", "v")))
    return repeated_tag, repeated_id


def _values() -> list[Hypernetwork]:
    return [*acceptance_corpus(), *(load_fixture(k) for k in ("E1", "E2", "E3")), *_invalid_values()]


# -- the slow references: the linear scans the caches replaced ---------------

def _tagged_ref(h, b):
    return [s.id for s in h.simplices if b in s.tags]


def _tag_universe_ref(h):
    seen = {}
    for s in h.simplices:
        for t in s.tags:
            seen.setdefault(t)
    return tuple(seen)


def _simplex_ref(h, name):
    for s in h.simplices:
        if s.id == name:
            return s
    return None


def _visible_set_ref(h, b):
    by_id = {}
    for s in h.simplices:
        by_id.setdefault(s.id, s)
    out, stack = set(), _tagged_ref(h, b)
    while stack:
        x = stack.pop()
        if x not in out:
            out.add(x)
            if x in by_id:
                stack += [p.ref for p in by_id[x].participants if not p.excluded]
    return out


def _project_ref(h, b):
    roots = _tagged_ref(h, b)
    closure = _visible_set_ref(h, b)
    content = _assemble(h, [s for s in h.simplices if s.id in closure], extra_vertices=roots)
    digest = hashlib.sha256(serialize(h).encode("utf-8")).hexdigest()
    return View(base_digest=digest, content=content, boundary=b)


class TestDigest:
    def test_equals_a_fresh_sha256_before_and_after_the_caches_fill(self):
        for h in _values():
            expected = hashlib.sha256(serialize(h).encode("utf-8")).hexdigest()
            cold = fresh(h)
            assert not set(CACHES) & set(vars(cold))
            assert structural_digest(cold) == expected
            assert structural_digest(fill(cold)) == expected
            assert structural_digest(h) == expected

    def test_replace_never_carries_a_stale_digest(self, ecology):
        h = fresh(ecology)
        old = structural_digest(h)
        reordered = dataclasses.replace(h, simplices=h.simplices[::-1])
        assert structural_digest(reordered) != old
        assert structural_digest(reordered) == hashlib.sha256(
            serialize(reordered).encode("utf-8")).hexdigest()
        same = dataclasses.replace(h)
        assert not set(CACHES) & set(vars(same))
        assert structural_digest(same) == old

    def test_projecting_under_ten_tags_serializes_the_backcloth_once(self, monkeypatch):
        tags = [f"t{i}" for i in range(10)]
        text = "vertex a\nrelation R(r)\n" + "".join(
            f"s{i} = < a ; R ; {t} >\n" for i, t in enumerate(tags))
        h = parse(text)
        calls = []
        real = hyperscope.text.serialize

        def counted(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(hyperscope.text, "serialize", counted)
        for t in tags:
            project(h, t)
        assert [c is h for c in calls] == [True]


class TestCachesAreInvisible:
    def test_filled_value_keeps_equality_hash_repr_and_fields(self):
        for h in _values():
            queried, untouched = fill(fresh(h)), fresh(h)
            assert queried == untouched and untouched == queried
            assert hash(queried) == hash(untouched)
            assert repr(queried) == repr(untouched)
            assert dataclasses.fields(queried) == dataclasses.fields(untouched)
            assert dataclasses.astuple(queried) == dataclasses.astuple(untouched)

    def test_field_names_are_unchanged(self):
        assert [f.name for f in dataclasses.fields(Hypernetwork)] == ["vertices", "relations", "simplices"]
        assert [f.name for f in dataclasses.fields(View)] == ["base_digest", "content", "boundary"]

    def test_pickle_and_copy_leave_the_caches_behind(self, emergency):
        queried = fill(fresh(emergency))
        assert pickle.dumps(queried) == pickle.dumps(fresh(emergency))
        for copied in (pickle.loads(pickle.dumps(queried)), copy.deepcopy(queried), copy.copy(queried)):
            assert copied == emergency
            assert not set(CACHES) & set(vars(copied))
            assert structural_digest(copied) == structural_digest(emergency)

    @pytest.mark.parametrize("key", ["E1", "E2", "E3"])
    def test_parse_and_validate_leave_the_kind_table_unfilled(self, key):
        h = parse(serialize(load_fixture(key)))
        assert "_kinds" not in vars(h)
        assert validate(h).ok and "_kinds" not in vars(h)


def _reads(h: Hypernetwork) -> tuple:
    """The digest, and each tag's projection (typed) and visible set, read from ``h``."""
    views = []
    for b in h.tag_universe():
        view = project(h, b)
        views.append((b, view, typed(view.content), visible_set(h, b)))
    return structural_digest(h), views


class TestSharedAcrossThreads:
    THREADS = 4
    TRIALS = 20

    def test_threads_reading_one_fresh_value_get_the_single_threaded_results(self):
        values = [*(load_fixture(k) for k in ("E1", "E2", "E3")), *acceptance_corpus()[:10]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so the cache fills interleave
        try:
            for h in values:
                want = _reads(fresh(h))
                for _ in range(self.TRIALS):
                    shared = fresh(h)
                    start = threading.Barrier(self.THREADS, timeout=60)
                    got = [None] * self.THREADS

                    def read(i):
                        start.wait()
                        got[i] = _reads(shared)

                    threads = [threading.Thread(target=read, args=(i,)) for i in range(self.THREADS)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(60)
                        assert not thread.is_alive()
                    assert got == [want] * self.THREADS, h
        finally:
            sys.setswitchinterval(interval)


def _sources() -> list[str]:
    """Canonical texts: the three fixtures and a few corpus values."""
    return [*(fixture_source(k) for k in ("E1", "E2", "E3")),
            *(serialize(h) for h in acceptance_corpus()[:20])]


def _sha256(src: str) -> str:
    return hashlib.sha256(src.encode("utf-8")).hexdigest()


class TestSourceText:
    """A value parsed from canonical text holds that text until its first serialization."""

    def test_a_value_that_holds_its_text_reads_as_one_that_does_not(self):
        for src in _sources():
            holding = parse(src)
            assert vars(holding)["_text"] is src
            other = fresh(holding)
            assert holding == other and other == holding
            assert hash(holding) == hash(other)
            assert repr(holding) == repr(other)
            assert dataclasses.fields(holding) == dataclasses.fields(other)
            assert dataclasses.astuple(holding) == dataclasses.astuple(other)
            assert pickle.dumps(holding) == pickle.dumps(other)
            assert vars(holding)["_text"] is src  # none of these took it

    def test_copies_and_replace_do_not_carry_the_text(self):
        for src in _sources():
            holding = parse(src)
            for copied in (copy.copy(holding), copy.deepcopy(holding), dataclasses.replace(holding),
                           pickle.loads(pickle.dumps(holding))):
                assert copied == holding
                assert "_text" not in vars(copied)
                out = serialize(copied)
                assert out == src and out is not src
            assert serialize(holding) is src

    def test_the_first_serialization_takes_the_text_and_none_is_kept(self):
        for src in _sources():
            h = parse(src)
            assert serialize(h) is src
            assert "_text" not in vars(h)
            again = serialize(h)
            assert again == src and again is not src
            h = parse(src)
            assert structural_digest(h) == _sha256(src)
            assert "_text" not in vars(h)
            assert serialize(h) == src

    THREADS = 4
    TRIALS = 50

    def test_threads_serializing_and_digesting_one_fresh_value_get_its_text(self):
        sources = _sources()[:6]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so the hand-over races
        try:
            for src in sources:
                want = (src, _sha256(src))
                for trial in range(self.TRIALS):
                    shared = parse(src)
                    start = threading.Barrier(self.THREADS, timeout=60)
                    got = [None] * self.THREADS

                    def read(i):
                        start.wait()
                        if (i + trial) % 2:
                            got[i] = (serialize(shared), structural_digest(shared))
                        else:
                            digest = structural_digest(shared)
                            got[i] = (serialize(shared), digest)

                    threads = [threading.Thread(target=read, args=(i,)) for i in range(self.THREADS)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(60)
                        assert not thread.is_alive()
                    assert got == [want] * self.THREADS, src
                    assert "_text" not in vars(shared)
        finally:
            sys.setswitchinterval(interval)


class TestIndexAgainstLinearScans:
    def test_tag_and_id_lookups_match_the_slow_references(self):
        for h in _values():
            cold = fresh(h)
            assert cold.tag_universe() == _tag_universe_ref(h)
            for b in (*_tag_universe_ref(h), "unknown-tag", "a b"):
                assert list(_tagged(cold, b)) == _tagged_ref(h, b)
                assert visible_set(cold, b) == _visible_set_ref(h, b)
                view, ref = project(cold, b), _project_ref(h, b)
                assert view == ref
                assert serialize(view.content) == serialize(ref.content)
            for name in (*(s.id for s in h.simplices), *h.vertices, "unknown", "a b"):
                assert cold.simplex(name) is _simplex_ref(h, name)

    def test_each_id_maps_to_the_position_of_its_first_declaration(self):
        for h in _values():
            ids = [s.id for s in h.simplices]
            assert list(fresh(h)._at.items()) == [(x, ids.index(x)) for x in dict.fromkeys(ids)]

    def test_invalid_values_keep_their_first_declaration_and_list_once_per_tag(self):
        repeated_tag, repeated_id = _invalid_values()
        assert _tagged(repeated_tag, "t") == ("x",)
        assert repeated_tag.tag_universe() == ("t", "u")
        assert _tagged(repeated_id, "u") == ("y", "x")
        assert _tagged(repeated_id, "t") == ("x", "y")
        assert repeated_id.simplex("x") is repeated_id.simplices[0]


class TestSlots:
    @pytest.mark.parametrize("value", [
        Participant(Identifier("a")),
        RelationSymbol(Identifier("R"), ("r",)),
        Hypersimplex(Identifier("x"), (Participant(Identifier("a")),), Identifier("R")),
    ], ids=lambda v: type(v).__name__)
    def test_element_values_have_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))

    @pytest.mark.parametrize("make", [
        lambda: Participant(Identifier("a")),
        lambda: RelationSymbol(Identifier("R"), ("r",)),
        lambda: Hypersimplex(Identifier("x"), (Participant(Identifier("a")),), Identifier("R")),
    ], ids=["Participant", "RelationSymbol", "Hypersimplex"])
    def test_every_assignment_raises_and_leaves_the_value_unchanged(self, make):
        value, same = make(), make()
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, None)
        # Not a field: CPython 3.11's generated __setattr__ raises TypeError here.
        for name in ("other", "__dict__"):
            with pytest.raises((AttributeError, TypeError)):
                setattr(value, name, None)
        assert value == same
        assert dataclasses.astuple(value) == dataclasses.astuple(same)
        assert not hasattr(value, "other")

    def test_hypernetwork_keeps_its_instance_dict_for_the_caches(self, bicycle):
        assert hasattr(bicycle, "__dict__")

    @pytest.mark.parametrize("key", ["E1", "E2", "E3"])
    def test_pickle_and_deepcopy_round_trip_a_fixture(self, key):
        h = parse(serialize(load_fixture(key)))
        for copied in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
            assert copied == h
            assert serialize(copied) == serialize(h)


# -- checks that read the id map only when the value already holds it -------

def _mapped(h: Hypernetwork) -> Hypernetwork:
    """An equal value whose id map is built, and no other cache."""
    h = fresh(h)
    h._at
    return h


def _result(fn, *args):
    """What ``fn(*args)`` returns, in typed form, or its unresolved-name message."""
    try:
        out = fn(*args)
    except UnresolvedIdentifierError as exc:
        return "unresolved", str(exc)
    if isinstance(out, View):
        return out.base_digest, out.boundary, typed(out.content)
    return None if out is None else typed(out)


def _name_groups(h: Hypernetwork) -> list[list[str]]:
    """Each declared name, relation name and bad name alone, and some mixes."""
    names = [*h.vertices, *(s.id for s in h.simplices)]
    relations = [r.id for r in h.relations]
    groups = [[n] for n in (*names, *relations, "ghost", "a b", "")]
    groups += [[], names, [*names[:2], *relations[:1]], ["a b", *relations[:1], "ghost"]]
    return groups


class TestOneShotChecks:
    def values(self):
        return [*(load_fixture(k) for k in ("E1", "E2", "E3")), *_invalid_values(),
                *acceptance_corpus()[:40]]

    def test_require_prune_and_split_agree_with_and_without_the_id_map(self):
        for h in self.values():
            for group in _name_groups(h):
                for fn in (require_declared, prune, split):
                    cold = fresh(h)
                    got = _result(fn, cold, group)
                    assert got == _result(fn, _mapped(h), group), (fn.__name__, h, group)
                    if fn is prune:
                        assert "_at" not in vars(cold)
                        assert got == _result(REFERENCE["prune"], h, group)

    def test_scoped_prune_and_split_agree_with_and_without_the_views_id_map(self, monkeypatch):
        cases = [(h, b, group) for h in self.values()
                 for b in (*h.tag_universe()[:2], "unknown")
                 for group in _name_groups(project(h, b).content)]
        cold = [_result(fn, h, group, b) for h, b, group in cases for fn in (scoped_prune, scoped_split)]
        real = hyperscope.scope.project

        def project_mapped(h, b):
            view = real(h, b)
            view.content._at
            return view

        monkeypatch.setattr(hyperscope.scope, "project", project_mapped)
        mapped = [_result(fn, h, group, b) for h, b, group in cases for fn in (scoped_prune, scoped_split)]
        assert cold == mapped
        assert any(r[0] == "unresolved" for r in cold) and any(r[0] != "unresolved" for r in cold)

    def test_the_repeated_id_is_demoted_once_per_declaration_either_way(self):
        _, repeated_id = _invalid_values()
        # "y" references "x", declared twice: each declaration leaves a vertex.
        both_x = Hypernetwork(simplices=repeated_id.simplices[::2])
        for h in (fresh(repeated_id), _mapped(repeated_id)):
            assert difference(h, both_x).vertices == ("x", "x")
            assert prune(h, ["x"]).vertices == ("a", "b", "x", "x")
            assert _result(require_declared, h, ["R", "a b"]) == ("unresolved", "R does not resolve to a "
                                                                  "vertex or hypersimplex")

    def test_prune_meet_and_difference_build_no_id_map_on_a_fresh_left_input(self, bicycle):
        only_bicycle = Hypernetwork(simplices=(bicycle.simplex("bicycle"),))
        only_drive = Hypernetwork(simplices=(bicycle.simplex("drive"),))
        for op, other in ((prune, ["drive", "frame"]), (meet, only_bicycle), (difference, only_drive)):
            h = fresh(bicycle)
            out = op(h, other)
            assert "_at" not in vars(h), op.__name__
            assert "drive" in out.vertices and "drive" not in bicycle.vertices  # a demoted id
            assert typed(out) == typed(REFERENCE[op.__name__](bicycle, other))
        h = fresh(bicycle)
        split(h, ["cyclist"])
        assert "_at" not in vars(h)


# -- the id map is kept only where a value is read again ---------------------

SCOPED = (scoped_apply, scoped_prune, scoped_split)


def _id_map_cases(h: Hypernetwork):
    """``(fn, args)`` for each operator, scoped form and view operation on ``h``.

    Right operands are ``h`` and a split of it; names are an id, the last
    two ids with a vertex, and an unknown name; boundaries are two tags of
    ``h`` and an unknown one.
    """
    ids = [s.id for s in h.simplices]
    groups = [g for g in (ids[:1], [*ids[-2:], *h.vertices[:1]]) if g] + [["ghost"]]
    tags = [*h.tag_universe()[:2], "unknown"]
    for k in (h, split(h, ids[:2])):
        for op, fn in BINARY.items():
            yield fn, (h, k)
            for b in tags:
                yield scoped_apply, (op, h, k, b)
    for g in groups:
        for fn in (prune, split, descendants):
            yield fn, (h, g)
        for b in tags:
            yield scoped_prune, (h, g, b)
            yield scoped_split, (h, g, b)
    views = [project(h, b) for b in tags]
    for v1 in views:
        for v2 in views:
            yield view_intersect, (v1, v2)
            yield view_union, (v1, v2)


def _run(fn, args: tuple, prep) -> tuple[list[Hypernetwork], object]:
    """The input values ``prep`` made of ``args``, and ``fn``'s typed result or error."""
    args = tuple(dataclasses.replace(a, content=prep(a.content)) if isinstance(a, View)
                 else prep(a) if isinstance(a, Hypernetwork) else a for a in args)
    inputs = [getattr(a, "content", a) for a in args if isinstance(a, (Hypernetwork, View))]
    try:
        out = fn(*args)
    except HypernetworkError as exc:
        return inputs, (type(exc), str(exc))
    if isinstance(out, (Hypernetwork, View)):
        content = getattr(out, "content", out)
        assert "_at" not in vars(content), fn.__name__  # a result keeps no map
        out = (out.base_digest, out.boundary, typed(content)) if isinstance(out, View) else typed(out)
    return inputs, out


class TestIdMapRule:
    def values(self):
        return [*(load_fixture(k) for k in ("E1", "E2", "E3")), *_invalid_values(),
                *acceptance_corpus()[:40]]

    def test_operators_keep_no_map_and_agree_with_and_without_one(self):
        for h in self.values():
            for fn, args in _id_map_cases(h):
                inputs, got = _run(fn, args, fresh)
                assert got == _run(fn, args, _mapped)[1], (fn.__name__, h, args)
                if fn.__name__ in REFERENCE:
                    want = _run(REFERENCE[fn.__name__], args, fresh)[1]
                    assert got == want, (fn.__name__, h, args)
                # A scoped form projects its backcloths, and a projection keeps their maps.
                assert [("_at" in vars(x)) for x in inputs] == [fn in SCOPED] * len(inputs), fn.__name__

    def test_parse_validate_the_boundary_reads_and_simplex_keep_the_map(self):
        for h in self.values():
            b = (*h.tag_universe(), "unknown")[0]
            for read in (validate, lambda x: project(x, b), lambda x: visible_set(x, b),
                         lambda x: x.simplex("ghost")):
                cold = fresh(h)
                read(cold)
                assert "_at" in vars(cold)
        for key in ("E1", "E2", "E3"):
            assert "_at" in vars(parse(serialize(load_fixture(key))))
