from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hyperscope import parse, project, serialize, structural_digest
from hyperscope.cli import build_parser, main
from hyperscope.corpus import DIGESTS

CORPUS = Path(__file__).resolve().parent.parent / "src" / "hyperscope" / "corpus"


@pytest.fixture()
def workdir(tmp_path):
    for name in ("bicycle.ht", "emergency.ht", "ecology.ht"):
        shutil.copy(CORPUS / name, tmp_path / name)
    return tmp_path


def _run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(workdir, capsys):
    code, out, err = _run(capsys, ["validate", str(workdir / "bicycle.ht")])
    assert (code, out, err) == (0, "", "")


def test_validate_reports_and_exits_1(workdir, capsys):
    bad = workdir / "bad.ht"
    bad.write_text("vertex a\nvertex a\nrelation R(r1, r2)\nx = < ghost ; R >\n")
    code, out, err = _run(capsys, ["validate", str(bad)])
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 3
    axiom, subject, _ = lines[0].split("\t")
    assert (axiom, subject) == ("A1", "a")


def test_validate_syntax_error_exits_2(workdir, capsys):
    bad = workdir / "syntax.ht"
    bad.write_text("x = < a ; R ; >\n")
    code, out, err = _run(capsys, ["validate", str(bad)])
    assert code == 2
    assert "E_SYNTAX" in err


def test_fmt_reads_a_utf8_bom_and_crlf_file(workdir, capsys):
    src = workdir / "bom.ht"
    src.write_bytes(b"\xef\xbb\xbfvertex a\r\nrelation R(r1)\r\nx = < a ; R >\r\n")
    code, out, err = _run(capsys, ["fmt", str(src)])
    assert (code, out, err) == (0, "vertex a\nrelation R(r1)\nx = < a ; R > : alpha\n", "")


def test_lone_cr_is_not_a_line_break(workdir, capsys):
    src = workdir / "cr.ht"
    src.write_bytes(b"vertex a # note\rvertex b\nx = < a, b ; R >\nrelation R(r1, r2)\n")
    code, out, err = _run(capsys, ["fmt", str(src)])
    assert (code, out) == (2, "")
    assert err == f"error: {src}: E_UNRESOLVED: line 2, column 1: participant b does not resolve\n"


def test_project_fire(workdir, capsys, emergency):
    code, out, err = _run(
        capsys, ["project", str(workdir / "emergency.ht"), "--boundary", "b_fire"]
    )
    assert code == 0
    assert out == serialize(project(emergency, "b_fire").content)
    got = parse(out)
    assert {str(s.id) for s in got.simplices} == {"fireUnit", "report"}


def test_scoped_prune_through_cli(workdir, capsys):
    code, out, err = _run(
        capsys,
        [
            "op", "prune", str(workdir / "emergency.ht"),
            "--elements", "equipment", "--boundary", "b_fire",
        ],
    )
    assert code == 0
    fire_unit = parse(out).simplex("fireUnit")
    assert [str(p) for p in fire_unit.participants] == ["crew", "engine", "!equipment"]


def test_global_merge(workdir, capsys, emergency, ecology):
    from hyperscope import merge

    code, out, err = _run(
        capsys,
        ["op", "merge", str(workdir / "emergency.ht"), str(workdir / "ecology.ht")],
    )
    assert code == 0
    assert out == serialize(merge(emergency, ecology))


def test_scoped_difference(workdir, capsys, emergency):
    code, out, err = _run(
        capsys,
        [
            "op", "difference", str(workdir / "emergency.ht"),
            str(workdir / "emergency.ht"), "--boundary", "b_fire",
        ],
    )
    assert code == 0
    assert out == ""


def test_global_prune(workdir, capsys, emergency):
    from hyperscope import prune

    code, out, err = _run(
        capsys, ["op", "prune", str(workdir / "emergency.ht"), "--elements", "equipment,report"]
    )
    assert code == 0
    assert out == serialize(prune(emergency, ["equipment", "report"]))


def test_scoped_split_through_cli(workdir, capsys, bicycle):
    from hyperscope import scoped_split

    code, out, err = _run(
        capsys,
        ["op", "split", str(workdir / "bicycle.ht"), "--closure", "bicycle", "--boundary", "b_cyclist"],
    )
    assert code == 0
    assert out == serialize(scoped_split(bicycle, ["bicycle"], "b_cyclist").content)


@pytest.mark.parametrize("op, wrong, right", [
    ("prune", "--closure", "--elements"),
    ("split", "--elements", "--closure"),
])
def test_unary_op_rejects_the_other_operators_option(workdir, capsys, op, wrong, right):
    code, out, err = _run(capsys, ["op", op, str(workdir / "bicycle.ht"), wrong, "frame"])
    assert (code, out) == (2, "")
    assert f"required: {right}" in err


def test_split_command(workdir, capsys, bicycle):
    from hyperscope import split

    code, out, err = _run(
        capsys, ["op", "split", str(workdir / "bicycle.ht"), "--closure", "bicycle"]
    )
    assert code == 0
    assert out == serialize(split(bicycle, {"bicycle"}))


def test_views_intersect(workdir, capsys, bicycle):
    code, out, err = _run(
        capsys,
        [
            "views", "intersect", str(workdir / "bicycle.ht"),
            "--boundaries", "b_person,b_cyclist",
        ],
    )
    assert code == 0
    got = parse(out)
    assert [str(s.id) for s in got.simplices] == ["person"]
    assert set(got.vertices) == {"body", "legs", "arms", "cardio"}


def test_views_union(workdir, capsys, ecology):
    code, out, err = _run(
        capsys,
        [
            "views", "union", str(workdir / "ecology.ht"),
            "--boundaries", "b_predator,b_prey",
        ],
    )
    assert code == 0
    assert [str(s.id) for s in parse(out).simplices] == ["predation", "foraging"]


def test_views_requires_two_boundaries(workdir, capsys):
    code, out, err = _run(
        capsys,
        ["views", "union", str(workdir / "ecology.ht"), "--boundaries", "b_predator"],
    )
    assert code == 2
    assert err


def test_fmt_canonicalizes(workdir, capsys):
    messy = workdir / "messy.ht"
    messy.write_text("vertex a\nrelation R(r1)\nx=<a;R;t>\n")
    code, out, err = _run(capsys, ["fmt", str(messy)])
    assert code == 0
    assert out == "vertex a\nrelation R(r1)\nx = < a ; R ; t > : alpha\n"


def test_importing_the_cli_leaves_hashlib_unloaded_until_a_digest(ecology):
    # fmt, validate and an unscoped op print no digest, so they must not pay
    # for loading hashlib (and OpenSSL) at start-up; -S keeps site's imports out.
    code = (
        "import sys\n"
        "import hyperscope.cli\n"
        "print('hashlib' in sys.modules)\n"
        "import hyperscope as hs\n"
        "print(hs.structural_digest(hs.load_fixture('E3')))\n"
    )
    expected = hashlib.sha256(serialize(ecology).encode("utf-8")).hexdigest()
    assert _run_bare(code) == f"False\n{expected}\n"


def test_importing_the_cli_or_loading_a_fixture_leaves_importlib_resources_unloaded():
    code = (
        "import sys\n"
        "import hyperscope.cli\n"
        "print('importlib.resources' in sys.modules, 'typing' in sys.modules)\n"
        "import hyperscope as hs\n"
        "print(hs.structural_digest(hs.load_fixture('E3')))\n"
        "print('importlib.resources' in sys.modules, 'typing' in sys.modules)\n"
    )
    assert _run_bare(code) == f"False False\n{DIGESTS['E3']}\nFalse False\n"


def _run_bare(code):
    """Stdout of ``code`` in a fresh interpreter under -S, so no ``site`` import is counted."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(CORPUS.parent.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout


def test_digest_matches_library(workdir, capsys, ecology):
    code, out, err = _run(capsys, ["digest", str(workdir / "ecology.ht")])
    assert code == 0
    assert out.strip() == structural_digest(ecology)


def test_out_flag_writes_file(workdir, capsys):
    target = workdir / "out.ht"
    code, out, err = _run(
        capsys,
        [
            "project", str(workdir / "emergency.ht"),
            "--boundary", "b_police", "--out", str(target),
        ],
    )
    assert code == 0
    assert out == ""
    assert {str(s.id) for s in parse(target.read_text()).simplices} == {"policeUnit", "report"}


def test_out_refusing_to_overwrite_input(workdir, capsys):
    src = workdir / "emergency.ht"
    before = src.read_text()
    code, out, err = _run(
        capsys, ["project", str(src), "--boundary", "b_fire", "--out", str(src)]
    )
    assert code == 2
    assert src.read_text() == before


def test_usage_error_exits_2(capsys):
    code, out, err = _run(capsys, ["unknown-command"])
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, out, err = _run(capsys, ["digest", "no-such-file.ht"])
    assert code == 2
    assert err


@pytest.mark.parametrize("args, error", [
    (["fmt", "latin1.ht"], "cannot read latin1.ht"),
    (["fmt", "bicycle.ht", "--out", "missing/out.ht"], "cannot write missing/out.ht"),
    (["fmt", "bicycle.ht", "--out", "."], "cannot write ."),
])
def test_file_error_exits_2_with_one_line(workdir, capsys, monkeypatch, args, error):
    monkeypatch.chdir(workdir)
    (workdir / "latin1.ht").write_bytes(b"vertex caf\xe9\n")
    code, out, err = _run(capsys, args)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {error}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("args, message", [
    (["op", "prune", "bicycle.ht", "--elements", "a b"], "invalid element name: 'a b'"),
    (["op", "split", "bicycle.ht", "--closure", "bike,a b"], "invalid closure seed: 'a b'"),
    (["project", "bicycle.ht", "--boundary", "a b"], "invalid boundary tag: 'a b'"),
    (["views", "intersect", "bicycle.ht", "--boundaries", "b_person,a b"],
     "invalid boundary tag: 'a b'"),
])
def test_malformed_name_is_a_usage_error(workdir, capsys, monkeypatch, args, message):
    monkeypatch.chdir(workdir)
    code, out, err = _run(capsys, args)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_operation_error_exits_3(workdir, capsys):
    a = workdir / "a.ht"
    b = workdir / "b.ht"
    a.write_text("vertex p\nrelation R(r1)\nx = < p ; R >\n")
    b.write_text("vertex q\nrelation R(r1)\nx = < q ; R >\n")
    code, out, err = _run(capsys, ["op", "merge", str(a), str(b)])
    assert code == 3
    assert "E_IDENTITY_CONFLICT" in err


def test_runs_are_deterministic_and_inputs_untouched(workdir, capsys):
    path = workdir / "bicycle.ht"
    before = path.read_bytes()
    first = _run(capsys, ["project", str(path), "--boundary", "b_cyclist"])
    second = _run(capsys, ["project", str(path), "--boundary", "b_cyclist"])
    assert first == second
    assert path.read_bytes() == before


def _usages(parser):
    yield parser.format_usage()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _usages(sub)


def test_usage_of_every_command_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    assert list(_usages(build_parser())) == [
        "usage: hyperscope [-h] {validate,project,op,views,fmt,digest} ...\n",
        "usage: hyperscope validate [-h] file\n",
        "usage: hyperscope project [-h] --boundary TAG [--out FILE] file\n",
        "usage: hyperscope op [-h] {merge,meet,difference,prune,split} ...\n",
        "usage: hyperscope op merge [-h] [--boundary TAG] [--out FILE] file1 file2\n",
        "usage: hyperscope op meet [-h] [--boundary TAG] [--out FILE] file1 file2\n",
        "usage: hyperscope op difference [-h] [--boundary TAG] [--out FILE] file1 file2\n",
        "usage: hyperscope op prune [-h] --elements a,b,... [--boundary TAG] [--out FILE] file\n",
        "usage: hyperscope op split [-h] --closure a,b,... [--boundary TAG] [--out FILE] file\n",
        "usage: hyperscope views [-h] --boundaries TAG1,TAG2 [--out FILE] {intersect,union} file\n",
        "usage: hyperscope fmt [-h] [--out FILE] file\n",
        "usage: hyperscope digest [-h] [--out FILE] file\n",
    ]
