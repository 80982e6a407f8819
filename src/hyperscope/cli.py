"""Command-line interface over ``.ht`` files.

Commands read hypernetwork files, never rewrite them, and print canonical
``.ht`` text (or a report, or a digest) to stdout, so the output of one
command is valid input to the next. Exit codes: 0 success, 1 validation
failure, 2 usage or file-parse error, 3 operation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import axioms, scope, text
from .errors import HypernetworkError
from .model import Hypernetwork, Identifier, structural_digest
from .ops import BINARY, prune, split


class _UsageError(Exception):
    pass


def _load(path: str, parse=text.parse) -> Hypernetwork:
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(source)
    except HypernetworkError as exc:
        raise _UsageError(f"{path}: {exc.code}: {exc}") from exc


def _ident(raw: str, what: str) -> Identifier:
    try:
        return Identifier(raw)
    except ValueError:
        raise _UsageError(f"invalid {what}: {raw!r}") from None


def _ident_list(raw: str, what: str) -> list[Identifier]:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    return [_ident(n, what) for n in names]


def _emit(out_text: str, ns: argparse.Namespace, inputs: list[str]) -> int:
    out = getattr(ns, "out", None)
    if out is None:
        sys.stdout.write(out_text)
        return 0
    out_path = Path(out).resolve()
    for p in inputs:
        if out_path == Path(p).resolve():
            raise _UsageError(f"--out {out} would overwrite an input file")
    out_path.write_text(out_text, encoding="utf-8")
    return 0


def _cmd_validate(ns: argparse.Namespace) -> int:
    report = axioms.validate(_load(ns.file, parse=text.parse_unchecked))
    if report.ok:
        return 0
    sys.stdout.write(report.render() + "\n")
    return 1


def _cmd_project(ns: argparse.Namespace) -> int:
    h = _load(ns.file)
    view = scope.project(h, _ident(ns.boundary, "boundary tag"))
    return _emit(text.serialize(view.content), ns, [ns.file])


def _cmd_op_binary(ns: argparse.Namespace) -> int:
    h1 = _load(ns.file1)
    h2 = _load(ns.file2)
    if ns.boundary is not None:
        result = scope.scoped_apply(ns.op_name, h1, h2, _ident(ns.boundary, "boundary tag")).content
    else:
        result = BINARY[ns.op_name](h1, h2)
    return _emit(text.serialize(result), ns, [ns.file1, ns.file2])


# Unary operators by name: global form, scoped form, the option that
# names their elements, and what an element is called in usage errors.
_UNARY = {
    "prune": (prune, scope.scoped_prune, "elements", "element name"),
    "split": (split, scope.scoped_split, "closure", "closure seed"),
}


def _cmd_op_unary(ns: argparse.Namespace) -> int:
    fn, scoped, option, what = _UNARY[ns.op_name]
    h = _load(ns.file)
    names = _ident_list(getattr(ns, option), what)
    if ns.boundary is not None:
        result = scoped(h, names, _ident(ns.boundary, "boundary tag")).content
    else:
        result = fn(h, names)
    return _emit(text.serialize(result), ns, [ns.file])


def _cmd_views(ns: argparse.Namespace) -> int:
    h = _load(ns.file)
    tags = _ident_list(ns.boundaries, "boundary tag")
    if len(tags) != 2:
        raise _UsageError("--boundaries takes exactly two comma-separated tags")
    v1 = scope.project(h, tags[0])
    v2 = scope.project(h, tags[1])
    fn = scope.view_intersect if ns.views_cmd == "intersect" else scope.view_union
    return _emit(text.serialize(fn(v1, v2).content), ns, [ns.file])


def _cmd_fmt(ns: argparse.Namespace) -> int:
    return _emit(text.serialize(_load(ns.file)), ns, [ns.file])


def _cmd_digest(ns: argparse.Namespace) -> int:
    return _emit(structural_digest(_load(ns.file)) + "\n", ns, [ns.file])


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperscope",
        description="Validate, project, and transform hypernetwork (.ht) files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a file against the axioms")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("project", help="boundary projection of a file")
    p.add_argument("file")
    p.add_argument("--boundary", required=True, metavar="TAG")
    _add_out(p)
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("op", help="apply a structural operator")
    opsub = p.add_subparsers(dest="op_name", required=True)
    for name in BINARY:
        q = opsub.add_parser(name)
        q.add_argument("file1")
        q.add_argument("file2")
        q.add_argument("--boundary", metavar="TAG", help="apply within this boundary only")
        _add_out(q)
        q.set_defaults(handler=_cmd_op_binary)
    for name, (_, _, option, _) in _UNARY.items():
        q = opsub.add_parser(name)
        q.add_argument("file")
        q.add_argument(f"--{option}", required=True, metavar="a,b,...")
        q.add_argument("--boundary", metavar="TAG", help=f"{name} within this boundary only")
        _add_out(q)
        q.set_defaults(handler=_cmd_op_unary)

    p = sub.add_parser("views", help="set-theoretic comparison of two projections")
    p.add_argument("views_cmd", choices=("intersect", "union"))
    p.add_argument("file")
    p.add_argument("--boundaries", required=True, metavar="TAG1,TAG2")
    _add_out(p)
    p.set_defaults(handler=_cmd_views)

    p = sub.add_parser("fmt", help="rewrite a file in canonical form (to stdout)")
    p.add_argument("file")
    _add_out(p)
    p.set_defaults(handler=_cmd_fmt)

    p = sub.add_parser("digest", help="structural digest of a file")
    p.add_argument("file")
    _add_out(p)
    p.set_defaults(handler=_cmd_digest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.handler(ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypernetworkError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
