"""Command-line interface over ``.ht`` files.

Commands read hypernetwork files, never rewrite them, and print canonical
``.ht`` text (or a report, or a digest) to stdout, so the output of one
command is valid input to the next. Exit codes: 0 success, 1 validation
failure, 2 usage or file error (an unreadable or unparsable input, an
unwritable ``--out``), 3 operation error.
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
        # newline="": parse sees the file's own line breaks, as from a str
        with Path(path).open(encoding="utf-8", newline="") as f:
            source = f.read()
    except (OSError, UnicodeDecodeError) as exc:
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


def _write(ns: argparse.Namespace) -> int:
    """Load the command's input files, run its operation, write the result.

    ``ns.operation(ns, *networks)`` returns a ``Hypernetwork``, written as
    canonical ``.ht``, or the text to write as it is.
    """
    inputs = [getattr(ns, name) for name in ("file", "file1", "file2") if name in ns]
    result = ns.operation(ns, *map(_load, inputs))
    out_text = result if isinstance(result, str) else text.serialize(result)
    if ns.out is None:
        sys.stdout.write(out_text)
        return 0
    out_path = Path(ns.out).resolve()
    if any(out_path == Path(p).resolve() for p in inputs):
        raise _UsageError(f"--out {ns.out} would overwrite an input file")
    try:
        out_path.write_text(out_text, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {ns.out}: {exc}") from exc
    return 0


def _cmd_validate(ns: argparse.Namespace) -> int:
    report = axioms.validate(_load(ns.file, parse=text.parse_unchecked))
    if report.ok:
        return 0
    sys.stdout.write(report.render() + "\n")
    return 1


def _project(ns: argparse.Namespace, h: Hypernetwork) -> Hypernetwork:
    return scope.project(h, _ident(ns.boundary, "boundary tag")).content


def _op_binary(ns: argparse.Namespace, h1: Hypernetwork, h2: Hypernetwork) -> Hypernetwork:
    if ns.boundary is None:
        return BINARY[ns.op_name](h1, h2)
    return scope.scoped_apply(ns.op_name, h1, h2, _ident(ns.boundary, "boundary tag")).content


# Unary operators by name: global form, scoped form, the option that
# names their elements, and what an element is called in usage errors.
_UNARY = {
    "prune": (prune, scope.scoped_prune, "elements", "element name"),
    "split": (split, scope.scoped_split, "closure", "closure seed"),
}


def _op_unary(ns: argparse.Namespace, h: Hypernetwork) -> Hypernetwork:
    fn, scoped, option, what = _UNARY[ns.op_name]
    names = _ident_list(getattr(ns, option), what)
    if ns.boundary is None:
        return fn(h, names)
    return scoped(h, names, _ident(ns.boundary, "boundary tag")).content


def _views(ns: argparse.Namespace, h: Hypernetwork) -> Hypernetwork:
    tags = _ident_list(ns.boundaries, "boundary tag")
    if len(tags) != 2:
        raise _UsageError("--boundaries takes exactly two comma-separated tags")
    fn = scope.view_intersect if ns.views_cmd == "intersect" else scope.view_union
    return fn(scope.project(h, tags[0]), scope.project(h, tags[1])).content


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperscope",
        description="Validate, project, and transform hypernetwork (.ht) files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    writers = {}  # sub-parser -> the operation its command runs

    p = sub.add_parser("validate", help="check a file against the axioms")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("project", help="boundary projection of a file")
    p.add_argument("file")
    p.add_argument("--boundary", required=True, metavar="TAG")
    writers[p] = _project

    p = sub.add_parser("op", help="apply a structural operator")
    opsub = p.add_subparsers(dest="op_name", required=True)
    for name in BINARY:
        q = opsub.add_parser(name)
        q.add_argument("file1")
        q.add_argument("file2")
        q.add_argument("--boundary", metavar="TAG", help="apply within this boundary only")
        writers[q] = _op_binary
    for name, (_, _, option, _) in _UNARY.items():
        q = opsub.add_parser(name)
        q.add_argument("file")
        q.add_argument(f"--{option}", required=True, metavar="a,b,...")
        q.add_argument("--boundary", metavar="TAG", help=f"{name} within this boundary only")
        writers[q] = _op_unary

    p = sub.add_parser("views", help="set-theoretic comparison of two projections")
    p.add_argument("views_cmd", choices=("intersect", "union"))
    p.add_argument("file")
    p.add_argument("--boundaries", required=True, metavar="TAG1,TAG2")
    writers[p] = _views

    p = sub.add_parser("fmt", help="rewrite a file in canonical form (to stdout)")
    p.add_argument("file")
    writers[p] = lambda ns, h: h

    p = sub.add_parser("digest", help="structural digest of a file")
    p.add_argument("file")
    writers[p] = lambda ns, h: structural_digest(h) + "\n"

    for p, operation in writers.items():
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
        p.set_defaults(handler=_write, operation=operation)
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
