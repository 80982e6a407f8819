"""Run tier-1 against planted one-line bugs in the package and report which it catches.

Usage: ``python tests/mutants.py [--only NAME] [--ignore PATH ...]``, from
the repository root. For each mutant the script copies ``src/``,
``tests/``, ``perfbench/`` (whose generator ``tests/test_text.py`` reads),
``README.md`` and ``pyproject.toml`` to a temporary directory,
replaces the mutant's old text with its new text there, and runs tier-1
with ``-x -q -p no:cacheprovider``. It prints one line per mutant: KILLED
or SURVIVED, the time, the name and the first failing test. It exits 0
when every mutant it ran was killed.

``--only NAME`` runs one mutant (repeat it for more). ``--ignore PATH``
is passed through to pytest (repeat it for more), so running with one test
module ignored lists the mutants that only that module catches.

Each mutant's old text must occur exactly once in its file;
``tests/test_mutants.py`` checks that in tier-1. A change that moves or
rewrites a mutated line updates its mutant in the same change. The
unmutated tree must pass tier-1, or every mutant reads as killed.

The script uses the standard library only, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
TIMEOUT_S = 600  # a mutant that hangs tier-1 counts as killed


class Mutant(NamedTuple):
    name: str
    path: str  # under src/hyperscope/
    old: str
    new: str


MUTANTS = (
    # Planted in the kernel, the scope layer and the validator.
    Mutant("walk-traverses-anti-vertices", "model.py",
           "anti.add(p.ref)\n            elif p.ref not in closure:",
           "anti.add(p.ref)\n            if p.ref not in closure:"),
    Mutant("merge-puts-new-tags-first", "ops.py",
           "_retagged(s, s.tags + added)", "_retagged(s, added + s.tags)"),
    Mutant("meet-keeps-right-tag-order", "ops.py",
           "tuple(filter(set(t.tags).__contains__, s.tags))",
           "tuple(filter(set(s.tags).__contains__, t.tags))"),
    Mutant("kinds-read-relations-before-vertices", "model.py",
           '    for v in h.vertices:\n        kinds.setdefault(v, "vertex")\n'
           '    for r in h.relations:\n        kinds.setdefault(r.id, "relation")\n',
           '    for r in h.relations:\n        kinds.setdefault(r.id, "relation")\n'
           '    for v in h.vertices:\n        kinds.setdefault(v, "vertex")\n'),
    Mutant("assemble-demotes-in-walk-order", "ops.py",
           "for i in sorted(at[x] for x in loose if x in at))",
           "for i in [at[x] for x in loose if x in at])"),
    Mutant("split-leaves-reached-unsorted", "ops.py",
           "    reached.sort()\n", ""),
    Mutant("validate-misses-self-reference", "axioms.py",
           "if j >= i and not p.excluded:", "if j > i and not p.excluded:"),
    Mutant("scoped-apply-always-hashes-the-pair", "scope.py",
           "base_digest=d1 if d1 == d2 else _sha256(", "base_digest=_sha256("),
    Mutant("prune-does-not-demote", "ops.py",
           "Hypernetwork(h.vertices + tuple(demoted), h.relations",
           "Hypernetwork(h.vertices, h.relations"),
    Mutant("split-fallback-drops-seeds", "ops.py",
           "_assemble(h, kept, refs | closure, refs - closure)",
           "_assemble(h, kept, refs, refs - closure)"),
    Mutant("paired-ignores-kind-mismatch", "ops.py",
           "other = k2.get(name)", "other = None"),
    Mutant("require-declared-keeps-the-declared", "model.py",
           "missing = names.difference(", "missing = names.intersection("),
    Mutant("require-declared-splits-a-str", "model.py",
           "    names = _names(names)\n", "    names = set(names)\n"),
    Mutant("structurally-equal-compares-tags", "model.py",
           "return self.untagged() == other.untagged()", "return self == other"),
    Mutant("require-declared-names-greatest", "model.py",
           "{min(missing)} {reason}", "{max(missing)} {reason}"),
    Mutant("view-union-keeps-demoted-vertices", "scope.py",
           "vertices = tuple(filterfalse(sim_ids.__contains__, c1.vertices))",
           "vertices = c1.vertices"),
    Mutant("difference-keeps-tagged", "ops.py",
           "[s for s in h1.simplices if s.id not in ids2]",
           "[s for s in h1.simplices if s.id not in ids2 or s.tags]"),
    Mutant("tag-index-lists-repeated-tag-twice", "model.py",
           "for t in dict.fromkeys(s.tags):", "for t in s.tags:"),
    Mutant("view-intersect-takes-right-vertex-order", "scope.py",
           "in_v2 = set(v2.content.vertices)\n    vertices = tuple(filter(in_v2.__contains__, v1.content.vertices))",
           "in_v2 = set(v1.content.vertices)\n    vertices = tuple(filter(in_v2.__contains__, v2.content.vertices))"),
    # The retagging fast paths of merge and meet.
    Mutant("merge-always-adds-right-tags", "ops.py",
           "added = tuple(filterfalse(set(s.tags).__contains__, t.tags)) if s.tags else t.tags",
           "added = t.tags"),
    Mutant("merge-empty-left-adds-nothing", "ops.py",
           "t.tags)) if s.tags else t.tags", "t.tags)) if s.tags else ()"),
    Mutant("meet-empty-right-keeps-left-tags", "ops.py",
           "s.tags)) if t.tags else ()", "s.tags)) if t.tags else s.tags"),
    Mutant("retagged-writes-old-tags", "model.py",
           "set_tags(new, tags)", "set_tags(new, s.tags)"),
    Mutant("retagged-resets-kind", "model.py",
           "set_kind(new, s.kind)", "set_kind(new, Kind.ALPHA)"),
    # The walk's stack of positions, split's names and view_intersect's order.
    Mutant("walk-drops-root-at-position-zero", "model.py",
           "for i in map(at.get, closure) if i is not None]", "for i in map(at.get, closure) if i]"),
    Mutant("walk-drops-a-root", "model.py",
           "for i in map(at.get, closure) if i is not None]", "for i in map(at.get, closure) if i is not None][1:]"),
    Mutant("walk-does-not-stack-discovered-hypersimplex", "model.py",
           "stack.append(j)", "reached.append(j)"),
    Mutant("split-leaves-anti-out-of-names", "ops.py",
           "    closure |= anti\n", ""),
    Mutant("view-intersect-declares-missing-as-set", "scope.py",
           "missing = dict.fromkeys([", "missing = set(["),
    # The id maps: kept by the boundary reads, built per call by the operators.
    Mutant("split-duplicate-check-reads-simplices-length", "ops.py",
           "if len(at) < len(sims):", "if len(h.simplices) < len(sims):"),
    Mutant("split-passes-its-map-when-an-id-is-declared-twice", "ops.py",
           "_assemble(h, kept, refs | closure, refs - closure)",
           "_assemble(h, kept, refs | closure, refs - closure, at)"),
    Mutant("assemble-trusts-a-cached-map-with-a-repeated-id", "ops.py",
           "if at is not None and len(at) < len(all_sims):", "if at is not None and len(at) < 0:"),
    Mutant("split-keeps-the-map", "ops.py",
           "return _split(h, c, _id_map(h))", "return _split(h, c, h._at)"),
    Mutant("merge-keeps-the-left-map", "ops.py",
           "ids1 = _id_map(h1)", "ids1 = h1._at"),
    Mutant("paired-keeps-the-right-map", "ops.py",
           "sims2, at2 = h2.simplices, _id_map(h2)", "sims2, at2 = h2.simplices, h2._at"),
    Mutant("project-builds-a-per-call-map", "scope.py",
           "content=_split(h, _tagged(h, b), h._at)", "content=split(h, _tagged(h, b))"),
    Mutant("visible-set-builds-a-per-call-map", "scope.py",
           "walk(h, _tagged(h, b), h._at)[0]", "walk(h, _tagged(h, b))[0]"),
    # The partner list of merge and meet: one lookup pass, then the content check.
    Mutant("paired-takes-the-previous-partner", "ops.py",
           "else sims2[i] for i in map(", "else sims2[i - 1] for i in map("),
    Mutant("paired-ignores-a-kind-difference", "ops.py",
           "or s.relation != t.relation or s.kind != t.kind):", "or s.relation != t.relation):"),
    Mutant("paired-ignores-a-relation-difference", "ops.py",
           "or s.relation != t.relation or s.kind != t.kind):", "or s.kind != t.kind):"),
    Mutant("paired-skips-the-last-pair", "ops.py",
           "for s, t in zip(h1.simplices, partners):", "for s, t in zip(h1.simplices[:-1], partners):"),
    Mutant("paired-pairs-with-the-first-of-a-repeated-id", "ops.py",
           "if len(at2) < len(sims2):", "if len(at2) < 0:"),
    # The text format: spacing, the byte order mark, blocks and spans.
    Mutant("serialize-drops-the-space-after-tag-commas", "text.py",
           "f\" ; {', '.join(s.tags)}\"", "f\" ; {','.join(s.tags)}\""),
    Mutant("serialize-drops-the-space-before-the-close", "text.py",
           "{s.relation}{tags} > :", "{s.relation}{tags}> :"),
    Mutant("parse-keeps-the-byte-order-mark", "text.py",
           'start = int(text.startswith("\\ufeff"))', "start = 0"),
    Mutant("blocks-repeat-the-newline", "text.py",
           "        start = end + 1\n", "        start = end\n"),
    Mutant("blocks-drop-the-last-character", "text.py",
           'yield text[start:end].split("\\n")', 'yield text[start:end - 1].split("\\n")'),
    Mutant("name-span-column-from-zero", "text.py",
           "SourceSpan(lineno, m.start(1) + 1)", "SourceSpan(lineno, m.start(1))"),
    Mutant("token-span-column-from-zero", "text.py",
           "SourceSpan(self.lineno, tok.start() + 1)", "SourceSpan(self.lineno, tok.start())"),
    Mutant("duplicate-points-at-the-first-declaration", "text.py",
           "DuplicateIdentifierError(violation.message, at[1])",
           "DuplicateIdentifierError(violation.message, at[0])"),
    # The literal line forms that canonical text is read through first.
    Mutant("canonical-refs-split-on-bare-comma", "text.py",
           'tuple([slots[r] for r in refs.split(", ")])', 'tuple([slots[r] for r in refs.split(",")])'),
    Mutant("canonical-simplex-form-not-anchored", "text.py",
           '> : (alpha|beta)\\Z"', '> : (alpha|beta)"'),
    Mutant("canonical-vertex-form-not-anchored", "text.py",
           'rf"vertex ({NAME})\\Z|(', 'rf"vertex ({NAME})|('),
    Mutant("canonical-simplex-form-misses-beta", "text.py",
           "> : (alpha|beta)\\Z", "> : (alpha)\\Z"),
    Mutant("canonical-branch-reads-every-kind-as-alpha", "text.py",
           "_, sid, refs, rel, tags, kind = m.groups()",
           '_, sid, refs, rel, tags, kind = (*m.groups()[:5], "alpha")'),
    Mutant("literal-forms-start-off", "text.py",
           "if exact and (m := canonical(line)):", "if False and (m := canonical(line)):"),
    # The hand-over of a canonical text to its parsed value.
    Mutant("handover-ignores-the-vertex-order", "text.py",
           "                exact = lineno == len(vertices)\n", ""),
    Mutant("handover-ignores-the-relation-order", "text.py",
           "exact = (exact and lineno == len(vertices) + len(relations)\n                     and",
           "exact = (exact\n                     and"),
    Mutant("handover-allows-blank-lines", "text.py",
           "lineno == len(vertices) + len(relations) + len(simplices) + 1",
           "lineno >= len(vertices) + len(relations) + len(simplices) + 1"),
    Mutant("handover-keeps-the-byte-order-mark", "text.py",
           'text.__class__ is str and not text.startswith("\\ufeff")', "text.__class__ is str"),
    Mutant("handover-ignores-relation-spelling", "text.py",
           "\n                     and line == f\"relation {m[1]}({', '.join(roles)})\")", ")"),
    Mutant("handover-accepts-a-str-subclass", "text.py",
           "exact = text.__class__ is str and", "exact = isinstance(text, str) and"),
    Mutant("handover-ignores-the-final-newline", "text.py",
           'text[-1:] in ("\\n", "")', "True"),
    Mutant("handover-ignores-lines-off-the-literal-forms", "text.py",
           "            exact = False\n            sid, refs,", "            sid, refs,"),
    Mutant("serialize-leaves-the-text-on-the-value", "text.py",
           'vars(h).pop("_text", None)', 'vars(h).get("_text")'),
    # The validator: report order, A1 against A2, and the per-simplex checks.
    Mutant("report-sorts-by-axiom-first", "axioms.py",
           "key=lambda v: (order[v.subject], v.axiom)", "key=lambda v: (v.axiom, order[v.subject])"),
    Mutant("unresolved-anti-vertex-reads-as-a1", "axioms.py",
           "            elif kinds.get(p.ref) != \"vertex\":\n                if p.excluded:",
           "            elif kinds.get(p.ref) != \"vertex\":\n                if not p.excluded:"),
    Mutant("participant-may-name-a-relation", "axioms.py",
           'elif kinds.get(p.ref) != "vertex":', "elif p.ref not in kinds:"),
    Mutant("repeated-tag-skips-the-tag-check", "axioms.py",
           "if tags_ok and (len(tags) < 2 or len(set(tags)) == len(tags)):", "if tags_ok:"),
    Mutant("arity-accepts-extra-participants", "axioms.py",
           "elif len(s.participants) != rel.arity:", "elif len(s.participants) < rel.arity:"),
    # The scope layer: its messages and the view comparisons.
    Mutant("scoped-names-report-the-unscoped-reason", "scope.py",
           'require_declared(base.content, names, f"is not visible under boundary {b}")',
           "require_declared(base.content, names)"),
    Mutant("view-union-forgets-added-ids", "scope.py",
           "    sim_ids.update([s.id for s in added])\n", ""),
    Mutant("views-of-different-backcloths-compare", "scope.py",
           "if v1.base_digest != v2.base_digest:", "if v1.base_digest is None:"),
)


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ", 1)[0]
    return "-"


def run(m: Mutant, ignore: list[str]) -> tuple[str, str, float]:
    """``(verdict, first failing test, seconds)`` for tier-1 against ``m``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, work / name)
        target = work / "src" / "hyperscope" / m.path
        text = target.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            return "STALE", f"old text occurs {text.count(m.old)} times in {m.path}", 0.0
        target.write_text(text.replace(m.old, m.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(work / "src"), os.environ.get("PYTHONPATH")])))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
        # That module checks this list against the source, which fails on any mutant.
        cmd += [f"--ignore={p}" for p in ("tests/test_mutants.py", *ignore)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "KILLED", f"(timeout after {TIMEOUT_S} s)", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "SURVIVED", "-", seconds
    if proc.returncode == 1:
        return "KILLED", _first_failure(proc.stdout), seconds
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return "ERROR", f"pytest exit {proc.returncode}: {' '.join(tail)}", seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--only", action="append", metavar="NAME", help="run this mutant only")
    parser.add_argument("--ignore", action="append", default=[], metavar="PATH",
                        help="passed through to pytest")
    args = parser.parse_args(argv)
    names = {m.name for m in MUTANTS}
    unknown = set(args.only or ()) - names
    if unknown:
        parser.error("unknown mutant: " + ", ".join(sorted(unknown)))
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    killed = 0
    for m in chosen:
        verdict, first, seconds = run(m, args.ignore)
        killed += verdict == "KILLED"
        print(f"{verdict:<8} {seconds:6.1f} s  {m.name}  {first}", flush=True)
    print(f"killed {killed} of {len(chosen)}")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
