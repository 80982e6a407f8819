"""Run tier-1 against planted one-line bugs in the package and report which it catches.

Usage: ``python tests/mutants.py [--only NAME] [--ignore PATH ...]``, from
the repository root. For each mutant the script copies ``src/``,
``tests/``, ``README.md`` and ``pyproject.toml`` to a temporary directory,
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
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIMEOUT_S = 600  # a mutant that hangs tier-1 counts as killed


class Mutant(NamedTuple):
    name: str
    path: str  # under src/hyperscope/
    old: str
    new: str


MUTANTS = (
    # Planted in the kernel, the scope layer and the validator.
    Mutant("walk-traverses-anti-vertices", "model.py",
           "anti.add(p.ref)\n                elif p.ref not in closure:",
           "anti.add(p.ref)\n                if p.ref not in closure:"),
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
           "_assemble(h, kept, refs | seeds, refs - closure)",
           "_assemble(h, kept, refs, refs - closure)"),
    Mutant("paired-ignores-kind-mismatch", "ops.py",
           "other = k2.get(name)", "other = None"),
    Mutant("require-declared-names-greatest", "model.py",
           "{min(missing)} {reason}", "{max(missing)} {reason}"),
    Mutant("view-union-keeps-demoted-vertices", "scope.py",
           "tuple(v for v in v1.content.vertices if v not in sim_ids)",
           "tuple(v for v in v1.content.vertices)"),
    Mutant("difference-keeps-tagged", "ops.py",
           "[s for s in h1.simplices if s.id not in ids2]",
           "[s for s in h1.simplices if s.id not in ids2 or s.tags]"),
    Mutant("tag-index-lists-repeated-tag-twice", "model.py",
           "for t in dict.fromkeys(s.tags):", "for t in s.tags:"),
    Mutant("view-intersect-takes-right-vertex-order", "scope.py",
           "in_v2 = set(v2.content.vertices)\n    vertices = [v for v in v1.content.vertices if v in in_v2]",
           "in_v2 = set(v1.content.vertices)\n    vertices = [v for v in v2.content.vertices if v in in_v2]"),
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
