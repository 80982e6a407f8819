"""The benchmark's workloads: ingest, scoped_query, compose and cli.

A workload is set up once per run (``setup``, timed as ``setup_s``) and then
yields its tasks in rounds. Each task has a slot, its place in the round.
A slot's inputs (document, tag, operator, names) are drawn from the seed and
the slot alone, so every round repeats the same work and only the order of
the slots changes; a run that stops at a round boundary measures the same
mix whatever its length. ``tail_percentile`` is the latency
percentile a workload reports: the highest of 50, 75, 90, 95, 99 that keeps
ten samples beyond it at the sample count a run of fifteen seconds reaches.

A task is one user-level request. ``run(call)`` makes the library calls
through ``call`` (see :mod:`spans`) and returns the output; ``check(output)``
compares that output with the generator's expectation or an :mod:`oracle`
reference, outside the timed region. A task with ``error`` set must raise
that exception class at that source span instead.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import hyperscope as hs

import htgen
import oracle

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"

ZIPF = tuple(1 / (k + 1) ** 1.1 for k in range(len(htgen.TAGS)))


def zipf_tag(rng: random.Random, tags=htgen.TAGS) -> str:
    return rng.choices(tags, ZIPF[:len(tags)])[0]


@dataclass
class Task:
    kind: str
    run: Callable[[Callable], Any]
    check: Callable[[Any], bool]
    error: tuple | None = None
    value: Any = None  # output a passed check keeps for a later task of a chain
    slot: Any = None  # the task's place in a round, the same in every round


def _sims_out(h) -> dict:
    return {"sims_out": len(getattr(h, "content", h).simplices)}


def _visible(view) -> dict:
    return {"visible": len(view.content.simplices)}


# -- ingest -----------------------------------------------------------------

# (hypersimplices, style, pipeline, hub width) of one round's documents.
# The sizes put several documents of about the same cost around the median
# and the 75th percentile, so that those percentiles do not hinge on the
# latency of a single document.
INGEST_ROUND = (
    (100, "canonical", "fmt", 0),
    (100, "canonical", "validate", 0),
    (150, "canonical", "digest", 0),
    (200, "canonical", "fmt", 0),
    (300, "canonical", "validate", 0),
    (1000, "canonical", "fmt", 0),
    (1000, "canonical", "digest", 0),
    (1000, "canonical", "validate", 0),
    (1000, "canonical", "digest", 0),
    (3000, "canonical", "fmt", 0),
    (3000, "canonical", "validate", 0),
    (10000, "canonical", "fmt", 0),
    (100, "handwritten", "digest", 0),
    (300, "handwritten", "fmt", 0),
    (1000, "handwritten", "validate", 0),
    (3000, "handwritten", "digest", 0),
    (5000, "handwritten", "validate", 0),
    (1500, "canonical", "validate", 1000),
    (3000, "canonical", "digest", 1000),
)
# One more document carries one defect; its kind, style and pipeline are
# drawn from the seed.
INGEST_DEFECT_SIZE = 200
PIPELINES = ("fmt", "validate", "digest")


def ingest_task(doc: htgen.Doc, pipeline: str) -> Task:
    """One CLI-equivalent pipeline over one document's text."""
    attrs = {"decls": doc.decls, "style": doc.style, "wide": doc.wide}
    if pipeline == "validate":
        def run(call):
            h = call("text.parse_unchecked", hs.parse_unchecked, doc.text, **attrs)
            return call("axioms.validate", hs.validate, h, **attrs)

        def check(report):
            got = tuple((v.axiom, v.subject) for v in report.violations)
            return got == (doc.violations or ())

        return Task(pipeline, run, check, doc.error if doc.violations is None else None)

    if pipeline == "fmt":
        layer, fn, expected = "text.serialize", hs.serialize, doc.canonical
    else:
        layer, fn, expected = "model.structural_digest", hs.structural_digest, doc.sha

    def run(call):
        h = call("text.parse", hs.parse, doc.text, **attrs)
        return call(layer, fn, h, decls=doc.decls)

    return Task(pipeline, run, lambda out: out == expected, doc.error)


class Ingest:
    """Parse-bound pipelines over in-memory documents of 10^2-10^4 simplices."""

    name = "ingest"
    in_process = True
    tail_percentile = 75

    def __init__(self, seed: int, spec=INGEST_ROUND, defect_size=INGEST_DEFECT_SIZE):
        self.seed = seed
        self.spec = spec
        self.defect_size = defect_size
        self.docs: list = []

    def setup(self) -> None:
        self.docs = [(htgen.document(random.Random(f"{self.seed}:ingest:{i}"), n, style, hub),
                      pipeline)
                     for i, (n, style, pipeline, hub) in enumerate(self.spec)]
        rng = random.Random(f"{self.seed}:ingest:defect")
        style, defect = rng.choice(("canonical", "handwritten")), rng.choice(htgen.DEFECTS)
        self.docs.append((htgen.document(rng, self.defect_size, style, defect=defect),
                          rng.choice(PIPELINES)))

    def corpus(self) -> list[str]:
        return [doc.text for doc, _ in self.docs]

    def record(self) -> dict:
        docs = [doc for doc, _ in self.docs]
        decls = sum(d.decls for d in docs)
        return {
            "canonical_line_share": sum(d.canonical_lines for d in docs) / decls,
            "handwritten_doc_share": sum(d.style == "handwritten" for d in docs) / len(docs),
            "hub_doc_share": sum(d.wide for d in docs) / len(docs),
            "defect_doc_share": sum(d.defect is not None for d in docs) / len(docs),
        }

    def round(self, r: int):
        order = list(range(len(self.docs)))
        random.Random(f"{self.seed}:ingest:order:{r}").shuffle(order)
        for i in order:
            task = ingest_task(*self.docs[i])
            task.slot = i
            yield task

    def close(self) -> None:
        self.docs = []


# -- scoped_query -----------------------------------------------------------

SCOPED_SIZES = (10000, 10000, 10000)
SCOPED_ROUND = (("project",) * 12 + ("visible_set",) * 2 + ("view_intersect", "view_union")
                + ("scoped_prune",) * 2 + ("scoped_split",) * 2)
SCOPED_BUILDERS = {"project": "_project", "visible_set": "_visible_set",
                   "view_intersect": "_views", "view_union": "_views",
                   "scoped_prune": "_scoped", "scoped_split": "_scoped"}


@dataclass
class Backcloth:
    net: htgen.Net
    h: Any
    sha: str


class ScopedQuery:
    """Repeated scoped reads of a few long-lived, parsed backcloths."""

    name = "scoped_query"
    in_process = True
    tail_percentile = 90

    def __init__(self, seed: int, sizes=SCOPED_SIZES):
        self.seed = seed
        self.sizes = sizes
        self.clothes: list[Backcloth] = []

    def setup(self) -> None:
        self.clothes = []
        self._projections: dict = {}
        self.visible = self.backcloth = 0
        for i, n in enumerate(self.sizes):
            net = htgen.network(random.Random(f"{self.seed}:scoped_query:{i}"), n)
            text = htgen.canonical(net)
            self.clothes.append(Backcloth(net, hs.parse(text), htgen.sha256(text)))

    def corpus(self) -> list[str]:
        return [htgen.canonical(c.net) for c in self.clothes]

    def record(self) -> dict:
        return {
            "visible_ratio": self.visible / self.backcloth if self.backcloth else 0.0,
            "visible_simplices": self.visible,
            "backcloth_simplices": self.backcloth,
        }

    def projection(self, i: int, tag: str) -> htgen.Net:
        key = (i, tag)
        if key not in self._projections:
            self._projections[key] = oracle.project(self.clothes[i].net, tag)
        return self._projections[key]

    def round(self, r: int):
        slots = list(enumerate(SCOPED_ROUND))
        random.Random(f"{self.seed}:scoped_query:order:{r}").shuffle(slots)
        for j, kind in slots:
            rng = random.Random(f"{self.seed}:scoped_query:slot:{j}")
            build = getattr(self, SCOPED_BUILDERS[kind])
            task = build(kind, rng, j % len(self.clothes), zipf_tag(rng))
            task.slot = j
            yield task

    def _project(self, kind, rng, i, tag) -> Task:
        c = self.clothes[i]

        def run(call):
            return call("scope.project", hs.project, c.h, tag,
                        backcloth=len(c.net.sims), out=_visible)

        def check(view):
            expected = self.projection(i, tag)
            self.visible += len(expected.sims)
            self.backcloth += len(c.net.sims)
            return (view.boundary == tag and view.base_digest == c.sha
                    and oracle.plain(view.content) == expected)

        return Task(kind, run, check)

    def _visible_set(self, kind, rng, i, tag) -> Task:
        c = self.clothes[i]
        return Task(
            kind,
            lambda call: call("scope.visible_set", hs.visible_set, c.h, tag),
            lambda ids: ids == oracle.visible(c.net, tag),
        )

    def _views(self, kind, rng, i, tag) -> Task:
        c = self.clothes[i]
        other = zipf_tag(rng)
        fn, reference = getattr(hs, kind), getattr(oracle, kind)

        def run(call):
            v1, v2 = (call("scope.project", hs.project, c.h, t, backcloth=len(c.net.sims),
                           out=_visible) for t in (tag, other))
            return call("scope." + kind, fn, v1, v2)

        def check(view):
            expected = reference(self.projection(i, tag), self.projection(i, other))
            return view.base_digest == c.sha and oracle.plain(view.content) == expected

        return Task(kind, run, check)

    def _scoped(self, kind, rng, i, tag) -> Task:
        c = self.clothes[i]
        ids = [s[0] for s in self.projection(i, tag).sims]
        names = rng.sample(ids, min(len(ids), rng.randint(1, 3)))
        fn, reference = getattr(hs, kind), getattr(oracle, kind.removeprefix("scoped_"))
        return Task(
            kind,
            lambda call: call("scope." + kind, fn, c.h, names, tag),
            lambda view: oracle.plain(view.content) == reference(self.projection(i, tag), names),
        )

    def close(self) -> None:
        self.clothes = []
        self._projections = {}


# -- compose ----------------------------------------------------------------

# (shared core, private simplices per side, chains per round): operands of
# 10^3 and 10^4 simplices, most chains on the larger pair
COMPOSE_PAIRS = ((600, 400, 1), (6000, 4000, 3))
CHAINS = ("merge", "meet", "difference", "scoped", "prune_first", "split_first")


@dataclass
class Value:
    """A network in flight: the library value and its plain form."""

    h: Any
    net: htgen.Net


class Compose:
    """Operator chains over operand pairs; most results are fresh and short-lived."""

    name = "compose"
    in_process = True
    tail_percentile = 95

    def __init__(self, seed: int, pairs=COMPOSE_PAIRS):
        self.seed = seed
        self.pair_sizes = pairs
        self.pairs: list[tuple[Value, Value]] = []

    def setup(self) -> None:
        self.pairs = []
        self.known: dict[int, tuple] = {}
        self.expected: dict[tuple, htgen.Net] = {}
        for i, (core, own, _) in enumerate(self.pair_sizes):
            nets = htgen.pair(random.Random(f"{self.seed}:compose:{i}"), core, own)
            self.pairs.append(tuple(Value(hs.parse(htgen.canonical(n)), n) for n in nets))

    def _reference(self, slot, compute: Callable) -> htgen.Net:
        """``compute()``, kept by ``slot`` unless that is None."""
        if slot is None:
            return compute()
        if slot not in self.expected:
            self.expected[slot] = compute()
        return self.expected[slot]

    def corpus(self) -> list[str]:
        return [htgen.canonical(v.net) for p in self.pairs for v in p]

    def record(self) -> dict:
        return {"operand_simplices": [len(v.net.sims) for p in self.pairs for v in p]}

    def round(self, r: int):
        if not self.known:
            self.known = {id(s.participants): oracle.plain_parts(s.participants)
                          for p in self.pairs for v in p for s in v.h.simplices}
        chains = list(enumerate(
            (p, chain) for p, (*_, repeats) in zip(self.pairs, self.pair_sizes)
            for chain in CHAINS * repeats))
        random.Random(f"{self.seed}:compose:order:{r}").shuffle(chains)
        for c, ((a, b), chain) in chains:
            rng = random.Random(f"{self.seed}:compose:chain:{c}")
            for step, task in enumerate(getattr(self, "_" + chain)(rng, a, b)):
                task.slot = (c, step)
                yield task

    def _step(self, kind: str, layer: str, fn, args, n_in: int, expect: Callable,
              cached=False):
        """A task whose check keeps its output as a ``Value`` in ``task.value``.

        A ``cached`` step's inputs are set-up operands, so its reference is
        computed once per run and kept by slot; the references of steps on
        fresh results are not kept, so that they do not add to the heap.
        """
        task = Task(kind, None, None)
        task.run = lambda call: call(layer, fn, *args, sims_in=n_in, out=_sims_out)

        def check(out):
            h = getattr(out, "content", out)
            net = oracle.plain(h, self.known)
            if net != self._reference(task.slot if cached else None, expect):
                return False
            task.value = Value(h, net)
            return True

        task.check = check
        return task

    def _binary(self, op: str, a: Value, b: Value, cached=False) -> Task:
        return self._step(op, "ops." + op, getattr(hs, op), (a.h, b.h),
                          len(a.net.sims) + len(b.net.sims),
                          lambda: oracle.BINARY[op](a.net, b.net), cached)

    def _prune(self, rng, x: Value) -> Task:
        ids = [s[0] for s in x.net.sims] + list(x.net.vertices[:3])
        names = rng.sample(ids, min(len(ids), rng.randint(1, 3)))
        return self._step("prune", "ops.prune", hs.prune, (x.h, names), len(x.net.sims),
                          lambda: oracle.prune(x.net, names))

    def _split(self, rng, x: Value) -> Task:
        ids = [s[0] for s in x.net.sims]
        seeds = rng.sample(ids, min(len(ids), rng.randint(1, 3)))
        return self._step("split", "ops.split", hs.split, (x.h, seeds), len(x.net.sims),
                          lambda: oracle.split(x.net, seeds))

    def _merge(self, rng, a, b):
        t = self._binary("merge", a, b, cached=True)
        yield t
        if t.value:
            yield self._split(rng, t.value)

    def _meet(self, rng, a, b):
        t = self._binary("meet", a, b, cached=True)
        yield t
        if t.value:
            yield self._prune(rng, t.value)

    def _difference(self, rng, a, b):
        t = self._binary("difference", a, b, cached=True)
        yield t
        if t.value:
            t = self._prune(rng, t.value)
            yield t
            if t.value:
                yield self._split(rng, t.value)

    def _scoped(self, rng, a, b):
        op, tag = rng.choice(tuple(oracle.BINARY)), zipf_tag(rng)
        t = self._step(
            "scoped_apply", "scope.scoped_apply", hs.scoped_apply, (op, a.h, b.h, tag),
            len(a.net.sims) + len(b.net.sims),
            lambda: oracle.BINARY[op](oracle.project(a.net, tag), oracle.project(b.net, tag)),
            cached=True,
        )
        yield t
        if t.value:
            yield self._prune(rng, t.value)

    def _prune_first(self, rng, a, b):
        t = self._prune(rng, a)
        yield t
        if t.value:
            yield self._binary("difference", t.value, b)

    def _split_first(self, rng, a, b):
        t = self._split(rng, b)
        yield t
        if t.value:
            yield self._binary("difference", t.value, a)

    def close(self) -> None:
        self.pairs = []
        self.known = {}
        self.expected = {}


# -- cli --------------------------------------------------------------------

ENTRY = "import sys; from hyperscope.cli import main; sys.exit(main())"
FIXTURES = ROOT / "src" / "hyperscope" / "corpus"
CLI_TAGS = htgen.TAGS[:10]
PROBES = 10


class Cli:
    """Sequential ``hyperscope`` subprocesses on fixtures and generated files."""

    name = "cli"
    in_process = False
    tail_percentile = 75

    def __init__(self, seed: int, sizes=(100, 300, 1000), hand=1000, pair=(600, 400),
                 defect=200):
        self.seed = seed
        self.sizes, self.hand, self.pair_sizes, self.defect = sizes, hand, pair, defect
        self.dir: Path | None = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def setup(self) -> None:
        self.close()
        WORK_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK_DIR))
        rng = random.Random(f"{self.seed}:cli")
        self.nets: dict[str, htgen.Net] = {}
        self.paths: dict[str, str] = {}
        for name in ("emergency", "bicycle", "ecology"):
            path = FIXTURES / f"{name}.ht"
            self.nets[name] = htgen.read_canonical(path.read_text(encoding="utf-8"))
            self.paths[name] = str(path)
        for n in self.sizes:
            self._write(f"gen{n}", htgen.network(rng, n, tags=CLI_TAGS))
        a, b = htgen.pair(rng, *self.pair_sizes, tags=CLI_TAGS)
        self._write("left", a)
        self._write("right", b)
        self.hand_doc = htgen.document(rng, self.hand, "handwritten")
        self.defect_doc = htgen.document(rng, self.defect, "canonical", defect="duplicate")
        self._write("hand", None, self.hand_doc.text)
        self._write("defect", None, self.defect_doc.text)

    def _write(self, name: str, net, text: str | None = None) -> None:
        path = self.dir / f"{name}.ht"
        path.write_text(htgen.canonical(net) if text is None else text, encoding="utf-8")
        self.paths[name] = str(path)
        if net is not None:
            self.nets[name] = net

    def corpus(self) -> list[str]:
        return [Path(p).read_text(encoding="utf-8") for _, p in sorted(self.paths.items())]

    def record(self) -> dict:
        return {"generated_simplices": {k: len(v.sims) for k, v in self.nets.items()}}

    def commands(self) -> list:
        """One round: (command, argv, expected (exit code, stdout) thunk)."""
        f, nets, canon = self.paths, self.nets, htgen.canonical
        big, mid, small = (f"gen{n}" for n in sorted(self.sizes, reverse=True))
        t1, t2, t3 = random.Random(f"{self.seed}:cli:tags").sample(CLI_TAGS, 3)

        def project(name, tag):
            return 0, canon(oracle.project(nets[name], tag))

        def intersect(name, a, b):
            views = (oracle.project(nets[name], t) for t in (a, b))
            return 0, canon(oracle.view_intersect(*views))

        def digest(name):
            return 0, htgen.sha256(canon(nets[name])) + "\n"

        return [
            ("project", ["project", f["emergency"], "--boundary", "b_fire"],
             lambda: project("emergency", "b_fire")),
            ("project", ["project", f["bicycle"], "--boundary", "b_cyclist"],
             lambda: project("bicycle", "b_cyclist")),
            ("fmt", ["fmt", f["ecology"]], lambda: (0, canon(nets["ecology"]))),
            ("digest", ["digest", f["bicycle"]], lambda: digest("bicycle")),
            ("validate", ["validate", f["emergency"]], lambda: (0, "")),
            ("views", ["views", "intersect", f["emergency"], "--boundaries", "b_fire,b_police"],
             lambda: intersect("emergency", "b_fire", "b_police")),
            ("project", ["project", f[big], "--boundary", t1], lambda: project(big, t1)),
            ("project", ["project", f[mid], "--boundary", t2], lambda: project(mid, t2)),
            ("fmt", ["fmt", f["hand"]], lambda: (0, self.hand_doc.canonical)),
            ("fmt", ["fmt", f[small]], lambda: (0, canon(nets[small]))),
            ("digest", ["digest", f[big]], lambda: digest(big)),
            ("validate", ["validate", f[big]], lambda: (0, "")),
            ("validate", ["validate", f[mid]], lambda: (0, "")),
            ("validate", ["validate", f["defect"]], lambda: (1, self.defect_doc.violations)),
            ("op", ["op", "merge", f["left"], f["right"]],
             lambda: (0, canon(oracle.merge(nets["left"], nets["right"])))),
            ("views", ["views", "intersect", f[big], "--boundaries", f"{t2},{t3}"],
             lambda: intersect(big, t2, t3)),
        ]

    def _invoke(self, *argv: str) -> tuple[int, str]:
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=60)
        return done.returncode, done.stdout

    def round(self, r: int):
        commands = list(enumerate(self.commands()))
        random.Random(f"{self.seed}:cli:order:{r}").shuffle(commands)
        for slot, (command, argv, expect) in commands:
            yield Task(command,
                       lambda call, argv=argv, command=command:
                           call("cli." + command, self._invoke, "-c", ENTRY, *argv),
                       lambda got, expect=expect: _cli_matches(got, expect()),
                       slot=slot)

    def probes(self, call) -> None:
        """Interpreter start-up alone, and with the CLI module imported."""
        for _ in range(PROBES):
            call("cli.probe.interpreter", self._invoke, "-c", "pass")
            call("cli.probe.import", self._invoke, "-c", "import hyperscope.cli")

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


def _cli_matches(got: tuple[int, str], expected: tuple[int, Any]) -> bool:
    """Exit code and stdout; a validation report is compared by axiom and subject."""
    code, stdout = got
    if code == 1 and expected[0] == 1:
        return tuple(tuple(line.split("\t")[:2]) for line in stdout.splitlines()) == expected[1]
    return got == expected


WORKLOADS = {w.name: w for w in (Ingest, ScopedQuery, Compose, Cli)}
