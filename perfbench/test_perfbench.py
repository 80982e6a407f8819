"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hyperscope  # noqa: E402

import htgen  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def tiny(name: str, seed: int = 1):
    return {
        "ingest": lambda: workloads.Ingest(seed, spec=(
            (40, "canonical", "fmt", 0),
            (40, "canonical", "validate", 0),
            (40, "handwritten", "digest", 0),
            (40, "handwritten", "fmt", 0),
            (60, "canonical", "validate", 30),
        ), defect_size=30),
        "scoped_query": lambda: workloads.ScopedQuery(seed, sizes=(200, 200)),
        "compose": lambda: workloads.Compose(seed, pairs=((30, 20, 1), (60, 40, 1))),
        "cli": lambda: workloads.Cli(seed, sizes=(20, 40, 60), hand=40, pair=(20, 10),
                                     defect=30),
    }[name]()


@pytest.fixture(params=list(workloads.WORKLOADS))
def workload(request):
    w = tiny(request.param)
    w.setup()
    yield w
    w.close()


def test_smoke_run_has_no_failures(workload):
    phase = bench.run_phase(workload, 0)
    assert phase.latencies and phase.failed == 0


def test_traced_run_emits_every_declared_metric(workload):
    metrics, phase, notes = bench.traced(workload, 0, seed=0)
    assert phase.failed == 0 and notes["spans"]
    assert set(metrics) == set(bench.declared("per_layer"))
    spans = [json.loads(line) for line in (bench.ROOT / notes["trace_file"]).open()]
    assert len(spans) == notes["spans"]
    assert all(s["end"] >= s["start"] and s["parent"] < s["id"] for s in spans)


def test_end_to_end_emits_every_declared_metric():
    w = tiny("compose")
    try:
        metrics, phase, _ = bench.end_to_end(w, 0)
    finally:
        w.close()
    assert set(metrics) == set(bench.declared("end_to_end"))
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("style", ["canonical", "handwritten"])
@pytest.mark.parametrize("defect", htgen.DEFECTS)
def test_injected_defects_raise_the_expected_class_and_span(defect, style):
    for seed in range(10):
        doc = htgen.document(random.Random(seed), 80, style, defect=defect)
        with pytest.raises(hyperscope.HypernetworkError) as info:
            hyperscope.parse(doc.text)
        got = (type(info.value).__name__, info.value.span.line, info.value.span.column)
        assert got == doc.error


def test_corrupted_output_is_a_failure(monkeypatch):
    real = hyperscope.serialize
    monkeypatch.setattr(hyperscope, "serialize", lambda h: real(h) + "# extra\n")
    w = tiny("ingest")
    w.setup()
    assert bench.run_phase(w, 0).failed > 0


def test_corrupted_output_is_a_failure_in_a_traced_run(monkeypatch):
    real = hyperscope.serialize
    monkeypatch.setattr(hyperscope, "serialize", lambda h: real(h) + "# extra\n")
    w = tiny("ingest")
    try:
        _, phase, _ = bench.traced(w, 0, seed=0)
    finally:
        w.close()
    assert phase.failed > 0 and len(phase.latencies) == sum(phase.round_tasks)


def test_dropped_visible_id_is_a_failure(monkeypatch):
    real = hyperscope.visible_set
    monkeypatch.setattr(hyperscope, "visible_set", lambda h, b: set(sorted(real(h, b))[1:]))
    w = tiny("scoped_query")
    w.setup()
    assert bench.run_phase(w, 0).failed > 0


def test_error_at_the_wrong_span_is_a_failure(monkeypatch):
    real = hyperscope.parse

    def shifted(text):
        try:
            return real(text)
        except hyperscope.HypernetworkError as exc:
            exc.span = type(exc.span)(exc.span.line + 1, exc.span.column)
            raise

    monkeypatch.setattr(hyperscope, "parse", shifted)
    w = tiny("ingest")
    w.setup()
    assert bench.run_phase(w, 0).failed == 1


def test_same_seed_gives_the_same_corpus():
    def corpus(seed):
        w = tiny("scoped_query", seed)
        w.setup()
        return w.corpus()

    assert corpus(5) == corpus(5)
    assert corpus(5) != corpus(6)


def test_generated_text_parses_to_the_generated_network():
    for style in ("canonical", "handwritten"):
        doc = htgen.document(random.Random(3), 300, style, hub_width=100)
        h = hyperscope.parse(doc.text)
        assert hyperscope.serialize(h) == doc.canonical
        assert hyperscope.structural_digest(h) == doc.sha


@pytest.fixture()
def bare_dir():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    yield path
    shutil.rmtree(path)


def test_exits_nonzero_without_the_library(bare_dir):
    shutil.copytree(ROOT / "perfbench", bare_dir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare_dir / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare_dir, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
