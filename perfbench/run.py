"""Run one benchmark workload against the library in ``src/`` and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

Each run is a closed loop: one caller, one process, no threads; the next
task starts when the previous one has returned and been checked. With
``--trace 0`` the run sets the workload up several times (``setup_s`` is
the median), then runs whole rounds of tasks until their timed work reaches
``--seconds``, and reports the end-to-end metrics. With ``--trace 1`` it sets
up once, runs half the time untraced and half traced, writes the spans to
``.perfbench/trace-<workload>-<seed>.jsonl`` and reports the per-layer
metrics. ``all`` runs every workload in its own process and prints a table.

Outputs are checked outside the timed regions; a task fails when its output
differs from the reference, it raises an unexpected exception, or it raises
an expected error of the wrong class or at the wrong span. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics`` named in ``BENCHMARK.json``, each with its unit.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import Tracer, direct

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3  # at least, and until set-up has taken SETUP_MIN_S in all
SETUP_MIN_S = 1.0
LADDER = (99.9, 99, 95, 90, 75, 50)
# Fastest time of one ``reference()`` pass on a quiet 2.1 GHz Xeon vCPU
# with CPython 3.11.7, the host these numbers were calibrated on.
REFERENCE_S = 0.0016
SPEED_EVERY_S = 0.05
SPEED_WINDOW_S = 1.0


def reference() -> float:
    """Time one pass of a fixed pure-Python loop that never calls the library.

    The collector is off for the pass: with it on, the pass would also time
    collections whose cost grows with the workload's heap, not host speed.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        table = {}
        for i in range(5000):
            key = f"k{i}"
            table[key] = (i, key.upper())
        sorted(table.items(), key=lambda kv: kv[1][1])
        return perf_counter() - t0
    finally:
        gc.enable()


class Speed:
    """How fast the host runs over time, from the reference loop.

    A shared host slows every process on it by 1.2-2x for seconds at a
    time. ``sample`` times the reference loop between tasks, at most every
    ``SPEED_EVERY_S``; ``factor`` scales a timing taken between ``start``
    and ``end`` to the calibration host's quiet speed, from the fastest
    pass within ``SPEED_WINDOW_S`` of that interval.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.passes: list[float] = []

    def sample(self) -> None:
        now = perf_counter()
        if not self.times or now - self.times[-1] >= SPEED_EVERY_S:
            self.passes.append(reference())
            self.times.append(now)

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + SPEED_WINDOW_S)
        return REFERENCE_S / min(self.passes[lo:hi] or self.passes)


@dataclass
class Phase:
    """Outcome of one closed-loop stretch of whole rounds."""

    latencies: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    slots: list = field(default_factory=list)
    failed: int = 0
    round_tasks: list = field(default_factory=list)
    check_s: float = 0.0

    @property
    def rounds(self) -> int:
        return len(self.round_tasks)

    def factors(self, speed: Speed) -> list[float]:
        """``Speed.factor`` for each task's timed interval."""
        return [speed.factor(t0, t0 + lat) for t0, lat in zip(self.starts, self.latencies)]


def _raised_as_expected(exc: Exception, error) -> bool:
    span = getattr(exc, "span", None)
    return (error is not None and span is not None
            and (type(exc).__name__, span.line, span.column) == tuple(error))


def run_phase(workload, seconds: float, tracer=None, speed: Speed | None = None) -> Phase:
    """Whole rounds of tasks until their timed work reaches ``seconds``."""
    call = direct if tracer is None else tracer.call
    phase = Phase()
    while True:
        for task in workload.round(phase.rounds):
            run = task.run
            if tracer is not None:
                tracer.task += 1
                def run(c, task=task):
                    return tracer.call("task." + task.kind, task.run, c)
            t0 = perf_counter()
            phase.starts.append(t0)
            try:
                out = run(call)
            except Exception as exc:
                phase.latencies.append(perf_counter() - t0)
                ok = _raised_as_expected(exc, task.error)
                if not ok:
                    _report(task, exc)
            else:
                phase.latencies.append(perf_counter() - t0)
                c0 = perf_counter()
                try:
                    ok = task.error is None and bool(task.check(out))
                except Exception as exc:  # a malformed output is a failed task
                    _report(task, exc)
                    ok = False
                phase.check_s += perf_counter() - c0
                if not ok:
                    wanted = "a different output" if task.error is None else task.error
                    print(f"task {task.kind} returned, expected {wanted}", file=sys.stderr)
            phase.slots.append(task.slot)
            phase.failed += not ok
            if speed is not None:
                speed.sample()
        phase.round_tasks.append(len(phase.latencies) - sum(phase.round_tasks))
        if sum(phase.latencies) >= seconds:
            return phase


def _report(task, exc: Exception) -> None:
    print(f"task {task.kind} raised unexpectedly (expected {task.error}):", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def percentile(values: list, p: float) -> float:
    """Linear interpolation between closest ranks of sorted ``values``."""
    values = sorted(values)
    at = (len(values) - 1) * p / 100
    lo = int(at)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (at - lo)


def tail_percentile(preferred: float, n: int) -> float:
    """``preferred`` if ``n`` samples leave ten beyond it, else the highest such."""
    def enough(p):
        return n * (100 - p) / 100 >= 10
    return preferred if enough(preferred) else next((p for p in LADDER if enough(p)), 50)


def peak_rss_mib(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def timings(phase: Phase, factors: list, preferred_tail: float) -> dict:
    """Throughput and latency percentiles from each slot's best scaled latency.

    A slot repeats the same inputs in every round, so its rounds differ only
    in their order and in what the host and the process's own state
    (collections, allocator) add to the same work.
    """
    best = {}
    for slot, latency, factor in zip(phase.slots, phase.latencies, factors):
        scaled = latency * factor
        best[slot] = min(scaled, best.get(slot, scaled))
    typical = [best[slot] for slot in phase.slots]
    tail = tail_percentile(preferred_tail, len(typical))
    return {
        "tasks_per_s": len(best) / sum(best.values()),
        "latency_p50_ms": percentile(typical, 50) * 1e3,
        "latency_tail_ms": percentile(typical, tail) * 1e3,
    }


def end_to_end(workload, seconds: float) -> tuple[dict, Phase, dict]:
    """End-to-end metrics, every timing scaled to the quiet host's speed.

    A set-up is scaled by the median of the reference passes right before
    and after it; tasks by ``Speed.factor``.
    """
    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
        workload.close()
        gc.collect()
        passes = [reference() for _ in range(5)]
        t0 = perf_counter()
        workload.setup()
        t1 = perf_counter()
        passes += [reference() for _ in range(5)]
        setups.append((t1 - t0) * REFERENCE_S / statistics.median(passes))
    speed = Speed()
    phase = run_phase(workload, seconds, speed=speed)
    # A request's latency is its slot's best across rounds, scaled to quiet
    # host speed: this keeps the task mix but drops the slowdowns a shared
    # host imposes from outside the process.
    factors = phase.factors(speed)
    metrics = {
        "setup_s": statistics.median(setups),
        **timings(phase, factors, workload.tail_percentile),
        "peak_rss_mib": peak_rss_mib(workload.in_process),
    }
    notes = {"setup_runs_s": setups, "latency_samples": len(phase.latencies),
             "tail_percentile": tail_percentile(workload.tail_percentile, len(phase.latencies)),
             "rounds": phase.rounds, "check_s": phase.check_s, "speed_passes": len(speed.passes),
             "unscaled": timings(phase, [1.0] * len(factors), workload.tail_percentile)}
    return metrics, phase, notes


def layer_metrics(tracer, untraced: Phase, traced: Phase, overhead_ratio: float) -> dict:
    """Per-layer metrics from the spans of the traced phase, per round.

    Busy time is self time; a rate is declarations over the self time of
    the spans that returned. ``wide`` (hub) documents are left out of the
    ``parse`` and ``validate`` rates and have ``axioms.validate.wide.busy_s``.
    """
    rows = defaultdict(list)
    for span, own in zip(tracer.spans, tracer.self_times()):
        rows[span.name].append((span.attrs, own))
    per_round = 1 / traced.rounds

    def busy(name, keep=lambda a: True):
        return sum(own for a, own in rows[name] if keep(a)) * per_round

    def rate(name, keep=lambda a: True):
        done = [(a["decls"], own) for a, own in rows[name] if "error" not in a and keep(a)]
        spent = sum(own for _, own in done)
        return sum(d for d, _ in done) / spent if spent else 0.0

    def total(names, key):
        return sum(a.get(key, 0) for name in names for a, _ in rows[name])

    def median_s(prefix):
        times = [own for name, r in rows.items() if name.startswith(prefix) for _, own in r]
        return statistics.median(times) if times else 0.0

    narrow = lambda a: not a["wide"]  # noqa: E731
    ops = [f"ops.{op}" for op in ("merge", "meet", "difference", "prune", "split")]
    m = {
        "text.parse.calls": len(rows["text.parse"]) * per_round,
        "text.parse.busy_s": busy("text.parse"),
        "text.parse.canonical.decls_per_s":
            rate("text.parse", lambda a: a["style"] == "canonical" and narrow(a)),
        "text.parse.handwritten.decls_per_s":
            rate("text.parse", lambda a: a["style"] == "handwritten" and narrow(a)),
        "text.parse_unchecked.busy_s": busy("text.parse_unchecked"),
        "text.parse_unchecked.decls_per_s": rate("text.parse_unchecked"),
        "text.serialize.busy_s": busy("text.serialize"),
        "text.serialize.decls_per_s": rate("text.serialize"),
        "text.rejected": sum("error" in a for name in ("text.parse", "text.parse_unchecked")
                             for a, _ in rows[name]) * per_round,
        "axioms.validate.busy_s": busy("axioms.validate"),
        "axioms.validate.decls_per_s": rate("axioms.validate", narrow),
        "axioms.validate.wide.busy_s": busy("axioms.validate", lambda a: a["wide"]),
        "model.structural_digest.busy_s": busy("model.structural_digest"),
        "model.structural_digest.decls_per_s": rate("model.structural_digest"),
        "scope.project.calls": len(rows["scope.project"]) * per_round,
        "scope.project.busy_s": busy("scope.project"),
        "scope.project.visible_simplices": total(["scope.project"], "visible") * per_round,
        "scope.project.backcloth_simplices": total(["scope.project"], "backcloth") * per_round,
    }
    backcloth = m["scope.project.backcloth_simplices"]
    m["scope.project.visible_ratio"] = (
        m["scope.project.visible_simplices"] / backcloth if backcloth else 0.0)
    for name in ("visible_set", "view_intersect", "view_union", "scoped_prune",
                 "scoped_split", "scoped_apply"):
        m[f"scope.{name}.busy_s"] = busy(f"scope.{name}")
    for name in ops:
        m[f"{name}.busy_s"] = busy(name)
    m["ops.in_simplices"] = total(ops, "sims_in") * per_round
    m["ops.out_simplices"] = total(ops, "sims_out") * per_round
    sims_in = m["ops.in_simplices"]
    m["ops.out_ratio"] = m["ops.out_simplices"] / sims_in if sims_in else 0.0

    interpreter = median_s("cli.probe.interpreter")
    imported = median_s("cli.probe.import")
    commands = [own for name, r in rows.items()
                if name.startswith("cli.") and not name.startswith("cli.probe.") for _, own in r]
    m["cli.interpreter_s"] = interpreter
    m["cli.import_s"] = imported - interpreter if imported else 0.0
    m["cli.command_s"] = statistics.median(commands) - imported if commands else 0.0
    m["bench.check_s"] = (untraced.check_s + traced.check_s) / (untraced.rounds + traced.rounds)
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def traced(workload, seconds: float, seed: int) -> tuple[dict, Phase, dict]:
    """Per-layer metrics; both halves start at round 0, so they run the same slots."""
    workload.setup()
    speed = Speed()
    untraced = run_phase(workload, seconds / 2, speed=speed)
    tracer = Tracer()
    phase = run_phase(workload, seconds / 2, tracer, speed)
    overhead = (timings(untraced, untraced.factors(speed), 50)["tasks_per_s"]
                / timings(phase, phase.factors(speed), 50)["tasks_per_s"])
    if hasattr(workload, "probes"):
        tracer.task += 1
        workload.probes(tracer.call)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    trace_file = ROOT / ".perfbench" / f"trace-{workload.name}-{seed}.jsonl"
    tracer.write(trace_file)
    both = Phase(latencies=untraced.latencies + phase.latencies,
                 failed=untraced.failed + phase.failed,
                 round_tasks=untraced.round_tasks + phase.round_tasks)
    notes = {"trace_file": str(trace_file.relative_to(ROOT)), "spans": len(tracer.spans),
             "rounds": [untraced.rounds, phase.rounds]}
    return layer_metrics(tracer, untraced, phase, overhead), both, notes


def declared(kind: str):
    """``BENCHMARK.json``'s ``kind``; for a list of metrics, name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    return {m["name"]: m["unit"] for m in spec} if isinstance(spec, list) else spec


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    try:
        if trace:
            metrics, phase, notes = traced(workload, seconds, seed)
        else:
            metrics, phase, notes = end_to_end(workload, seconds)
        corpus = hashlib.sha256()
        for text in workload.corpus():
            corpus.update(hashlib.sha256(text.encode("utf-8")).digest())
        record = {"workload": name, "seed": seed, "corpus_sha256": corpus.hexdigest(),
                  **workload.record(), **notes}
    finally:
        workload.close()

    units = declared("per_layer" if trace else "end_to_end")
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")
    attempted = len(phase.latencies)
    record["error_rate"] = phase.failed / attempted
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": phase.failed == 0,
        "attempted": attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a process of its own, then one table of metrics."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rate = result["failed"] / result["attempted"]
        print(f"{name}: {result['attempted']} tasks, error_rate {rate:g}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:40} {v['value']:14.6g} {v['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(declared("run_seconds")))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hyperscope" / "__init__.py").is_file():
        print(f"error: no hyperscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     + ", ".join(workloads.WORKLOADS) + " or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
