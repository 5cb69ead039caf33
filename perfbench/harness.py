"""Workloads, jobs, output checks and measurement passes.

A job is what one CLI call does after its import: ``roughfca run`` is
``run_pipeline`` plus ``emit_reports`` into a fresh directory, and the
``search`` workload's job is ``roughfca search-cut`` followed by
``roughfca run`` at the cut it recovers.  Jobs run in-process against the
library under ``src/``; the benchmark never edits the library.

Passes, in order: checks (bundled case study and the default-seed report
tree), the timed pass (untraced jobs with fresh-interpreter set-ups in
between, or with ``trace`` untraced and traced jobs in turn) and, untraced
only, a tracemalloc pass for peak memory.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import roughfca.pipeline as P
from roughfca.approx import partition_from_json

import gen
from spans import LAYERS, Tracer, traced

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
# Relative to the checkout root, the working directory of every run, so that
# the paths echoed into report.json do not depend on where the checkout is.
WORK = Path(HERE.name) / ".work"
TRACES = Path(HERE.name) / ".traces"
BUNDLED_CONFIG = Path("data") / "institutions_config.json"

DEFAULT_SEED = 1
MIN_SAMPLES = 11  # the tail needs ten samples beyond it
MAX_MEASURE_S = 120.0
SETUP_REPEATS = 16

# Dense-rank clusters.  Every range must hold an object; the fixed shapes
# rank to at least 6 (tiered) and 3 (independent) distinct totals.  The
# independent table's last cluster holds most objects, as FCA's worst case.
RANKS_TIERED = ((1, 2), (3, 5), (6, 1000))
RANKS_INDEPENDENT = ((1, 1), (2, 2), (3, 1000))


@dataclass(frozen=True)
class Workload:
    profile: gen.Profile
    search: bool


WORKLOADS = {
    "tiered": Workload(gen.Profile(80, 6, True, RANKS_TIERED), search=False),
    "independent": Workload(gen.Profile(30, 8, False, RANKS_INDEPENDENT), search=False),
    "search": Workload(gen.Profile(30, 6, True, RANKS_TIERED), search=True),
}
SMOKE_WORKLOADS = {
    "tiered": Workload(gen.Profile(16, 6, True, RANKS_TIERED), search=False),
    "independent": Workload(gen.Profile(10, 8, False, RANKS_INDEPENDENT), search=False),
    "search": Workload(gen.Profile(10, 6, True, RANKS_TIERED), search=True),
}

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import roughfca.cli
from roughfca.pipeline import PipelineConfig
PipelineConfig.from_file(sys.argv[1])
print(time.perf_counter() - start)
"""


# ---------------------------------------------------------------------------
# jobs


@dataclass
class JobResult:
    report: P.PipelineReport
    search: P.CutSearchResult | None
    analyze_s: float  # library calls alone: the search and run_pipeline


def search_payload(result: P.CutSearchResult) -> str:
    """The document ``roughfca search-cut`` prints."""
    payload = {
        "step": result.step,
        "feasible_points": [list(p) for p in result.points],
        "hull": list(result.hull) if result.hull else None,
        "per_attribute": {name: (list(h) if h else None)
                          for name, h in sorted(result.per_attribute.items())},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run_job(workload: Workload, inputs: gen.Inputs, config: P.PipelineConfig,
            out: Path) -> JobResult:
    """One batch job.  Library calls go through module attributes so that a
    traced pass sees them."""
    analyze = 0.0
    found = None
    if workload.search:
        table = P.load_table(config.data_path.read_text(encoding="utf-8"), config.attributes)
        docs = json.loads(inputs.targets.read_text(encoding="utf-8"))
        targets = dict(partition_from_json(doc, table.objects) for doc in docs)
        start = time.perf_counter()
        found = P.search_alpha_beta(table, targets, step=gen.SEARCH_STEP)
        analyze += time.perf_counter() - start
    start = time.perf_counter()
    report = P.run_pipeline(config)
    analyze += time.perf_counter() - start
    P.emit_reports(report, out)
    if found is not None:
        (out / "search_cut.json").write_text(search_payload(found), encoding="utf-8")
    return JobResult(report, found, analyze)


# ---------------------------------------------------------------------------
# output checks


def file_digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def tree_digest(digests: dict[str, str]) -> str:
    text = "".join(f"{name} {sha}\n" for name, sha in sorted(digests.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def manifest_problems(out: Path, digests: dict[str, str]) -> list[str]:
    """manifest.json must list every emitted file with the digest of its bytes."""
    entries = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"]
    listed = {e["path"]: e["sha256"] for e in entries}
    emitted = {name: sha for name, sha in digests.items()
               if name not in ("manifest.json", "search_cut.json")}
    return [] if listed == emitted else ["manifest.json disagrees with the emitted files"]


def job_problems(inputs: gen.Inputs, result: JobResult, out: Path,
                 digests: dict[str, str]) -> list[str]:
    """Checks every job's output must pass, whatever the seed."""
    problems = manifest_problems(out, digests)
    got = {name: part.as_sets() for name, part in result.report.partitions.items()}
    if got != inputs.blocks:
        problems.append("partitions differ from the reference closure of the cut graph")
    if result.search is not None and not any(
            math.isclose(a, gen.ALPHA) and math.isclose(b, gen.BETA)
            for a, b in result.search.points):
        problems.append(f"search result misses ({gen.ALPHA}, {gen.BETA})")
    return problems


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def bundled_tree() -> tuple[dict[str, str], dict[str, list[str]]]:
    """Emit the bundled case study; return its file digests and chief sets."""
    out = WORK / "bundled"
    report = P.run_pipeline(P.PipelineConfig.from_file(BUNDLED_CONFIG))
    P.emit_reports(report, out)
    digests = file_digests(out)
    chief = {str(a.cluster.cluster_id): list(a.chief[0][1]) for a in report.analyses}
    shutil.rmtree(out)
    return digests, chief


def check_bundled(expected: dict) -> list[str]:
    """The bundled config reproduces the published chief attributes and the
    seed commit's report tree byte for byte."""
    digests, chief = bundled_tree()
    problems = []
    if chief != expected["bundled"]["chief"]:
        problems.append(f"bundled chief attributes {chief} != {expected['bundled']['chief']}")
    for name in sorted(set(digests) | set(expected["bundled"]["files"])):
        if digests.get(name) != expected["bundled"]["files"].get(name):
            problems.append(f"bundled report file {name} differs from the recorded tree")
    return problems


def default_seed_tree(workload: Workload) -> tuple[str, list[str]]:
    """Run one job on the default-seed inputs; return the tree digest and
    the problems of its output checks."""
    directory = WORK / "default"
    inputs = gen.write_inputs(workload.profile, DEFAULT_SEED, directory)
    config = P.PipelineConfig.from_file(inputs.config)
    out = directory / "out"
    result = run_job(workload, inputs, config, out)
    digests = file_digests(out)
    problems = job_problems(inputs, result, out, digests)
    shutil.rmtree(directory)
    return tree_digest(digests), problems


def check_default_seed(key: str, name: str, workload: Workload, expected: dict) -> list[str]:
    digest, problems = default_seed_tree(workload)
    recorded = expected[key][name]
    if digest != recorded:
        problems.append(f"{name} report tree at seed {DEFAULT_SEED} is {digest}, "
                        f"recorded {recorded}")
    return problems


def guarded(check, *args) -> list[str]:
    """Run a check; an exception is one more failed output."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"{check.__name__} raised {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# measurement


def setup_time(config: Path) -> float:
    """Import of ``roughfca.cli`` plus ``PipelineConfig.from_file`` in a
    fresh interpreter, timed inside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the eleventh largest sample."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


@dataclass
class Run:
    """Everything one invocation measured."""

    name: str
    workload: Workload
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)  # untraced jobs
    cpu: list[float] = field(default_factory=list)
    analyze: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    traced_wall: list[float] = field(default_factory=list)
    layer_self: list[dict[str, float]] = field(default_factory=list)
    emit_inclusive: list[float] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)  # of the last traced job
    peak_bytes: int = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def grid_tests(step: float, attributes: int) -> int:
    """(grid point, attribute) tests ``search_alpha_beta`` makes: the same
    admissible-set walk as the library."""
    levels = [i * step for i in range(round(1.0 / step) + 1)]
    points = sum(1 for a in levels for b in levels if a + b <= 1.0 + 1e-12)
    return points * attributes


def result_counts(result: JobResult, out_bytes: int, tracer: Tracer) -> dict[str, float]:
    """Per-layer work counts of one traced job, read from its outputs and
    from the counters the spans keep."""
    report = result.report
    contexts = [a.context for a in report.analyses]
    objects = sum(len(c.objects) for c in contexts)
    distinct = sum(len(set(c.rows)) for c in contexts)
    tests = grid_tests(gen.SEARCH_STEP, len(report.partitions)) if result.search else 0
    instances = tracer.counts.get("unionfind.instances", 0)
    return {
        "proximity.violations": sum(len(v) for v in report.violations.values()),
        "proximity.matrix_bytes": sum(r.mu.nbytes + r.nu.nbytes
                                      for r in report.relations.values()),
        "approx.edges": tracer.counts.get("approx.edges", 0),
        "approx.blocks": sum(len(p.blocks) for p in report.partitions.values()),
        "unionfind.instances": instances,
        "pipeline.search_grid_tests": tests,
        "pipeline.search_memo_hit_ratio": 1.0 - instances / tests if tests else 0.0,
        "pipeline.search_feasible_points": len(result.search.points) if result.search else 0,
        "pipeline.emit_bytes": out_bytes,
        "ordering.dropped": len(report.ordered.dropped),
        "ordering.ranks": max(row.rank for row in report.ranks.rows),
        "ordering.clusters": len(report.clusters),
        "fca.objects": objects,
        "fca.attributes": sum(len(c.attributes) for c in contexts),
        "fca.distinct_rows": distinct,
        "fca.distinct_row_ratio": distinct / objects,
        "fca.concepts": sum(len(a.concepts) for a in report.analyses),
        "fca.cover_edges": sum(len(a.cover) for a in report.analyses),
        "fca.rules": sum(len(a.basis) for a in report.analyses),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> Run:
    """One benchmark invocation: generate, check, time; see the module doc."""
    workload = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    run = Run(name, workload)
    expected = load_expected()
    shutil.rmtree(WORK, ignore_errors=True)
    inputs = gen.write_inputs(workload.profile, seed, WORK / "inputs")
    run.record(guarded(check_bundled, expected))
    run.record(guarded(check_default_seed, "smoke" if smoke else "workloads", name, workload,
                       expected))

    config = P.PipelineConfig.from_file(inputs.config)
    tracer = Tracer()
    first_digest: dict[str, str] = {}  # every op on one input must emit the same tree

    def op(index: int, traced_op: bool) -> None:
        out = WORK / "out" / str(index)
        if cpus:
            try:
                os.sched_setaffinity(0, {cpus[index // 2 % len(cpus)]})
            except OSError:  # pinning refused: stay where the scheduler puts us
                cpus.clear()
        with traced(tracer) if traced_op else nullcontext():
            gc.collect()
            cpu0, start = time.process_time(), time.perf_counter()
            try:
                with tracer.operation(index) if traced_op else nullcontext():
                    result = run_job(workload, inputs, config, out)
            except Exception as exc:  # a failed operation is counted, not fatal
                run.record([f"op {index} raised {type(exc).__name__}: {exc}"])
                shutil.rmtree(out, ignore_errors=True)
                return
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        digests = file_digests(out)
        problems = job_problems(inputs, result, out, digests)
        digest = tree_digest(digests)
        first_digest.setdefault("tree", digest)
        if digest != first_digest["tree"]:
            problems.append(f"op {index}: report tree differs between runs of one input")
        run.record(problems)
        if traced_op:
            run.traced_wall.append(wall)
            run.layer_self.append(tracer.self_times(index))
            run.emit_inclusive.append(tracer.inclusive_time(index, "pipeline.emit"))
            out_bytes = sum(p.stat().st_size for p in out.iterdir())
            run.counts = result_counts(result, out_bytes, tracer)
        elif index >= 0:
            run.wall.append(wall)
            run.cpu.append(cpu)
            run.analyze.append(result.analyze_s)
        shutil.rmtree(out)

    # Pairs of jobs (one traced, one not, with trace) take turns on every
    # core this process may use.  A busy neighbour slows one core at a time,
    # and the fastest job needs one quiet core.
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    cpus = sorted(allowed)
    op(-1, False)  # warm-up: caches, lazy imports
    if not trace:
        setup_time(inputs.config)  # unmeasured: writes the bytecode caches
    setups = 2 if smoke else SETUP_REPEATS
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        have = min(len(run.wall), len(run.traced_wall)) if trace else len(run.wall)
        if (elapsed >= seconds and have >= MIN_SAMPLES) or elapsed >= MAX_MEASURE_S:
            break
        op(index, trace and index % 2 == 1)
        index += 1
        # Set-ups are spread over the timed pass, like the jobs, so both see
        # the same mix of quiet and busy moments of a shared host.
        if not trace and len(run.setup) < setups * min(elapsed / max(seconds, 1e-9), 1.0):
            run.setup.append(setup_time(inputs.config))
    while not trace and len(run.setup) < setups:
        run.setup.append(setup_time(inputs.config))
    if allowed:
        os.sched_setaffinity(0, allowed)

    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        tracer.write(TRACES / f"{name}-seed{seed}.jsonl")
    else:
        run.record(guarded(peak_pass, run, inputs, config))
    shutil.rmtree(WORK, ignore_errors=True)
    return run


def peak_pass(run: Run, inputs: gen.Inputs, config: P.PipelineConfig) -> list[str]:
    """One job under tracemalloc, apart from the timed jobs it would slow."""
    out = WORK / "out" / "peak"
    gc.collect()
    tracemalloc.start()
    try:
        result = run_job(run.workload, inputs, config, out)
        run.peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    problems = job_problems(inputs, result, out, file_digests(out))
    shutil.rmtree(out)
    return problems


# ---------------------------------------------------------------------------
# reporting

# FASTEST: end-to-end times are the fastest sample of a run.  On a shared
# 2-vCPU host, neighbours slow every job by up to 2x for seconds at a time.
# Across runs of identical inputs the median moved by 20-50% with the
# share of busy moments, and the tail by 15-25%; the fastest job, which
# needs only one quiet moment, moved by a few percent.  Median and tail
# are printed beside the metrics.

# Spans whose layer also has an inclusive metric report self time under
# a "_self_s" name; every other layer's metric is its span's self time.
SELF_KEYS = {"cli": "cli.self_s", "pipeline.run": "pipeline.run_self_s",
             "pipeline.emit": "pipeline.emit_self_s"}


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """Each time is the fastest sample of its run: see FASTEST."""
    fastest = min(run.wall)
    return {
        "setup_s": (min(run.setup), "s"),
        "run_s": (fastest, "s"),
        "run_cpu_s": (min(run.cpu), "s"),
        "analyze_s": (min(run.analyze), "s"),
        "objects_per_s": (run.workload.profile.objects / fastest, "1/s"),
        "peak_mib": (run.peak_bytes / 2**20, "MiB"),
    }


def spread_lines(run: Run) -> list[str]:
    """Median and tail of the job and set-up times, printed beside the
    metrics: on a shared host they follow the neighbours' load."""
    value, percentile = tail(run.wall)
    return [
        f"run median {statistics.median(run.wall):.6g} s, p{percentile:.0f} {value:.6g} s "
        f"of {len(run.wall)} jobs",
        f"setup median {statistics.median(run.setup):.6g} s of {len(run.setup)} set-ups",
    ]


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Self times of the fastest traced job, so that they sum to
    trace.run_s; counts of the last traced job."""
    fastest = min(range(len(run.traced_wall)), key=run.traced_wall.__getitem__)
    selfs = run.layer_self[fastest]
    out = {SELF_KEYS.get(layer, f"{layer}_s"): (selfs[layer], "s") for layer in LAYERS}
    out["pipeline.emit_s"] = (run.emit_inclusive[fastest], "s")
    for key, value in run.counts.items():
        unit = "ratio" if key.endswith("ratio") else "B" if key.endswith("bytes") else "count"
        out[key] = (value, unit)
    out["trace.run_s"] = (run.traced_wall[fastest], "s")
    out["trace.overhead_s"] = (run.traced_wall[fastest] - min(run.wall), "s")
    # Self times sum to the root span; what is left is the span bookkeeping
    # outside it, which the traced job's wall time also holds.
    out["trace.unattributed_s"] = (run.traced_wall[fastest] - sum(selfs.values()), "s")
    return out
