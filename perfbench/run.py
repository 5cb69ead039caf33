#!/usr/bin/env python3
"""Benchmark for roughfca: seeded workloads, output checks, end-to-end and
per-layer metrics.

Run from the root of a checkout (it builds nothing; the library is imported
from ``src/``)::

    python3 perfbench/run.py --workload tiered --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke             # every workload, tiny sizes
    python3 perfbench/run.py --record-expected   # rewrite expected.json

Workloads are listed with their reasons in BENCHMARK.json.  ``--trace 0``
reports the end-to-end metrics from untraced jobs; ``--trace 1`` alternates
untraced and traced jobs and reports per-layer self times and counts,
writing the spans to ``perfbench/.traces/``.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Any
failed output check makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SMOKE_SECONDS = 0.2
# ``harness`` imports roughfca, which is importable only once main() has put
# the checkout's src/ on the path; the functions below import it locally.


def describe(run, metrics: dict) -> None:
    import harness

    for key, (value, unit) in metrics.items():
        print(f"{run.name}  {key:34s} {value:.6g} {unit}")
    if run.setup and run.wall:
        for line in harness.spread_lines(run):
            print(f"{run.name}  {line}")
    print(f"{run.name}  fail_ratio {run.failed}/{run.attempted}")
    for problem in run.problems[:20]:
        print(f"{run.name}  FAILED: {problem}")


def result_line(run, metrics: dict) -> str:
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    })


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    import harness

    run = harness.measure(workload, seed, seconds, trace, smoke)
    usable = run.traced_wall if trace else run.wall
    if not usable:
        return run, {}
    return run, harness.per_layer(run) if trace else harness.end_to_end(run)


def record_expected() -> None:
    """Record the digests the checks compare against.  Do this only when the
    report format changes on purpose: the recorded trees are the contract."""
    import harness

    digests, chief = harness.bundled_tree()
    doc = {"bundled": {"chief": chief, "files": digests}, "default_seed": harness.DEFAULT_SEED}
    for key, table in (("workloads", harness.WORKLOADS), ("smoke", harness.SMOKE_WORKLOADS)):
        doc[key] = {}
        for name, workload in table.items():
            digest, problems = harness.default_seed_tree(workload)
            if problems:
                raise SystemExit(f"{key} {name}: {problems}")
            doc[key][name] = digest
    harness.EXPECTED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(f"wrote {harness.EXPECTED}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("tiered", "independent", "search"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload and both passes at tiny sizes")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite the recorded report-tree digests")
    args = parser.parse_args()
    if not args.smoke and not args.record_expected and not args.workload:
        parser.error("--workload is required")

    if not (CHECKOUT / "src" / "roughfca" / "__init__.py").is_file() \
            or not (CHECKOUT / "data" / "institutions_config.json").is_file():
        print(f"error: {CHECKOUT} holds no roughfca checkout (src/roughfca, data/)",
              file=sys.stderr)
        return 2
    os.chdir(CHECKOUT)
    sys.path.insert(0, str(CHECKOUT / "src"))

    if args.record_expected:
        record_expected()
        return 0
    if args.smoke:
        ok = True
        for name in ("tiered", "independent", "search"):
            for trace in (False, True):
                run, metrics = measure(name, args.seed, SMOKE_SECONDS, trace, smoke=True)
                describe(run, metrics)
                ok = ok and run.failed == 0 and bool(metrics)
        print(json.dumps({"smoke": "passed" if ok else "failed"}))
        return 0 if ok else 1

    run, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    describe(run, metrics)
    print(result_line(run, metrics))
    return 0 if run.failed == 0 and metrics else 1


if __name__ == "__main__":
    raise SystemExit(main())
