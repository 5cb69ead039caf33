#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/NAME.json

For every workload and seed it runs ``perfbench/run.py`` once (with the
``run_seconds`` of BENCHMARK.json), then reports per metric the median of
the seeds' values, the quartiles, and the quartile distance as a share of
the median, the figure BENCHMARK.json's bounds are set against.  Runs are
sequential: the jobs are single-threaded and would contend for cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def machine() -> str:
    """CPU model, usable cores and Python version, for the results file."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), model)
    except OSError:
        pass
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"{model}, {cores} cores, Python {platform.python_version()}"


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stdout}\n{done.stderr}")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    summary: dict = {"seconds": bench["run_seconds"], "seeds": args.seeds,
                     "trace": args.trace, "machine": machine(), "workloads": {}}
    for workload in workloads:
        results = [run_once(workload, seed, bench["run_seconds"], args.trace)
                   for seed in seeds_of(args.seeds)]
        metrics = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {"unit": results[0]["metrics"][name]["unit"], **summarise(values)}
        summary["workloads"][workload] = {
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            bound = bounds.get(name)
            flag = "" if bound is None or m["spread"] is None or m["spread"] < bound / 3 \
                else "  above a third of the bound"
            print(f"{workload:12s} {name:34s} median {m['median']:.6g} {m['unit']}"
                  f"  spread {spread}{'' if bound is None else f' (bound {bound})'}{flag}",
                  flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
