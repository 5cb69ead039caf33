"""Tests of the benchmark harness, on the smoke sizes.

They check that every workload runs clean and reports every metric named in
BENCHMARK.json, that corrupted program output is counted as failed, that
layer self times add up to the traced job, and that the command refuses to
run without the library beside it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import roughfca.fca  # noqa: E402
import roughfca.pipeline  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def at_checkout_root(monkeypatch):
    monkeypatch.chdir(CHECKOUT)


def smoke(name: str, trace: bool) -> harness.Run:
    return harness.measure(name, seed=5, seconds=0.0, trace=trace, smoke=True)


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_workload_reports_every_metric(name):
    run = smoke(name, trace=False)
    assert run.failed == 0, run.problems
    metrics = harness.end_to_end(run)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())

    run = smoke(name, trace=True)
    assert run.failed == 0, run.problems
    metrics = harness.per_layer(run)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for layer in spans.LAYERS:  # every layer's spans occur on every workload
        assert all(selfs[layer] > 0 for selfs in run.layer_self), layer
    for wall, selfs in zip(run.traced_wall, run.layer_self):
        assert abs(wall - sum(selfs.values())) < 0.01 * wall


def test_tracing_restores_the_library():
    before = [getattr(module, attr) for module, attr, _ in spans.WRAPPED]
    union_find = roughfca.pipeline.UnionFind
    with spans.traced(spans.Tracer()):
        assert roughfca.pipeline.UnionFind is not union_find
    assert [getattr(module, attr) for module, attr, _ in spans.WRAPPED] == before
    assert roughfca.pipeline.UnionFind is union_find


def test_corrupted_report_bytes_fail(monkeypatch):
    render = roughfca.fca.basis_to_text
    monkeypatch.setattr(roughfca.fca, "basis_to_text", lambda basis: render(basis) + " ")
    run = smoke("tiered", trace=False)
    assert run.failed >= 2  # the bundled tree and the default-seed tree
    assert any("bundled report file cluster_1_basis.txt" in p for p in run.problems)


def test_wrong_partitions_fail(monkeypatch):
    closure = roughfca.pipeline.partition_from_cut

    def split_first_object(graph):
        blocks = [list(block) for block in closure(graph).blocks]
        blocks.append([blocks[0].pop(0)])
        return roughfca.pipeline.Partition.from_blocks([b for b in blocks if b], graph.objects)

    monkeypatch.setattr(roughfca.pipeline, "partition_from_cut", split_first_object)
    run = smoke("tiered", trace=False)
    assert run.failed == run.attempted
    assert any("reference closure" in p for p in run.problems)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(CHECKOUT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiered", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
