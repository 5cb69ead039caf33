"""Spans around the library's public functions, recorded from outside.

:func:`traced` replaces, for the duration of a ``with`` block, the module
attributes that ``roughfca.pipeline`` and ``roughfca.fca`` look up at call
time, and the ``UnionFind`` name in ``roughfca.pipeline``, with wrappers that
record a span per call.  Nothing under ``src/`` changes; leaving the block
restores every attribute.

A span is (operation id, name, start, end, parent index).  A layer's self
time is its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import roughfca.fca as fca_module
import roughfca.pipeline as pipeline_module

# (module, attribute, span name).  Several attributes may share a span name;
# their times add up under it.
WRAPPED = (
    (pipeline_module, "run_pipeline", "pipeline.run"),
    (pipeline_module, "search_alpha_beta", "pipeline.run"),
    (pipeline_module, "emit_reports", "pipeline.emit"),
    (pipeline_module, "load_table", "table.load"),
    (pipeline_module, "build_proximity", "proximity.build"),
    (pipeline_module, "validate_proximity", "proximity.validate"),
    (pipeline_module, "proximity_to_csv", "proximity.csv"),
    (pipeline_module, "cut_graph", "approx.cut_graph"),
    (pipeline_module, "partition_from_cut", "approx.partition"),
    (pipeline_module, "build_ordered_table", "ordering.order"),
    (pipeline_module, "score_and_rank", "ordering.rank"),
    (pipeline_module, "cluster_by_rank", "ordering.cluster"),
    (fca_module, "build_context", "fca.context"),
    (fca_module, "enumerate_concepts", "fca.concepts"),
    (fca_module, "lattice_cover", "fca.cover"),
    (fca_module, "canonical_basis", "fca.basis"),
    (fca_module, "implication_frequencies", "fca.frequencies"),
    (fca_module, "chief_attributes", "fca.frequencies"),
    (fca_module, "context_to_csv", "fca.render"),
    (fca_module, "lattice_to_dot", "fca.render"),
    (fca_module, "basis_to_text", "fca.render"),
    (fca_module, "basis_to_json", "fca.render"),
    (fca_module, "frequencies_to_csv", "fca.render"),
)
ROOT = "cli"  # the job itself: file reads and result rendering, as the CLI does them
LAYERS = (ROOT,) + tuple(dict.fromkeys(name for _, _, name in WRAPPED))


@dataclass
class Tracer:
    """In-memory span store; one per traced pass."""

    spans: list[tuple[int, str, float, float, int]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    op: int = 0
    _stack: list[int] = field(default_factory=list)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((self.op, name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        op, name, start, _, parent = self.spans[index]
        self.spans[index] = (op, name, start, time.perf_counter(), parent)

    @contextmanager
    def operation(self, op: int):
        """Root span of one timed job; spans opened inside carry ``op``.
        ``counts`` restarts with every operation."""
        self.op = op
        self.counts = {}
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name == "approx.cut_graph":  # the report keeps partitions, not graphs
                self.counts["approx.edges"] = self.counts.get("approx.edges", 0) + len(result.edges)
            return result
        return wrapper

    def self_times(self, op: int) -> dict[str, float]:
        """Self time per layer for one operation.  They sum to the root
        span's duration."""
        out = dict.fromkeys(LAYERS, 0.0)
        child_time: dict[int, float] = {}
        for op_id, _, start, end, parent in self.spans:
            if op_id == op and parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for index, (op_id, name, start, end, _) in enumerate(self.spans):
            if op_id == op:
                out[name] += (end - start) - child_time.get(index, 0.0)
        return out

    def inclusive_time(self, op: int, name: str) -> float:
        """Wall time spent inside outermost spans of ``name``."""
        return sum(end - start for op_id, span, start, end, _ in self.spans
                   if op_id == op and span == name)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for op, name, start, end, parent in self.spans:
                out.write(json.dumps({"op": op, "name": name, "start": start, "end": end,
                                      "parent": parent}) + "\n")


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers and a counting ``UnionFind`` for the block."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
    saved.append((pipeline_module, "UnionFind", pipeline_module.UnionFind))
    base = pipeline_module.UnionFind

    class CountingUnionFind(base):
        def __init__(self, n: int):
            tracer.counts["unionfind.instances"] = tracer.counts.get("unionfind.instances", 0) + 1
            super().__init__(n)

    try:
        for module, attr, name in WRAPPED:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        pipeline_module.UnionFind = CountingUnionFind
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
