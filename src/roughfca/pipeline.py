"""End-to-end orchestration: load, proximity, cut, order, rank, cluster, FCA.

The pipeline is deterministic given a configuration: the same config and
data produce byte-identical report trees.  Any intermediate stage can be fed
an override (partitions, ordered-table labels) instead of its computed
value; overridden stages are recorded in the report's provenance block.

A non-empty proximity validation report (pairs with mu + nu > 1 are the
realistic case) stops the run unless ``force`` is set, in which case the
violations are carried into the provenance instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import fca
from .approx import CutParams, cut_graph, partition_from_cut, partition_from_json, partition_to_json
from .ordering import (
    BLOCK_ORDERS,
    LabelLadder,
    OrderedTable,
    RankCluster,
    RankTable,
    build_ordered_table,
    cluster_by_rank,
    ordered_table_override,
    ordered_table_to_csv,
    rank_table_to_csv,
    score_and_rank,
)
from .proximity import (
    IFProximityRelation,
    ProximityViolation,
    build_proximity,
    proximity_to_csv,
    validate_proximity,
)
from .table import AttributeSpec, InformationTable, Partition, load_table
# Nothing in the library uses UnionFind any more: cut components come from a
# bitmask search in approx.py.  The name stays only because
# perfbench/spans.py subclasses and patches it (ROADMAP item 1).
from .unionfind import UnionFind  # noqa: F401


class StageError(RuntimeError):
    """A pipeline failure tagged with the stage it occurred in."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[stage:{stage}] {message}")
        self.stage = stage


def _json_bool(value: object, what: str) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"{what} must be true or false, got {value!r}")
    return value


def _json_number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def _json_labels(value: object, what: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"{what} must be a list of strings, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class PipelineConfig:
    data_path: Path
    attributes: tuple[AttributeSpec, ...]
    cut: CutParams
    rank_ranges: tuple[tuple[int, int], ...]
    ladders: Mapping[str, LabelLadder] = field(default_factory=dict)
    block_order: str = "appearance"
    partitions_override: Path | None = None
    ordered_override: Path | None = None
    output_dir: Path | None = None
    force: bool = False

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> "PipelineConfig":
        """Build a config from its JSON document.  A missing key, or a value
        of the wrong type or out of range, raises :class:`StageError`
        tagged ``load``: flags must be JSON booleans and rank bounds JSON
        integers, alpha and beta JSON numbers, labels lists of strings and
        ladder weights integers; ladders must name declared numeric
        attributes and block_order one of :data:`BLOCK_ORDERS`."""
        base = Path(base_dir) if base_dir else Path.cwd()

        def resolve(p: str | None) -> Path | None:
            if p is None:
                return None
            path = Path(p)
            return path if path.is_absolute() else base / path

        try:
            specs = tuple(
                AttributeSpec(
                    name=a["name"],
                    kind=a.get("kind", "numeric"),
                    range_max=a.get("range_max"),
                    ladder=_json_labels(a["ladder"], "ladder") if "ladder" in a else None,
                    drop_if_indiscernible=_json_bool(a.get("drop_if_indiscernible", True),
                                                     "drop_if_indiscernible"),
                )
                for a in doc["attributes"]
            )
            cut = CutParams(_json_number(doc["alpha"], "alpha"), _json_number(doc["beta"], "beta"))
            ranges = doc["rank_ranges"]
            # JSON reads 1e400 as inf and NaN as nan: every bound must be an int
            if not all(isinstance(pair, (list, tuple)) and len(pair) == 2
                       and all(type(bound) is int for bound in pair) for pair in ranges):
                raise TypeError(f"rank bounds must be integers, two per range, got {ranges!r}")
            ranges = tuple(map(tuple, ranges))
            ladders = {
                name: LabelLadder(_json_labels(spec["labels"], f"labels of ladder {name!r}"),
                                  tuple(spec["weights"]))
                for name, spec in doc.get("ladders", {}).items()
            }
            unknown = sorted(set(ladders) - {a.name for a in specs if a.numeric})
            if unknown:
                raise ValueError(f"ladders for undeclared or nominal attributes: {unknown}")
            block_order = doc.get("block_order", "appearance")
            if block_order not in BLOCK_ORDERS:
                raise ValueError(f"unknown block_order {block_order!r}, expected {BLOCK_ORDERS}")
            overrides = doc.get("overrides", {})
            return cls(
                data_path=resolve(doc["data"]),
                attributes=specs,
                cut=cut,
                rank_ranges=ranges,
                ladders=ladders,
                block_order=block_order,
                partitions_override=resolve(overrides.get("partitions")),
                ordered_override=resolve(overrides.get("ordered_table")),
                output_dir=resolve(doc.get("output_dir")),
                force=_json_bool(doc.get("force", False), "force"),
            )
        except KeyError as exc:
            raise StageError("load", f"config missing key {exc}") from None
        except (TypeError, ValueError, AttributeError) as exc:
            raise StageError("load", f"bad config: {exc}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StageError("load", f"cannot read config {path}: {exc}") from None
        return cls.from_dict(doc, base_dir=path.parent)

    def echo(self) -> dict:
        """Stable JSON-serialisable image of the configuration."""
        return {
            "data": str(self.data_path),
            "alpha": self.cut.alpha,
            "beta": self.cut.beta,
            "attributes": [
                {
                    "name": a.name,
                    "kind": a.kind,
                    "range_max": a.range_max,
                    "ladder": list(a.ladder) if a.ladder else None,
                    "drop_if_indiscernible": a.drop_if_indiscernible,
                }
                for a in self.attributes
            ],
            "rank_ranges": [list(r) for r in self.rank_ranges],
            "ladders": {
                name: {"labels": list(l.labels), "weights": list(l.weights)}
                for name, l in sorted(self.ladders.items())
            },
            "block_order": self.block_order,
            "overrides": {
                "partitions": str(self.partitions_override) if self.partitions_override else None,
                "ordered_table": str(self.ordered_override) if self.ordered_override else None,
            },
            "force": self.force,
        }


@dataclass(frozen=True)
class ClusterAnalysis:
    cluster: RankCluster
    context: fca.FormalContext
    concepts: list[fca.Concept]
    cover: list[tuple[int, int]]
    basis: list[fca.Implication]
    frequencies: fca.FrequencyTable
    chief: list[tuple[int, tuple[str, ...]]]


@dataclass(frozen=True)
class PipelineReport:
    config: PipelineConfig
    table: InformationTable
    relations: dict[str, IFProximityRelation]
    violations: dict[str, list[ProximityViolation]]
    partitions: dict[str, Partition]
    ordered: OrderedTable
    ranks: RankTable
    clusters: list[RankCluster]
    analyses: list[ClusterAnalysis]
    provenance: dict


def _load_override_doc(path: Path, stage: str) -> object:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise StageError(stage, f"cannot read override {path}: {exc}") from None


def load_config_table(config: PipelineConfig) -> InformationTable:
    """Read and validate the configured data table (the load stage)."""
    try:
        csv_text = config.data_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StageError("load", f"cannot read data {config.data_path}: {exc}") from None
    try:
        return load_table(csv_text, config.attributes)
    except ValueError as exc:
        raise StageError("load", str(exc)) from None


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Execute every stage in order, honouring overrides, and return the
    full report.  Raises :class:`StageError` with the failing stage name."""
    provenance: dict = {"config": config.echo(), "stages": {}}
    table = load_config_table(config)

    numeric = [a.name for a in table.attributes if a.numeric]
    try:
        relations = {name: build_proximity(table, name) for name in numeric}
    except ValueError as exc:
        raise StageError("proximity", str(exc)) from None

    violations = {name: validate_proximity(rel) for name, rel in relations.items()}
    total_violations = sum(len(v) for v in violations.values())
    provenance["stages"]["validate"] = {
        "violations": {name: len(v) for name, v in sorted(violations.items()) if v},
        "forced": bool(config.force and total_violations),
    }
    if total_violations and not config.force:
        worst = next(v[0] for v in violations.values() if v)
        raise StageError(
            "validate",
            f"{total_violations} proximity axiom violation(s), e.g. {worst.kind} at "
            f"{worst.pair}: {worst.detail}; pass force to proceed",
        )

    override_parts: dict[str, Partition] = {}
    if config.partitions_override is not None:
        doc = _load_override_doc(config.partitions_override, "partition")
        docs = doc if isinstance(doc, list) else [doc]
        for entry in docs:
            try:
                name, part = partition_from_json(entry, table.objects)
            except ValueError as exc:
                raise StageError("partition", f"bad partition override: {exc}") from None
            if name not in relations:
                raise StageError("partition", f"override names unknown attribute {name!r}")
            override_parts[name] = part
    partitions = {}
    for name in numeric:
        if name in override_parts:
            partitions[name] = override_parts[name]
        else:
            partitions[name] = partition_from_cut(cut_graph(relations[name], config.cut))
    provenance["stages"]["partition"] = {
        name: ("override" if name in override_parts else "computed") for name in numeric
    }

    try:
        ordered = build_ordered_table(table, partitions, config.ladders, config.block_order)
    except ValueError as exc:
        raise StageError("order", str(exc)) from None
    if config.ordered_override is not None:
        doc = _load_override_doc(config.ordered_override, "order")
        if not isinstance(doc, dict):
            raise StageError("order", "ordered-table override must map attributes to label maps")
        try:
            ordered = ordered_table_override(ordered, doc)
        except ValueError as exc:
            raise StageError("order", f"bad ordered-table override: {exc}") from None
        provenance["stages"]["order"] = {"override": sorted(doc)}
    else:
        provenance["stages"]["order"] = {"override": []}
    provenance["stages"]["order"]["dropped"] = list(ordered.dropped)

    ranks = score_and_rank(ordered)
    try:
        clusters = cluster_by_rank(ranks, config.rank_ranges)
    except ValueError as exc:
        raise StageError("cluster", str(exc)) from None

    analyses = []
    for cluster in clusters:
        try:
            context = fca.build_context(ordered, cluster.members)
            concepts = fca.enumerate_concepts(context)
            cover = fca.lattice_cover(concepts)
            basis = fca.canonical_basis(context)
            freqs = fca.implication_frequencies(basis)
            chief = fca.chief_attributes(freqs)
        except ValueError as exc:
            raise StageError("fca", f"cluster {cluster.cluster_id}: {exc}") from None
        analyses.append(ClusterAnalysis(cluster, context, concepts, cover, basis, freqs, chief))

    return PipelineReport(
        config=config,
        table=table,
        relations=relations,
        violations=violations,
        partitions=partitions,
        ordered=ordered,
        ranks=ranks,
        clusters=clusters,
        analyses=analyses,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# cut parameter recovery


@dataclass(frozen=True)
class CutSearchResult:
    """Grid points of the admissible set reproducing every target partition,
    with the bounding box of the joint region and of each attribute's own
    feasible points."""

    step: float
    points: list[tuple[float, float]]
    hull: tuple[float, float, float, float] | None
    per_attribute: dict[str, tuple[float, float, float, float] | None]

    def to_json(self) -> str:
        """The document ``roughfca search-cut`` prints or writes: keys
        ``feasible_points``, ``hull``, ``per_attribute`` and ``step``, a
        missing hull written as null.

        The text is byte for byte ``json.dumps(doc, indent=2,
        sort_keys=True)`` plus a newline, written as its fixed layout (see
        :func:`fca.basis_to_json`) and joined once.
        Levels are floats; the step may be an int or a float.
        """
        level = float.__repr__
        step = int.__repr__(self.step) if isinstance(self.step, int) else level(self.step)
        hulls = ",\n".join(f"    {encode_basestring_ascii(name)}: "
                           f"{fca._json_list(h, level, 4) if h else 'null'}"
                           for name, h in sorted(self.per_attribute.items()))
        per_attribute = "{\n" + hulls + "\n  }" if hulls else "{}"
        hull = fca._json_list(self.hull, level, 2) if self.hull else "null"
        tail = f',\n  "hull": {hull},\n  "per_attribute": {per_attribute},\n  "step": {step}\n}}\n'
        if not self.points:
            return '{\n  "feasible_points": []' + tail
        # A grid repeats its levels, so each distinct level is written once
        # and every point that holds it refers to that text.  A zero is
        # written each time: 0.0 == -0.0, but their texts differ.
        texts: dict[float, str] = {}

        def text(value: float) -> str:
            known = texts.get(value)
            if known is None or not value:
                known = texts[value] = level(value)
            return known

        parts = ['{\n  "feasible_points": [\n    [\n      ']
        for alpha, beta in self.points:
            parts += (text(alpha), ",\n      ", text(beta), "\n    ],\n    [\n      ")
        parts[-1] = "\n    ]\n  ]" + tail
        return "".join(parts)


def _hull(feasible: np.ndarray, levels: np.ndarray) -> tuple[float, float, float, float] | None:
    """(alpha min, alpha max, beta min, beta max) of a mask over alpha x beta levels."""
    alphas = levels[feasible.any(axis=1)].tolist()
    betas = levels[feasible.any(axis=0)].tolist()
    return (alphas[0], alphas[-1], betas[0], betas[-1]) if alphas else None


def _cut_region(table: InformationTable, name: str, target: Partition,
                levels: np.ndarray) -> np.ndarray:
    """Mask over alpha x beta levels of the cuts of ``name`` that give ``target``.

    Along sorted values a pair's mu falls and its nu rises as it widens, so
    a cut's blocks are runs joined by the adjacent pairs that pass it, and
    each target block must be one run of the order by (value, target
    block).  An adjacent pair inside a run needs alpha <= mu and beta >= nu;
    one at a boundary needs beta < nu wherever alpha <= mu.  In floats mu
    keeps the order, and nu does for integer data, but near-duplicate
    doubles can put a wide pair's nu an ulp below an adjacent nu inside it:
    such an attribute raises ValueError."""
    rel = build_proximity(table, name)
    values = np.array(table.column(name), dtype=float)
    blocks = np.array([target.block_of[o] for o in table.objects])
    order = np.lexsort((blocks, values))
    nu = rel.nu[np.ix_(order, order)]
    mu_adj, nu_adj = rel.mu[order[:-1], order[1:]], np.diagonal(nu, 1)
    inside = np.where(np.arange(len(order) - 1) >= np.arange(len(order))[:, None], nu_adj, -np.inf)
    bad = np.argwhere(nu[:, 1:] < np.maximum.accumulate(inside, axis=1))  # [i, j - 1] for i < j
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"cut search on {name!r}: nu is not monotone over the sorted values "
                         f"{values[order][i:j + 2].tolist()}; near-duplicates break it by an ulp")
    inner = blocks[order[:-1]] == blocks[order[1:]]
    beta_below = np.where(mu_adj[~inner] >= levels[:, None], nu_adj[~inner], np.inf)
    return ((np.count_nonzero(~inner) < len(target.blocks))  # each target block is one run
            & (levels[:, None] <= mu_adj[inner].min(initial=np.inf))
            & (levels >= nu_adj[inner].max(initial=-np.inf))
            & (levels < beta_below.min(axis=1, initial=np.inf)[:, None]))


def search_alpha_beta(table: InformationTable, targets: Mapping[str, Partition],
                      step: float = 0.005) -> CutSearchResult:
    """The points of the (alpha, beta) grid over the admissible set whose cut
    partitions reproduce every target (maybe none), each attribute's region
    derived from its sorted values by :func:`_cut_region`, which raises
    ValueError on near-duplicate values that break the derivation.  ``step``
    must lie in (0, 1] and be at least 0.001: reports print three decimals."""
    if not 0.001 <= step <= 1:  # also rejects NaN
        raise ValueError(f"grid step must lie in (0, 1] and be at least 0.001, got {step}")
    if not targets:
        raise ValueError("at least one target partition is required")
    for name, part in targets.items():
        table.spec(name)
        if set(part.block_of) != set(table.objects):
            raise ValueError(f"target partition for {name!r} does not cover the universe")

    levels = np.arange(round(1.0 / step) + 1) * step
    admissible = levels[:, None] + levels <= 1.0 + 1e-12
    regions = {name: admissible & _cut_region(table, name, part, levels)
               for name, part in targets.items()}
    feasible = np.logical_and.reduce(list(regions.values()))
    alphas, betas = np.nonzero(feasible)
    return CutSearchResult(
        step=step,
        points=list(zip(levels[alphas].tolist(), levels[betas].tolist())),
        hull=_hull(feasible, levels),
        per_attribute={name: _hull(region, levels) for name, region in regions.items()},
    )


# ---------------------------------------------------------------------------
# report emission: each group yields the (file name, text) pairs of one
# stage's results, rendering a text only when its pair is reached, so a
# caller that writes one group renders no other.


def _json_text(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _proximity_files(report: PipelineReport) -> Iterator[tuple[str, str]]:
    for name in sorted(report.relations):
        yield f"proximity_{name}.csv", proximity_to_csv(report.relations[name])


def _partition_files(report: PipelineReport) -> Iterator[tuple[str, str]]:
    cut = report.config.cut
    yield "partitions.json", _json_text([
        partition_to_json(report.partitions[name], name, cut.alpha, cut.beta)
        for name in sorted(report.partitions)
    ])


def _rank_files(report: PipelineReport) -> Iterator[tuple[str, str]]:
    yield "ordered_table.csv", ordered_table_to_csv(report.ordered)
    yield "rank_table.csv", rank_table_to_csv(report.ranks)
    yield "clusters.json", _json_text([
        {"cluster_id": c.cluster_id, "rank_range": list(c.rank_range), "members": list(c.members)}
        for c in report.clusters
    ])


def _fca_files(report: PipelineReport) -> Iterator[tuple[str, str]]:
    for analysis in report.analyses:
        prefix = f"cluster_{analysis.cluster.cluster_id}"
        yield f"{prefix}_context.csv", fca.context_to_csv(analysis.context)
        yield f"{prefix}_lattice.dot", fca.lattice_to_dot(analysis.concepts, analysis.cover)
        yield f"{prefix}_basis.txt", fca.basis_to_text(analysis.basis)
        yield f"{prefix}_basis.json", fca.basis_to_json(analysis.basis)
        yield f"{prefix}_frequencies.csv", fca.frequencies_to_csv(analysis.frequencies)


def _summary_files(report: PipelineReport) -> Iterator[tuple[str, str]]:
    chief_doc = {}
    for analysis in report.analyses:
        groups = [{"frequency": f, "attributes": list(attrs)} for f, attrs in analysis.chief]
        chief_doc[f"cluster_{analysis.cluster.cluster_id}"] = {
            "groups": groups,
            "chief": groups[0]["attributes"] if groups else [],
            "next": groups[1]["attributes"] if len(groups) > 1 else [],
        }
    yield "chief_attributes.json", _json_text(chief_doc)
    yield "report.json", _json_text(report.provenance)


REPORT_GROUPS: dict[str, Callable[[PipelineReport], Iterable[tuple[str, str]]]] = {
    "proximity": _proximity_files,
    "partition": _partition_files,
    "rank": _rank_files,
    "fca": _fca_files,
}


def write_files(output_dir: str | Path, files: Iterable[tuple[str, str]]) -> list[dict]:
    """Create ``output_dir`` and write each (file name, text) pair into it.
    Returns one manifest entry per file with its content digest.  Any I/O
    failure raises :class:`StageError` tagged ``emit``."""
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StageError("emit", f"cannot create {out}: {exc}") from None
    entries = []
    for name, text in files:
        path = out / name
        data = text.encode("utf-8")
        del text
        try:
            path.write_bytes(data)  # untranslated newlines: the file is the hashed bytes
        except OSError as exc:
            raise StageError("emit", f"cannot write {path}: {exc}") from None
        entries.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})
        del data  # hold one rendered file at a time, not two, while the next renders
    return entries


def emit_group(report: PipelineReport, output_dir: str | Path, group: str) -> list[dict]:
    """Write the files of one :data:`REPORT_GROUPS` group, and no other."""
    return write_files(output_dir, REPORT_GROUPS[group](report))


def emit_reports(report: PipelineReport, output_dir: str | Path) -> list[dict]:
    """Write every artifact of a pipeline run into ``output_dir`` and return
    the manifest (also written as ``manifest.json``), one entry per file with
    its content digest."""
    groups = [files(report) for files in REPORT_GROUPS.values()]
    manifest = write_files(output_dir, chain(*groups, _summary_files(report)))
    manifest.sort(key=lambda e: e["path"])
    write_files(output_dir, [("manifest.json", _json_text({"files": manifest}))])
    return manifest
