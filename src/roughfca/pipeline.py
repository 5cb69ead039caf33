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
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import fca
from .approx import CutParams, cut_graph, partition_from_cut, partition_to_json, partitions_from_json
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
    membership_degree,
    nonmembership_degree,
    numeric_values,
    proximity_to_csv,
    validate_proximity,
)
from .table import AttributeSpec, InformationTable, Partition, load_table


class UnionFind:
    """Empty placeholder that nothing instantiates: cut components come from
    a bitmask search in approx.py.  perfbench/spans.py still subclasses and
    patches this name to count instances, so it stays until the benchmark
    reads in-library stage stats (ROADMAP item 1), which deletes it."""


class StageError(RuntimeError):
    """A pipeline failure tagged with the stage it occurred in."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[stage:{stage}] {message}")
        self.stage = stage


def read_input(path: str | Path, what: str, stage: str, parse: Callable = json.loads) -> object:
    """Parse an input file's UTF-8 text, JSON by default: the input twin of
    :func:`write_files`.  Failing to read, decode or parse it is a StageError."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise StageError(stage, f"cannot read {what} {path}: {exc}") from None


def _json_bool(value: object, what: str) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"{what} must be true or false, got {value!r}")
    return value


def _json_number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the largest float
        raise ValueError(f"{what} must be a number, got an integer too large for a float") from None


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
            return None if p is None else base / Path(p)  # an absolute p replaces base

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
        return cls.from_dict(read_input(path, "config", "load"), base_dir=Path(path).parent)

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
    violations: dict[str, Sequence[ProximityViolation]]
    partitions: dict[str, Partition]
    ordered: OrderedTable
    ranks: RankTable
    clusters: list[RankCluster]
    analyses: list[ClusterAnalysis]
    provenance: dict


def load_config_table(config: PipelineConfig) -> InformationTable:
    """Read and validate the configured data table (the load stage)."""
    csv_text = read_input(config.data_path, "data", "load", parse=str)
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
        doc = read_input(config.partitions_override, "override", "partition")
        try:
            override_parts = partitions_from_json(doc, table.objects)
        except ValueError as exc:
            raise StageError("partition", f"bad partition override: {exc}") from None
        for name in override_parts:
            if name not in relations:
                raise StageError("partition", f"override names unknown attribute {name!r}")
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
        doc = read_input(config.ordered_override, "override", "order")
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


def _hull(lo: np.ndarray, hi: np.ndarray,
          levels: list[float]) -> tuple[float, float, float, float] | None:
    """(alpha min, alpha max, beta min, beta max) of a region held as one
    half-open interval [lo[i], hi[i]) of beta levels per alpha level i."""
    rows = np.flatnonzero(lo < hi)
    if not rows.size:
        return None
    return (levels[rows[0]], levels[rows[-1]], levels[lo[rows].min()], levels[hi[rows].max() - 1])


def _admissible_prefix(levels: np.ndarray) -> np.ndarray:
    """For each alpha level, the number of beta levels in the admissible
    triangle, where ``alpha + beta <= SUM_BOUND`` as :class:`CutParams`
    tests it.  Float addition is monotone, so they are a prefix of the
    levels.  ``searchsorted`` on the rounded ``SUM_BOUND - alpha`` can
    miss its end by one level (levels lie at least 0.001 apart, the rounding
    is some 1e-16), and one exact test on each side of it mends that."""
    bound, last = CutParams.SUM_BOUND, len(levels) - 1
    top = levels.searchsorted(bound - levels, "right")
    top += (top <= last) & (levels + levels[np.minimum(top, last)] <= bound)
    top -= (top > 0) & (levels + levels[top - 1] > bound)
    return top


#: The O(n) order test asks each two-step pair's nu to clear the larger
#: adjacent nu inside it by this factor, 1 + 8 machine epsilons.
_ORDER_MARGIN = 1.0 + 2.0 ** -49


def _order_test(values: np.ndarray) -> bool:
    """True if no pair of the sorted ``values`` has a float nu below that
    of an adjacent pair inside it; False if this O(n) test cannot tell.

    It looks at the distinct values u_0 < u_1 < ... in [1, 2**500] and asks
    that each two-step pair (u_k-1, u_k+1) have a nu at least
    :data:`_ORDER_MARGIN` times the larger adjacent nu inside it.  Why that
    suffices for every pair:

    - A pair of equal values has nu 0.  A pair of neighbouring distinct
      values has the same nu wherever its ends sit among repeats.  So the
      only pairs that can break the order are (u_p, u_q) with q >= p + 2,
      against an adjacent (u_k, u_k+1) with p <= k < q.
    - Exactly, nu(x, y) = (y - x) / (2 (x + y)) rises with y and falls with
      x for 0 < x < y, so a pair's nu is at least that of any pair nested
      in it.
    - The float nu is the exact one times (1 + d1)(1 + d3) / (1 + d2), each
      |d| <= r = 2**-53 (subtraction, addition, division; doubling is
      exact).  Values in [1, 2**500] keep every step clear of overflow and
      underflow, so that bound holds.
    - Some two-step pair (u_m-1, u_m+1) lies inside (u_p, u_q) and holds
      (u_k, u_k+1).  By the last two facts fl nu(u_p, u_q) >=
      fl nu(u_m-1, u_m+1) (1 - r)**3 / (1 + r)**3, and the test, whose
      product rounds once, gives fl nu(u_m-1, u_m+1) >= (1 + 16 r)(1 - r)
      fl nu(u_k, u_k+1).  (1 + 16 r)(1 - r)**4 / (1 + r)**3 > 1.

    The test must skip repeats: with v[k-1] == v[k] < v[k+1] the two-step
    nu equals the adjacent one exactly and never clears the margin.
    """
    if len(values) < 3:
        return True  # no pair has an adjacent pair inside it
    u = values[np.concatenate(([True], values[1:] != values[:-1]))]
    if not (u[0] >= 1.0 and u[-1] <= 2.0 ** 500):
        return False
    nu = nonmembership_degree(u[:-1], u[1:])
    wide = nonmembership_degree(u[:-2], u[2:])
    return bool(np.all(wide >= _ORDER_MARGIN * np.maximum(nu[:-1], nu[1:])))


def _undecided_spans(u: np.ndarray) -> list[tuple[int, int]]:
    """Disjoint index ranges [start, stop) of the distinct sorted values
    ``u`` that hold every pair the two-step test of :func:`_order_test`
    leaves undecided; the whole of ``u`` outside [1, 2**500].

    An adjacent pair (u_k, u_k+1) whose two windows (u_k-1, u_k+1) and
    (u_k, u_k+2) both pass is safe inside any wider pair, which holds one
    of them.  For each other k, the left end lo < k is moved down until
    (u_lo, u_k+1) has a nu of at least :data:`_ORDER_MARGIN` nu_k, and the
    right end hi > k + 1 up until (u_k, u_hi) does.  A pair holding
    (u_k, u_k+1) that reaches lo or hi holds one of those two, so by the
    nesting argument of :func:`_order_test` its float nu is at least
    (1 + 16 r)(1 - r)**4 / (1 + r)**3 nu_k > nu_k.  Every other pair
    holding it lies in u_lo+1 .. u_hi-1, and overlapping ranges are merged."""
    if not (u[0] >= 1.0 and u[-1] <= 2.0 ** 500):
        return [(0, len(u))]
    nu = nonmembership_degree(u[:-1], u[1:])
    wide = nonmembership_degree(u[:-2], u[2:])
    failing = np.flatnonzero(wide < _ORDER_MARGIN * np.maximum(nu[:-1], nu[1:]))
    spans = []
    for k in np.union1d(failing, failing + 1).tolist():  # window f holds pairs f and f + 1
        bound = _ORDER_MARGIN * nu[k]
        lo, hi = k - 1, k + 2
        while lo >= 0 and nonmembership_degree(u[lo], u[k + 1]) < bound:
            lo -= 1
        while hi < len(u) and nonmembership_degree(u[k], u[hi]) < bound:
            hi += 1
        spans.append((lo + 1, hi))
    merged: list[tuple[int, int]] = []
    for start, stop in sorted(spans):
        if merged and start < merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], stop))
        else:
            merged.append((start, stop))
    return merged


def _check_order(name: str, values: np.ndarray) -> None:
    """Raise ValueError if a pair of the sorted ``values`` has a float nu
    below that of an adjacent pair inside it.  The O(n)
    :func:`_order_test` decides almost every attribute; where it cannot,
    every pair of the distinct values (a repeat adds no nu of its own)
    within each of :func:`_undecided_spans` is checked against the largest
    adjacent nu inside it, on arrays the square of the span's length.  The
    spans are disjoint and ascending, so the first break named is the first
    that a check of every pair would find."""
    if _order_test(values):
        return
    values = np.unique(values)
    for start, stop in _undecided_spans(values):
        span = values[start:stop]
        n = len(span)
        nu = nonmembership_degree(span[:, None], span)
        inside = np.where(np.arange(n - 1) >= np.arange(n)[:, None], np.diagonal(nu, 1), -np.inf)
        bad = np.argwhere(nu[:, 1:] < np.maximum.accumulate(inside, axis=1))  # [i, j - 1], i < j
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"cut search on {name!r}: nu is not monotone over the sorted values "
                             f"{span[i:j + 2].tolist()}; near-duplicates break it by an ulp")


def _beta_intervals(table: InformationTable, name: str, target: Partition,
                    levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cuts of ``name`` that give ``target``, as one half-open interval
    [lo[i], hi[i]) of beta level indices per alpha level i (empty where
    lo[i] >= hi[i]).

    Along sorted values a pair's mu falls and its nu rises as it widens (in
    floats too: each step of mu rounds monotonically, and
    :func:`_check_order` makes sure of nu), so a cut's blocks are runs
    joined by the adjacent pairs that pass it, and each target block must
    be one run of the order by (value, target block).  An adjacent pair
    inside a run needs alpha <= mu and beta >= nu; one at a boundary needs
    beta < nu wherever alpha <= mu, so beta stays below a staircase: the
    least nu among the boundary pairs with mu >= alpha.  Adjacent degrees
    come from the degree functions, as :func:`build_proximity`'s cells do,
    and each bound is found with ``searchsorted`` under the comparison a
    mask over the levels would make."""
    values, range_max = numeric_values(table, name)
    blocks = np.array([target.block_of[o] for o in table.objects])
    order = np.lexsort((blocks, values))
    values, blocks = values[order], blocks[order]
    _check_order(name, values)
    mu = membership_degree(values[:-1], values[1:], range_max)
    nu = nonmembership_degree(values[:-1], values[1:])
    inner = blocks[:-1] == blocks[1:]
    if np.count_nonzero(~inner) >= len(target.blocks):  # a target block is not one run
        none = np.zeros(len(levels), int)
        return none, none
    lo = np.full(len(levels), levels.searchsorted(nu[inner].max(initial=-np.inf)))
    cross_mu, cross_nu = mu[~inner], nu[~inner]
    by_mu = np.argsort(cross_mu)
    # the least nu among the boundary pairs from each one up in mu order
    stair = np.concatenate((np.minimum.accumulate(cross_nu[by_mu][::-1])[::-1], [np.inf]))
    hi = levels.searchsorted(stair[cross_mu[by_mu].searchsorted(levels)])  # mu >= alpha, beta < nu
    hi[levels.searchsorted(mu[inner].min(initial=np.inf), "right"):] = 0  # alpha <= mu
    return lo, hi


def search_alpha_beta(table: InformationTable, targets: Mapping[str, Partition],
                      step: float = 0.005) -> CutSearchResult:
    """The points of the (alpha, beta) grid over the admissible set whose cut
    partitions reproduce every target (maybe none).  ``step`` must lie in
    (0, 1] and be at least 0.001: reports print three decimals.

    Each target attribute is sorted once, and its region is read from its
    adjacent degrees as one interval of beta levels per alpha level
    (:func:`_beta_intervals`), cut to the admissible prefix of that level.
    The joint region takes, per alpha level, the largest low end and the
    smallest high end over the targets.  No n x n matrix is built unless an
    attribute's near-duplicate values leave the O(n) order test undecided;
    the pairwise check then raises ValueError if they break the order."""
    if not 0.001 <= step <= 1:  # also rejects NaN
        raise ValueError(f"grid step must lie in (0, 1] and be at least 0.001, got {step}")
    if not targets:
        raise ValueError("at least one target partition is required")
    for name, part in targets.items():
        table.spec(name)
        if set(part.block_of) != set(table.objects):
            raise ValueError(f"target partition for {name!r} does not cover the universe")

    levels = np.arange(round(1.0 / step) + 1) * step
    top = _admissible_prefix(levels)
    level_list = levels.tolist()
    lo_all, hi_all = np.zeros_like(top), top
    per_attribute = {}
    for name, part in targets.items():
        lo, hi = _beta_intervals(table, name, part, levels)
        hi = np.minimum(hi, top)
        per_attribute[name] = _hull(lo, hi, level_list)
        lo_all, hi_all = np.maximum(lo_all, lo), np.minimum(hi_all, hi)
    points: list[tuple[float, float]] = []
    for alpha, low, high in zip(level_list, lo_all.tolist(), hi_all.tolist()):
        points += zip(repeat(alpha), level_list[low:high])  # nothing where low >= high
    return CutSearchResult(step=step, points=points, hull=_hull(lo_all, hi_all, level_list),
                           per_attribute=per_attribute)


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
